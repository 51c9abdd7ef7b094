//! # fleche-gpu
//!
//! Discrete-event GPU execution and cost model used as the hardware
//! substrate for the Fleche (EuroSys '22) reproduction.
//!
//! Real GPU hardware is not available to this build, so the repository
//! substitutes a calibrated simulator: data structures execute
//! *functionally* on the host, and each operation reports the footprint a
//! CUDA kernel doing the same work would have had ([`KernelWork`]). This
//! crate turns those footprints into time under a model with:
//!
//! * a **host timeline** that pays per-call costs for kernel launches,
//!   graph launches, stream synchronization and blocking copies — the
//!   paper's "kernel maintenance" costs (the slab pool is pre-allocated,
//!   so no workflow allocates device memory);
//! * a **device timeline** where kernels serialize per stream, overlap
//!   across streams, and share HBM bandwidth by water-filling, capped by
//!   each kernel's own parallelism;
//! * a **span timeline** that feeds the Chrome-trace export,
//!   [`Gpu::device_busy`] (maintenance vs execution) and the golden
//!   digests; the per-phase breakdowns are accumulated by the workflows.
//!
//! Calibration constants ([`DeviceSpec::t4`], [`DramSpec::xeon_6252`])
//! follow the paper's Table 1 plus published CUDA overhead measurements.
//!
//! ## Example
//!
//! ```
//! use fleche_gpu::{DeviceSpec, Gpu, KernelDesc, KernelWork};
//!
//! let mut gpu = Gpu::new(DeviceSpec::t4());
//! let s = gpu.default_stream();
//! gpu.launch(s, KernelDesc::new("lookup", 4096, KernelWork::streaming(1 << 20)));
//! gpu.sync_stream(s);
//! assert!(gpu.now().as_us() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod engine;
mod fault;
mod kernel;
mod race;
mod spec;
mod time;
mod timeline;
mod trace_export;

pub use device::Gpu;
pub use engine::{KernelId, StreamId};
pub use fault::{DeviceFault, FaultCounters, LaunchFault, LaunchFaultHook};
pub use kernel::{KernelDesc, KernelWork};
pub use race::{
    declare_pipeline_handoffs, ledger_resource, slot_resource, Access, Actor, Race, RaceChecker,
};
pub use spec::{CopyApi, DeviceSpec, DramSpec};
pub use time::{BytesPerNs, Ns};
pub use timeline::{Category, Span, Timeline, Track};
pub use trace_export::to_chrome_trace;
