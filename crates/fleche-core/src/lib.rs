//! # fleche-core
//!
//! The primary contribution of the Fleche paper (EuroSys '22),
//! reimplemented in Rust over a simulated GPU substrate:
//!
//! * [`FlatCache`] — one global cache backend shared by every embedding
//!   table: key-value separation, a single slab-hash index over re-encoded
//!   *flat keys*, a pre-allocated slab memory pool partitioned by embedding
//!   dimension, approximate LRU via per-slot timestamps, a probability
//!   admission filter, watermark-triggered eviction with epoch-based
//!   reclamation, and optional tagged CPU-DRAM pointers (the *unified
//!   index*).
//! * [`FusionPlan`] — self-identified kernel fusion: all per-table cache
//!   query kernels merge into one; each thread binary-searches a prefix-sum
//!   scan array to identify its original kernel, with legality checks for
//!   block-size uniformity and grid-level synchronization.
//! * [`FlecheSystem`] — the full query workflow: dedup → re-encode →
//!   fused index kernel → decoupled hit-copy kernel overlapping the
//!   CPU-DRAM miss query → admission-filtered replacement → restore. Each
//!   technique is switchable through [`FlecheConfig`] for the paper's
//!   ablations.
//! * [`UnifiedIndexTuner`] — the empirical grow/plateau/reset capacity
//!   search for the unified index.
//!
//! Two of the paper's §5 discussion points are implemented as working
//! extensions: giant-model mode ([`FlecheSystem::with_tiered_store`], a
//! tiered DRAM-cache/remote-parameter-server backend with unified-index
//! invalidation) and model-parallel multi-GPU sharding
//! ([`MultiGpuFleche`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flat_cache;
pub mod fusion;
pub mod multi_gpu;
pub mod recovery;
pub mod system;
pub mod tenancy;
pub mod tuner;
pub mod update;

pub use flat_cache::{
    CacheAnswer, Captured, Fill, FlatCache, FlatCacheConfig, IndexBackend, PendingUpdate,
    SlotUpdate, UpdateApplyReport, UNIFIED_ENTRY_BYTES,
};
pub use fusion::{FusionError, FusionMember, FusionPlan, ARGS_ENTRY_BYTES, WARP};
pub use multi_gpu::{FailoverStats, InterconnectSpec, MultiGpuFleche, ShardedTiming};
pub use recovery::{
    CacheSnapshot, CheckpointChain, RestoreReport, SnapshotEntry, SnapshotError, SnapshotKind,
};
pub use system::{FlecheConfig, FlecheSystem};
pub use tenancy::TenantCacheStats;
pub use tuner::{TunerState, UnifiedIndexTuner};
pub use update::{StalenessStats, UpdateCostSpec, UpdatePipeline};
