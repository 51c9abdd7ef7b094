//! # fleche-index
//!
//! GPU-resident hash-index substrate for the Fleche (EuroSys '22)
//! reproduction: the pieces flat cache is assembled from.
//!
//! * [`SlabHash`] — a SlabHash-style bucketed hash index (warp-wide 32-slot
//!   slabs, linked overflow slabs, per-slot logical timestamps for
//!   approximate LRU and conflict versioning).
//! * [`SlabPool`] — the pre-allocated value store, partitioned into size
//!   classes by embedding dimension so no fragmentation or `cudaMalloc`
//!   calls occur on the query path.
//! * [`EpochManager`] — epoch-based reclamation protecting decoupled copy
//!   kernels from read-after-delete during eviction.
//! * [`MegaKv`] — the other GPU index family the paper names: a bucketed
//!   cuckoo hash with two bounded probes per lookup, behind the same
//!   [`GpuIndex`] trait so flat cache can use either backend.
//! * [`Loc`]/[`PackedLoc`] — 8-byte value locations whose least-significant
//!   bit tags CPU-DRAM pointers (the unified-index trick).
//!
//! Structures are functionally exact; each operation also returns
//! [`ProbeStats`] so callers can charge the `fleche-gpu` cost model with
//! the traffic a CUDA kernel doing the same work would generate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod index_trait;
pub mod instrument;
pub mod loc;
pub mod mega_kv;
pub mod pool;
pub mod slab_hash;

pub use epoch::{EpochGuard, EpochManager};
pub use index_trait::{GpuIndex, IndexInsert};
pub use instrument::ProbeStats;
pub use loc::{Loc, PackedLoc, MAX_DRAM_FEATURE, MAX_DRAM_TABLE};
pub use mega_kv::{MegaKv, BUCKET_BYTES, BUCKET_WIDTH};
pub use pool::{ClassSpec, PoolError, SlabPool};
pub use slab_hash::{InsertOutcome, ScanEntry, SlabHash, SLAB_BYTES, SLAB_WIDTH};
