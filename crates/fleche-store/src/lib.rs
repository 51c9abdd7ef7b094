//! # fleche-store
//!
//! The CPU-DRAM layer of the two-layer embedding hierarchy in the Fleche
//! (EuroSys '22) reproduction, plus the batch plumbing and the prices both
//! cache systems share ([`api`]):
//!
//! * [`CpuStore`] — all embedding tables, with deterministic procedural
//!   values and a DRAM cost model (latency-bound for many small lookups,
//!   bandwidth-bound for bulk) split into indexing and payload components
//!   so the unified-index experiment can bypass only the former.
//! * [`Deduped`] — deduplicating & restoring (paper §4): dedup all batch
//!   IDs, query each unique key once, restore the full output matrix.
//! * [`CpuStore::pooled`] and [`pooling_kernel_work`] — sum pooling of
//!   multi-hot embeddings, on the host and priced on the device.
//! * [`TieredStore`] — giant-model mode (paper §5): the CPU-DRAM layer (a
//!   [`CpuStore`]) as an LRU cache over a remote parameter server, logging
//!   evictions so the GPU-resident unified index can invalidate stale DRAM
//!   pointers.
//! * [`UpdateStream`] / [`VersionLedger`] — online embedding updates: a
//!   seeded trainer-push generator with per-key monotonic versions, and
//!   the parameter-server version table serving layers consult to measure
//!   staleness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod dedup;
pub mod pooling;
pub mod remote;
pub mod table;
pub mod update;

pub use api::{
    dedup_charged, BatchStats, EmbeddingCacheSystem, LifetimeStats, PhaseBreakdown, QueryOutput,
    RowPool, Rows,
};
pub use dedup::{Deduped, DEDUP_NS_PER_ID};
pub use pooling::pooling_kernel_work;
pub use remote::{FetchReport, RemoteSpec, TieredStats, TieredStore};
pub use table::{embedding_value, CpuStore, RowArena, DRAM_INDEX_BYTES, DRAM_PROBES_PER_LOOKUP};
pub use update::{versioned_embedding_value, UpdatePush, UpdateStream, VersionLedger};
