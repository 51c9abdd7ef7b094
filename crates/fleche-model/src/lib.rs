//! # fleche-model
//!
//! The DLRM model layer of the Fleche (EuroSys '22) reproduction:
//!
//! * [`DenseModel`] — the Deep & Cross Network dense part (6 cross
//!   layers + MLP), priced as per-layer kernels on the simulated GPU,
//!   timing only (no activations are computed).
//! * [`InferenceEngine`] — end-to-end inference over any
//!   [`fleche_store::api::EmbeddingCacheSystem`]: embedding → pooling →
//!   dense, plus warm-up/measure loops and throughput/latency aggregation.
//! * [`ctr`] — the synthetic CTR world and hashed logistic-regression
//!   model used to measure the accuracy impact of flat-key collisions
//!   (paper Exp #5 / Fig. 13), evaluated by rank-based AUC.
//! * [`LatencyRecorder`] — median/P99/mean statistics over simulated
//!   batch latencies.
//! * [`server`] — open-loop serving: Poisson arrivals, dynamic batching,
//!   queueing-inclusive latency (the load/latency curves of Exp #2), in
//!   the one window loop every drive below runs.
//! * [`concurrent`] — the pipelined multi-worker serving front-end:
//!   sharded arrival queue, logical-time micro-batcher, prep/execute
//!   pipelining, and paced device dwell for measured wall-clock scaling.
//! * [`admission`] — per-tenant weighted admission control, the window
//!   loop's admit stage: token-bucket quotas, over-quota-first shedding,
//!   and an SLO-driven adaptive controller with hysteresis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod concurrent;
pub mod ctr;
pub mod dense;
pub mod engine;
pub mod latency;
pub mod server;

pub use admission::{
    serve_multi_tenant, AdmissionController, MultiTenantConfig, MultiTenantRun, OverloadCostSpec,
    ShedInterval, TenantRun, TenantSpec, TokenBucket,
};
pub use concurrent::{
    serve_concurrent, BatchPlan, ConcurrentConfig, ConcurrentRun, MicroBatchPlan, MicroBatcher,
    MicroBatcherConfig, QueuedRequest, ShardedQueue, StageWall, WorkerRun, DEFAULT_PIPELINE_DEPTH,
    DEFAULT_SHARD_CAPACITY,
};
pub use ctr::{auc, evaluate_codec, generate_samples, CtrSample, HashedLr, ParamIndexing};
pub use dense::DenseModel;
pub use engine::{InferenceEngine, InferenceTiming, MeasuredRun, ModelMode};
pub use latency::{throughput, LatencyRecorder};
pub use server::{misses_deadline, serve, ServedRun, ServerConfig, ARRIVAL_SEED};
