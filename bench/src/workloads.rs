//! The four workloads' shapes and the set-up they share.

use crate::probe::{Probe, Timed};
use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu};
use fleche_model::{DenseModel, InferenceEngine, ModelMode};
use fleche_store::CpuStore;
use fleche_workload::{spec, DatasetSpec};

/// A closed-loop workload: one client calls `InferenceEngine::run_batch`
/// and sends its next batch when the previous one returns.
#[derive(Clone)]
pub struct ClosedParams {
    pub dataset: DatasetSpec,
    pub cache_fraction: f64,
    pub batch: usize,
    pub warmup_batches: usize,
    /// Engines built and warmed per untraced run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Trainer pushes committed and staged before every batch (0 = none).
    pub update_burst: usize,
    /// Batches the simulated-clock metrics, the counts and `peak_rss_mb`
    /// are taken over, so they do not depend on how many batches the host
    /// fits into the run.
    pub counted_batches: u64,
}

/// The serving workload: `serve_concurrent`, one worker, streaming drive.
#[derive(Clone)]
pub struct ServeParams {
    pub dataset: DatasetSpec,
    pub cache_fraction: f64,
    pub max_batch: usize,
    /// Requests per second on the simulated clock.
    pub offered_load: f64,
    pub warmup_requests: usize,
}

pub enum Workload {
    Closed(ClosedParams),
    Serve(ServeParams),
}

/// Hot keys the trainer re-embeds, learned from the warm-up batches.
pub const UPDATE_CANDIDATES: usize = 4096;

/// The workload called `name`. `smoke` shrinks warm-up and set-up
/// repeats to a quarter or less, for a quick check that everything runs;
/// its numbers are not comparable with the benchmark's.
pub fn by_name(name: &str, smoke: bool) -> Option<Workload> {
    let closed = |dataset, cache_fraction, update_burst| {
        Workload::Closed(ClosedParams {
            dataset,
            cache_fraction,
            batch: 512,
            warmup_batches: if smoke { 100 } else { 400 },
            setup_reps: if smoke { 1 } else { 3 },
            update_burst,
            counted_batches: if smoke { 100 } else { 1_000 },
        })
    };
    Some(match name {
        "kaggle_hit" => closed(spec::criteo_kaggle(), 0.10, 0),
        "tb_miss" => closed(spec::criteo_tb(), 0.0002, 0),
        "kaggle_update" => closed(spec::criteo_kaggle(), 0.10, 256),
        "avazu_serve" => Workload::Serve(ServeParams {
            dataset: spec::avazu(),
            cache_fraction: 0.05,
            max_batch: 32,
            offered_load: 80_000.0,
            warmup_requests: if smoke { 10_000 } else { 50_000 },
        }),
        _ => return None,
    })
}

/// The common set-up: full Fleche with checksums on (the hardened serving
/// configuration, so `verify_hits` is on the measured path) over the
/// procedural DRAM store, a simulated T4, the paper's DCN.
pub fn build_engine(ds: &DatasetSpec, cache_fraction: f64, probe: Probe) -> InferenceEngine<Timed> {
    let config = FlecheConfig {
        checksums: true,
        ..FlecheConfig::full(cache_fraction)
    };
    let store = CpuStore::new(ds, DramSpec::xeon_6252());
    let inner = FlecheSystem::new(ds, store, config);
    let dense = DenseModel::dcn_paper(InferenceEngine::<Timed>::concat_dim(ds));
    InferenceEngine::new(
        Gpu::new(DeviceSpec::t4()),
        Timed { inner, probe },
        dense,
        ModelMode::Full,
        ds,
    )
}

/// Flat-key width `build_engine` uses, for the twin.
pub fn key_bits() -> u32 {
    FlecheConfig::default().key_bits
}
