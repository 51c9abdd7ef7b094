//! The end-to-end inference engine.
//!
//! Drives a full DLRM inference over any [`EmbeddingCacheSystem`]: batch →
//! dedup/cache/DRAM (inside the cache system) → pooling → dense layers.
//! Every experiment harness measures through this engine so both cache
//! systems see identical plumbing.

use crate::dense::DenseModel;
use crate::latency::{throughput, LatencyRecorder};
use fleche_gpu::{Gpu, KernelDesc, Ns};
use fleche_store::api::{BatchStats, EmbeddingCacheSystem};
use fleche_store::pooling_kernel_work;
use fleche_workload::{Batch, DatasetSpec, TraceGenerator};

/// Timing of one inference batch.
#[derive(Clone, Copy, Debug)]
pub struct InferenceTiming {
    /// Embedding phase (cache + DRAM + restore) wall time.
    pub embedding: Ns,
    /// Pooling + dense (cross/MLP) wall time.
    pub dense: Ns,
    /// Total batch wall time.
    pub total: Ns,
    /// Counters from the embedding phase.
    pub stats: BatchStats,
}

/// What the engine runs after the embedding phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelMode {
    /// Full model: pooling + cross/MLP (end-to-end figures).
    Full,
    /// Embedding layers only (the paper's "embedding only" figures).
    EmbeddingOnly,
}

/// The inference engine.
pub struct InferenceEngine<S: EmbeddingCacheSystem> {
    gpu: Gpu,
    system: S,
    dense: DenseModel,
    mode: ModelMode,
    spec: DatasetSpec,
}

impl<S: EmbeddingCacheSystem> InferenceEngine<S> {
    /// Builds an engine. `dense` should take
    /// [`concat_dim`](DatasetSpec::table_count)-wide inputs; use
    /// [`InferenceEngine::concat_dim`] to size it.
    pub fn new(
        gpu: Gpu,
        system: S,
        dense: DenseModel,
        mode: ModelMode,
        spec: &DatasetSpec,
    ) -> Self {
        InferenceEngine {
            gpu,
            system,
            dense,
            mode,
            spec: spec.clone(),
        }
    }

    /// Width of the concatenated pooled-embedding vector for a dataset
    /// (one pooled vector per table).
    pub fn concat_dim(spec: &DatasetSpec) -> u32 {
        spec.tables.iter().map(|t| t.dim).sum()
    }

    /// The cache system under test.
    pub fn system(&self) -> &S {
        &self.system
    }

    /// Mutable access to the cache system (for reset between phases).
    pub fn system_mut(&mut self) -> &mut S {
        &mut self.system
    }

    /// The simulated device.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Mutable access to the simulated device (the serving layer advances
    /// its clock across idle gaps).
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    /// Mutable access to the cache system and the device together, for
    /// out-of-band work between batches that needs both (e.g. staging
    /// online update pushes, which cost simulated device time).
    pub fn system_and_gpu_mut(&mut self) -> (&mut S, &mut Gpu) {
        (&mut self.system, &mut self.gpu)
    }

    /// Runs one batch and returns its timing.
    pub fn run_batch(&mut self, batch: &Batch) -> InferenceTiming {
        let t0 = self.gpu.now();
        let out = self.system.query_batch(&mut self.gpu, batch);
        self.finish_batch(batch, out, t0)
    }

    /// Runs one batch whose dedup mapping a pipelined prep stage already
    /// computed on another host thread. Simulated timing is bit-identical
    /// to [`InferenceEngine::run_batch`] (the same host cost is charged);
    /// only real wall time moves off this thread.
    pub fn run_batch_prepared(
        &mut self,
        batch: &Batch,
        prepared: fleche_store::Deduped,
    ) -> InferenceTiming {
        let t0 = self.gpu.now();
        let out = self
            .system
            .query_batch_prepared(&mut self.gpu, batch, prepared);
        self.finish_batch(batch, out, t0)
    }

    fn finish_batch(
        &mut self,
        batch: &Batch,
        out: fleche_store::api::QueryOutput,
        t0: Ns,
    ) -> InferenceTiming {
        let t_emb = self.gpu.now();

        let mut dense_time = Ns::ZERO;
        if self.mode == ModelMode::Full && !batch.is_empty() {
            // Pooling kernel: every embedding row reduced per (sample,
            // table).
            let total_vectors = batch.total_ids() as u64;
            let output_rows = (batch.len() * self.spec.table_count()) as u64;
            let mean_dim = self.spec.tables.iter().map(|t| t.dim as u64).sum::<u64>()
                / self.spec.table_count() as u64;
            let pool_kernel = KernelDesc::new(
                "pooling",
                (total_vectors as u32).max(256),
                pooling_kernel_work(total_vectors, output_rows, mean_dim as u32),
            );
            let s = self.gpu.default_stream();
            self.gpu.launch(s, pool_kernel);
            self.gpu.sync_stream(s);
            dense_time += self.dense.run(&mut self.gpu, s, batch.len() as u64);
            let _ = &out.rows;
        }
        let total = self.gpu.now() - t0;
        InferenceTiming {
            embedding: t_emb - t0,
            dense: dense_time,
            total,
            stats: out.stats,
        }
    }

    /// Warm the cache with `batches` batches of `batch_size` (statistics
    /// are reset afterwards).
    pub fn warmup(&mut self, gen: &mut TraceGenerator, batches: usize, batch_size: usize) {
        for _ in 0..batches {
            let b = gen.next_batch(batch_size);
            self.run_batch(&b);
        }
        self.system.reset_stats();
    }

    /// Measures `batches` batches; returns aggregate results.
    pub fn measure(
        &mut self,
        gen: &mut TraceGenerator,
        batches: usize,
        batch_size: usize,
    ) -> MeasuredRun {
        let mut emb = LatencyRecorder::new();
        let mut total = LatencyRecorder::new();
        let mut dense = LatencyRecorder::new();
        let t0 = self.gpu.now();
        let mut samples = 0u64;
        for _ in 0..batches {
            let b = gen.next_batch(batch_size);
            samples += b.len() as u64;
            let t = self.run_batch(&b);
            emb.record(t.embedding);
            dense.record(t.dense);
            total.record(t.total);
        }
        let elapsed = self.gpu.now() - t0;
        MeasuredRun {
            samples,
            elapsed,
            embedding: emb,
            dense,
            total,
            lifetime: self.system.lifetime_stats(),
        }
    }
}

/// Aggregate results of a measurement run.
#[derive(Debug)]
pub struct MeasuredRun {
    /// Inference samples processed.
    pub samples: u64,
    /// Simulated wall time of the whole run.
    pub elapsed: Ns,
    /// Per-batch embedding latencies.
    pub embedding: LatencyRecorder,
    /// Per-batch dense latencies.
    pub dense: LatencyRecorder,
    /// Per-batch total latencies.
    pub total: LatencyRecorder,
    /// Cache counters over the run.
    pub lifetime: fleche_store::api::LifetimeStats,
}

impl MeasuredRun {
    /// End-to-end throughput in inferences per second.
    pub fn throughput(&self) -> f64 {
        throughput(self.samples, self.elapsed)
    }

    /// Embedding-only throughput (samples over embedding time).
    pub fn embedding_throughput(&self) -> f64 {
        throughput(self.samples, self.embedding.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleche_baseline::{BaselineConfig, PerTableCacheSystem};
    use fleche_core::{FlecheConfig, FlecheSystem};
    use fleche_gpu::{DeviceSpec, DramSpec};
    use fleche_store::CpuStore;
    use fleche_workload::spec;

    fn dataset() -> DatasetSpec {
        spec::synthetic(12, 4_000, 16, -1.3)
    }

    fn fleche_engine(mode: ModelMode, fraction: f64) -> InferenceEngine<FlecheSystem> {
        let ds = dataset();
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let sys = FlecheSystem::new(&ds, store, FlecheConfig::full(fraction));
        let dense = DenseModel::dcn_paper(InferenceEngine::<FlecheSystem>::concat_dim(&ds));
        InferenceEngine::new(Gpu::new(DeviceSpec::t4()), sys, dense, mode, &ds)
    }

    fn baseline_engine(mode: ModelMode, fraction: f64) -> InferenceEngine<PerTableCacheSystem> {
        let ds = dataset();
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let sys = PerTableCacheSystem::new(
            &ds,
            store,
            BaselineConfig {
                cache_fraction: fraction,
                ..BaselineConfig::default()
            },
        );
        let dense = DenseModel::dcn_paper(InferenceEngine::<PerTableCacheSystem>::concat_dim(&ds));
        InferenceEngine::new(Gpu::new(DeviceSpec::t4()), sys, dense, mode, &ds)
    }

    #[test]
    fn timings_decompose() {
        let ds = dataset();
        let mut eng = fleche_engine(ModelMode::Full, 0.05);
        let mut gen = TraceGenerator::new(&ds);
        let t = eng.run_batch(&gen.next_batch(128));
        assert!(t.embedding > Ns::ZERO);
        assert!(t.dense > Ns::ZERO);
        assert!(t.total >= t.embedding + t.dense);
    }

    #[test]
    fn embedding_only_skips_dense() {
        let ds = dataset();
        let mut eng = fleche_engine(ModelMode::EmbeddingOnly, 0.05);
        let mut gen = TraceGenerator::new(&ds);
        let t = eng.run_batch(&gen.next_batch(128));
        assert_eq!(t.dense, Ns::ZERO);
    }

    #[test]
    fn measure_aggregates() {
        let ds = dataset();
        let mut eng = fleche_engine(ModelMode::Full, 0.1);
        let mut gen = TraceGenerator::new(&ds);
        eng.warmup(&mut gen, 4, 128);
        let run = eng.measure(&mut gen, 6, 128);
        assert_eq!(run.samples, 6 * 128);
        assert!(run.throughput() > 0.0);
        assert!(run.embedding_throughput() >= run.throughput());
        assert_eq!(run.lifetime.batches, 6);
    }

    #[test]
    fn fleche_beats_baseline_on_many_tables() {
        // The headline claim at a modest scale: same cache budget, same
        // workload, Fleche's embedding phase is faster.
        let ds = dataset();
        let mut gen_a = TraceGenerator::new(&ds);
        let mut gen_b = TraceGenerator::new(&ds);

        let mut fleche = fleche_engine(ModelMode::EmbeddingOnly, 0.05);
        fleche.warmup(&mut gen_a, 8, 256);
        let f = fleche.measure(&mut gen_a, 8, 256);

        let mut base = baseline_engine(ModelMode::EmbeddingOnly, 0.05);
        base.warmup(&mut gen_b, 8, 256);
        let b = base.measure(&mut gen_b, 8, 256);

        let speedup = f.embedding_throughput() / b.embedding_throughput();
        assert!(
            speedup > 1.3,
            "expected Fleche ahead, speedup {speedup:.2} (fleche {:.0}/s, baseline {:.0}/s)",
            f.embedding_throughput(),
            b.embedding_throughput()
        );
    }

    #[test]
    fn fleche_hit_rate_at_least_baseline() {
        let ds = dataset();
        let mut gen_a = TraceGenerator::new(&ds);
        let mut gen_b = TraceGenerator::new(&ds);
        let mut fleche = fleche_engine(ModelMode::EmbeddingOnly, 0.05);
        fleche.warmup(&mut gen_a, 10, 256);
        let f = fleche.measure(&mut gen_a, 6, 256);
        let mut base = baseline_engine(ModelMode::EmbeddingOnly, 0.05);
        base.warmup(&mut gen_b, 10, 256);
        let b = base.measure(&mut gen_b, 6, 256);
        assert!(
            f.lifetime.hit_rate() + 0.02 >= b.lifetime.hit_rate(),
            "fleche hit rate {:.3} vs baseline {:.3}",
            f.lifetime.hit_rate(),
            b.lifetime.hit_rate()
        );
    }
}
