//! The common interface both cache systems implement.
//!
//! The model engine and every benchmark harness drive a
//! [`EmbeddingCacheSystem`] without knowing whether it is the HugeCTR-like
//! per-table baseline or Fleche, so every experiment compares the two
//! under identical plumbing.

use crate::dedup::Deduped;
use fleche_gpu::{Gpu, Ns};
use fleche_workload::Batch;

/// Phase-attributed timing of one batch query, in the paper's taxonomy
/// (Exp #7/#8: `Cache Query = Cache Index + Cache Copy`, same for DRAM).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseBreakdown {
    /// GPU-side index lookup time (including kernel maintenance around it).
    pub cache_index: Ns,
    /// GPU-side hit-embedding copy time.
    pub cache_copy: Ns,
    /// CPU-DRAM index lookup time for missing keys.
    pub dram_index: Ns,
    /// CPU-DRAM payload read + host<->device transfer time.
    pub dram_payload: Ns,
    /// Everything else: dedup, restore, re-encoding, replacement upkeep.
    pub other: Ns,
}

impl PhaseBreakdown {
    /// Total attributed time.
    pub fn total(&self) -> Ns {
        self.cache_index + self.cache_copy + self.dram_index + self.dram_payload + self.other
    }

    /// Element-wise accumulation.
    pub fn accumulate(&mut self, o: &PhaseBreakdown) {
        self.cache_index += o.cache_index;
        self.cache_copy += o.cache_copy;
        self.dram_index += o.dram_index;
        self.dram_payload += o.dram_payload;
        self.other += o.other;
    }
}

/// Counters and timing for one batch query.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Unique keys queried after dedup.
    pub unique_keys: u64,
    /// Keys served from the GPU cache.
    pub hits: u64,
    /// Keys whose *location* was served by the unified index (payload from
    /// DRAM, but CPU-side indexing bypassed). Zero for systems without it.
    pub unified_hits: u64,
    /// Keys that required a full CPU-DRAM query.
    pub misses: u64,
    /// Keys the tiered backend could not fetch (served as zeros).
    pub failed_keys: u64,
    /// Keys served from a stale (evicted-but-unscrubbed) DRAM copy after
    /// the remote fetch failed.
    pub stale_keys: u64,
    /// Cache hits whose checksum mismatched; the entry was quarantined and
    /// the key refetched instead of serving corrupt bytes.
    pub corrupt_detected: u64,
    /// True when the circuit breaker diverted this batch to the DRAM-only
    /// degraded path (the GPU cache was not consulted).
    pub degraded: bool,
    /// Wall time of the whole batch on the host timeline.
    pub wall: Ns,
    /// Attributed phase timing.
    pub phases: PhaseBreakdown,
}

impl BatchStats {
    /// GPU cache hit rate over unique keys (unified-index hits are DRAM
    /// residents: they count as misses here, matching the paper's
    /// hit-rate metric).
    pub fn hit_rate(&self) -> f64 {
        if self.unique_keys == 0 {
            0.0
        } else {
            self.hits as f64 / self.unique_keys as f64
        }
    }
}

/// Result of one batch query.
#[derive(Debug)]
pub struct QueryOutput {
    /// One embedding row per access, in the batch's flattening order
    /// (table-major). Byte-identical to the ground-truth store.
    pub rows: Vec<Vec<f32>>,
    /// Counters and timing.
    pub stats: BatchStats,
}

/// A GPU-resident embedding cache system under test.
pub trait EmbeddingCacheSystem {
    /// Display name for harness tables.
    fn name(&self) -> &'static str;

    /// Runs one batch: dedup, cache query, DRAM fill, replacement,
    /// restore. Advances the simulated clocks of `gpu`.
    fn query_batch(&mut self, gpu: &mut Gpu, batch: &Batch) -> QueryOutput;

    /// Like [`EmbeddingCacheSystem::query_batch`], but with the dedup
    /// mapping already computed by a pipelined prep stage on another host
    /// thread. Implementations that consume `prepared` must charge the
    /// same simulated host cost as [`dedup_charged`] so results are
    /// bit-identical with and without pipelining — only *real* wall time
    /// moves off the executor thread. The default ignores the hint and
    /// recomputes.
    fn query_batch_prepared(
        &mut self,
        gpu: &mut Gpu,
        batch: &Batch,
        prepared: Deduped,
    ) -> QueryOutput {
        let _ = prepared;
        self.query_batch(gpu, batch)
    }

    /// Declares which tenant the following batches belong to, for systems
    /// that partition cache capacity per tenant. Tenant-unaware systems
    /// ignore it (the default), so multi-tenant harnesses drive every
    /// system through one code path.
    fn set_active_tenant(&mut self, tenant: usize) {
        let _ = tenant;
    }

    /// Running hit statistics since construction (or last reset).
    fn lifetime_stats(&self) -> LifetimeStats;

    /// Resets running statistics (e.g. after cache warm-up).
    fn reset_stats(&mut self);
}

/// A boxed system is a system, so a harness can pick one at run time and
/// still drive it through the generic engine and servers. Every method
/// forwards, the defaulted ones included: the defaults would drop a
/// prepared dedup or a tenant switch without a sign.
impl<S: EmbeddingCacheSystem + ?Sized> EmbeddingCacheSystem for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn query_batch(&mut self, gpu: &mut Gpu, batch: &Batch) -> QueryOutput {
        (**self).query_batch(gpu, batch)
    }

    fn query_batch_prepared(
        &mut self,
        gpu: &mut Gpu,
        batch: &Batch,
        prepared: Deduped,
    ) -> QueryOutput {
        (**self).query_batch_prepared(gpu, batch, prepared)
    }

    fn set_active_tenant(&mut self, tenant: usize) {
        (**self).set_active_tenant(tenant);
    }

    fn lifetime_stats(&self) -> LifetimeStats {
        (**self).lifetime_stats()
    }

    fn reset_stats(&mut self) {
        (**self).reset_stats();
    }
}

/// Accumulated statistics across batches.
#[derive(Clone, Copy, Debug, Default)]
pub struct LifetimeStats {
    /// Unique keys queried.
    pub unique_keys: u64,
    /// GPU cache hits.
    pub hits: u64,
    /// Unified-index location hits.
    pub unified_hits: u64,
    /// Full misses.
    pub misses: u64,
    /// Keys that could not be fetched at all (served as zeros).
    pub failed_keys: u64,
    /// Keys served from stale DRAM copies.
    pub stale_keys: u64,
    /// Corrupt cache hits detected and quarantined.
    pub corrupt_detected: u64,
    /// Batches served through the degraded (DRAM-only) path.
    pub degraded_batches: u64,
    /// Wall time of those degraded batches (time-in-degraded; drills
    /// report it alongside the count so a reader sees how long the
    /// system ran in the fallback regime, not just how often).
    pub degraded_wall: Ns,
    /// Batches served.
    pub batches: u64,
}

impl LifetimeStats {
    /// Lifetime hit rate over unique keys.
    pub fn hit_rate(&self) -> f64 {
        if self.unique_keys == 0 {
            0.0
        } else {
            self.hits as f64 / self.unique_keys as f64
        }
    }

    /// Fraction of unique keys that were actually served with real bytes
    /// (fresh or stale) rather than zero-filled after fetch failure.
    pub fn availability(&self) -> f64 {
        if self.unique_keys == 0 {
            1.0
        } else {
            1.0 - self.failed_keys as f64 / self.unique_keys as f64
        }
    }

    /// Fraction of unique keys served from stale DRAM copies.
    pub fn stale_rate(&self) -> f64 {
        if self.unique_keys == 0 {
            0.0
        } else {
            self.stale_keys as f64 / self.unique_keys as f64
        }
    }

    /// Folds one batch's counters in.
    pub fn observe(&mut self, s: &BatchStats) {
        self.unique_keys += s.unique_keys;
        self.hits += s.hits;
        self.unified_hits += s.unified_hits;
        self.misses += s.misses;
        self.failed_keys += s.failed_keys;
        self.stale_keys += s.stale_keys;
        self.corrupt_detected += s.corrupt_detected;
        if s.degraded {
            self.degraded_batches += 1;
            self.degraded_wall += s.wall;
        }
        self.batches += 1;
    }
}

/// Shared helper: dedups a batch and charges its host cost.
pub fn dedup_charged(gpu: &mut Gpu, batch: &Batch) -> Deduped {
    let d = Deduped::from_batch(batch);
    gpu.elapse_host("dedup", d.host_cost());
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_total_and_accumulate() {
        let mut a = PhaseBreakdown {
            cache_index: Ns(1.0),
            cache_copy: Ns(2.0),
            dram_index: Ns(3.0),
            dram_payload: Ns(4.0),
            other: Ns(5.0),
        };
        assert_eq!(a.total(), Ns(15.0));
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.total(), Ns(30.0));
    }

    /// Logs which methods reached it and what they were handed.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<&'static str>,
        tenant: Option<usize>,
        prepared_unique: Option<usize>,
    }

    impl EmbeddingCacheSystem for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }

        fn query_batch(&mut self, _: &mut Gpu, _: &Batch) -> QueryOutput {
            self.calls.push("query_batch");
            QueryOutput {
                rows: Vec::new(),
                stats: BatchStats::default(),
            }
        }

        fn query_batch_prepared(
            &mut self,
            _: &mut Gpu,
            _: &Batch,
            prepared: Deduped,
        ) -> QueryOutput {
            self.calls.push("query_batch_prepared");
            self.prepared_unique = Some(prepared.unique_len());
            QueryOutput {
                rows: Vec::new(),
                stats: BatchStats::default(),
            }
        }

        fn set_active_tenant(&mut self, tenant: usize) {
            self.tenant = Some(tenant);
        }

        fn lifetime_stats(&self) -> LifetimeStats {
            LifetimeStats::default()
        }

        fn reset_stats(&mut self) {
            self.calls.push("reset_stats");
        }
    }

    /// Calls through the trait bound, so a `Box` runs the `Box` impl.
    fn drive<S: EmbeddingCacheSystem>(sys: &mut S, batch: &Batch) -> &'static str {
        let mut gpu = Gpu::new(fleche_gpu::DeviceSpec::t4());
        sys.set_active_tenant(3);
        sys.query_batch_prepared(&mut gpu, batch, Deduped::from_batch(batch));
        sys.reset_stats();
        sys.name()
    }

    #[test]
    fn a_box_forwards_every_method_to_the_system_inside() {
        // Four accesses over three unique keys.
        let batch = Batch::from_table_ids(vec![vec![1, 2, 1], vec![5]]);
        let mut boxed = Box::new(Recorder::default());
        assert_eq!(drive(&mut boxed, &batch), "recorder");
        assert_eq!(boxed.calls, ["query_batch_prepared", "reset_stats"]);
        assert_eq!(boxed.tenant, Some(3));
        assert_eq!(boxed.prepared_unique, Some(3));
    }

    #[test]
    fn batch_stats_hit_rate() {
        let s = BatchStats {
            unique_keys: 10,
            hits: 7,
            ..BatchStats::default()
        };
        assert_eq!(s.hit_rate(), 0.7);
        assert_eq!(BatchStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn lifetime_accumulates() {
        let mut l = LifetimeStats::default();
        l.observe(&BatchStats {
            unique_keys: 10,
            hits: 5,
            unified_hits: 2,
            misses: 3,
            ..BatchStats::default()
        });
        l.observe(&BatchStats {
            unique_keys: 10,
            hits: 9,
            unified_hits: 0,
            misses: 1,
            ..BatchStats::default()
        });
        assert_eq!(l.batches, 2);
        assert_eq!(l.unique_keys, 20);
        assert_eq!(l.hit_rate(), 0.7);
        assert_eq!(l.unified_hits, 2);
    }
}
