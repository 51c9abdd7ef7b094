//! The HugeCTR-like per-table cache system.
//!
//! Query workflow exactly as the paper describes the baseline (§2.2): one
//! *coupled* index+copy kernel per cache table, each on its own stream;
//! sync; fetch missing ID lists to the host; query the CPU-DRAM layer;
//! copy missing embeddings back and insert them. The per-table kernel
//! count is what produces the kernel-maintenance overhead Fleche removes.

use crate::table_cache::TableCache;
use fleche_gpu::{CopyApi, Gpu, KernelDesc, KernelWork, Ns};
use fleche_index::SLAB_WIDTH;
use fleche_store::api::{
    dedup_charged, BatchStats, EmbeddingCacheSystem, LifetimeStats, PhaseBreakdown, QueryOutput,
};
use fleche_store::CpuStore;
use fleche_workload::{Batch, DatasetSpec};

/// Host-side cost of preparing one kernel's argument set (building the ID
/// list pointer, output offsets, etc.).
const PER_KERNEL_PREP: Ns = Ns(300.0);
/// Copy API for small metadata transfers. The paper equips HugeCTR with
/// GDRCopy too, for fairness.
const METADATA_COPY: CopyApi = CopyApi::GdrCopy;

/// Configuration of the baseline system.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Fraction of total embedding bytes given to the cache (the paper's
    /// "cache size = 5%" convention, applied per table).
    pub cache_fraction: f64,
    /// Replay the per-table query kernels from a captured CUDA graph
    /// instead of launching them individually (the paper's cudaGraph
    /// ablation in §2.2).
    pub use_cuda_graph: bool,
}

impl Default for BaselineConfig {
    fn default() -> BaselineConfig {
        BaselineConfig {
            cache_fraction: 0.05,
            use_cuda_graph: false,
        }
    }
}

/// The per-table cache system.
pub struct PerTableCacheSystem {
    caches: Vec<TableCache>,
    store: CpuStore,
    config: BaselineConfig,
    clock: u32,
    lifetime: LifetimeStats,
}

impl PerTableCacheSystem {
    /// Builds per-table caches sized at `config.cache_fraction` of each
    /// table's corpus, over `store` as the CPU-DRAM layer.
    pub fn new(spec: &DatasetSpec, store: CpuStore, config: BaselineConfig) -> PerTableCacheSystem {
        let caches = spec
            .tables
            .iter()
            .map(|t| {
                let slots = ((t.corpus as f64) * config.cache_fraction).ceil() as u32;
                TableCache::new(slots.max(1), t.dim)
            })
            .collect();
        PerTableCacheSystem {
            caches,
            store,
            config,
            clock: 0,
            lifetime: LifetimeStats::default(),
        }
    }

    /// Total device bytes used by all cache tables.
    pub fn device_bytes(&self) -> u64 {
        self.caches.iter().map(TableCache::device_bytes).sum()
    }

    /// The CPU-DRAM layer.
    pub fn store(&self) -> &CpuStore {
        &self.store
    }
}

impl EmbeddingCacheSystem for PerTableCacheSystem {
    fn name(&self) -> &'static str {
        if self.config.use_cuda_graph {
            "hugectr-like (cudaGraph)"
        } else {
            "hugectr-like"
        }
    }

    fn query_batch(&mut self, gpu: &mut Gpu, batch: &Batch) -> QueryOutput {
        self.clock += 1;
        let t_start = gpu.now();
        let mut phases = PhaseBreakdown::default();

        // Dedup (charged as "other").
        let o0 = gpu.now();
        let dedup = dedup_charged(gpu, batch);
        let per_table = dedup.unique_per_table();
        phases.other += gpu.now() - o0;

        // Per-table coupled index+copy kernels, one stream each.
        let n = self.caches.len();
        let streams = gpu.streams(n.max(1));
        let q0 = gpu.now();
        let mut lookups = Vec::with_capacity(n);
        let mut kernels: Vec<(usize, KernelDesc)> = Vec::new();
        let mut index_bytes = 0u64;
        let mut copy_bytes = 0u64;
        for (t, keys) in per_table.iter().enumerate() {
            if keys.is_empty() {
                lookups.push(Default::default());
                continue;
            }
            gpu.elapse_host("kernel-args", PER_KERNEL_PREP);
            let look = self.caches[t].lookup_batch(keys, self.clock);
            let dim = self.caches[t].dim();
            let hit_copy_bytes = look.hits.len() as u64 * dim as u64 * 4 * 2;
            index_bytes += look.stats.bytes_touched;
            copy_bytes += hit_copy_bytes;
            // Coupled kernel: the chain walk plus the in-lock copy rounds
            // (a warp moves 32 floats per round while holding the slot
            // lock); queries sharing a bucket serialize behind each
            // other's in-lock copies.
            let copy_rounds = dim.div_ceil(SLAB_WIDTH as u32);
            let contention =
                (keys.len() as u32).div_ceil(self.caches[t].bucket_count().max(1) as u32);
            let work = KernelWork {
                global_bytes: look.stats.bytes_touched + hit_copy_bytes,
                flops: 0,
                dependent_rounds: look.stats.max_chain + copy_rounds * (1 + contention) + 1,
                shared_accesses: 0,
            };
            let threads = (keys.len() as u32) * SLAB_WIDTH as u32;
            kernels.push((t, KernelDesc::new("pt-query", threads, work)));
            lookups.push(look);
        }
        if self.config.use_cuda_graph {
            let descs: Vec<KernelDesc> = kernels.iter().map(|(_, k)| k.clone()).collect();
            let used: Vec<_> = kernels.iter().map(|&(t, _)| streams[t]).collect();
            if !descs.is_empty() {
                gpu.launch_graph(&used, descs);
            }
        } else {
            for (t, k) in kernels {
                gpu.launch(streams[t], k);
            }
        }
        gpu.sync_all();
        // Split the coupled-query span between index and copy in
        // proportion to their traffic (the kernel cannot be split).
        let q_span = gpu.now() - q0;
        let total_b = (index_bytes + copy_bytes).max(1);
        phases.cache_index += q_span * (index_bytes as f64 / total_b as f64);
        phases.cache_copy += q_span * (copy_bytes as f64 / total_b as f64);

        // Snapshot hit embeddings *now*: the coupled kernel copies them out
        // during the query, so a replacement later in this batch that
        // recycles a victim slot must not change what this batch returns.
        let hit_rows: Vec<Vec<(u16, u64, Vec<f32>)>> = per_table
            .iter()
            .zip(&lookups)
            .enumerate()
            .map(|(t, (keys, look))| {
                look.hits
                    .iter()
                    .map(|&(pos, slot)| {
                        (t as u16, keys[pos], self.caches[t].read_slot(slot).to_vec())
                    })
                    .collect()
            })
            .collect();

        // Missing lists to host: one small D2H copy per table with misses.
        let m0 = gpu.now();
        let mut missing_keys: Vec<(u16, u64)> = Vec::new();
        for (t, (keys, look)) in per_table.iter().zip(&lookups).enumerate() {
            if look.missing.is_empty() {
                continue;
            }
            gpu.copy_blocking(
                "missing-ids-d2h",
                look.missing.len() as u64 * 8,
                METADATA_COPY,
            );
            for &pos in &look.missing {
                missing_keys.push((t as u16, keys[pos]));
            }
        }
        phases.dram_index += gpu.now() - m0;

        // CPU-DRAM layer query for all missing keys.
        let d0 = gpu.now();
        let (missing_rows, dram_cost) = self.store.query_batch(&missing_keys);
        gpu.elapse_host("dram-query", dram_cost);
        // Attribute: probe-dominated part to index, payload to payload.
        let payload = self.store.payload_cost(&missing_keys);
        let span = gpu.now() - d0;
        phases.dram_payload += payload.min(span);
        phases.dram_index += span.saturating_sub(payload);

        // Copy missing embeddings up and insert them (one H2D + one insert
        // kernel per table with misses).
        let r0 = gpu.now();
        let mut row_cursor = 0usize;
        for (t, (keys, look)) in per_table.iter().zip(&lookups).enumerate() {
            if look.missing.is_empty() {
                continue;
            }
            let dim = self.caches[t].dim();
            let bytes = look.missing.len() as u64 * dim as u64 * 4;
            gpu.copy_blocking("missing-emb-h2d", bytes, CopyApi::CudaMemcpy);
            let mut stats = fleche_index::ProbeStats::new();
            for &pos in &look.missing {
                let row = &missing_rows[row_cursor];
                row_cursor += 1;
                let s = self.caches[t].insert(keys[pos], row, self.clock);
                stats.merge(&s);
            }
            let work = KernelWork {
                global_bytes: stats.bytes_touched + bytes,
                flops: 0,
                dependent_rounds: stats.max_chain + 1,
                shared_accesses: 0,
            };
            gpu.launch(
                streams[t],
                KernelDesc::new(
                    "pt-insert",
                    (look.missing.len() as u32) * SLAB_WIDTH as u32,
                    work,
                ),
            );
        }
        gpu.sync_all();
        phases.dram_payload += gpu.now() - r0;

        // Assemble unique rows (hits from cache, misses from DRAM), then
        // restore the per-access matrix.
        let a0 = gpu.now();
        let mut unique_rows: Vec<Vec<f32>> = vec![Vec::new(); dedup.unique_len()];
        // Map (table, key) -> unique index for assembly.
        let mut uidx = std::collections::HashMap::with_capacity(dedup.unique_len());
        for (u, &(t, id)) in dedup.unique.iter().enumerate() {
            uidx.insert((t, id), u);
        }
        let mut hits = 0u64;
        for table_hits in &hit_rows {
            for (t, key, row) in table_hits {
                hits += 1;
                unique_rows[uidx[&(*t, *key)]] = row.clone();
            }
        }
        for (&(t, id), row) in missing_keys.iter().zip(&missing_rows) {
            unique_rows[uidx[&(t, id)]] = row.clone();
        }
        let rows = dedup.restore(&unique_rows);
        let dims: Vec<u32> = (0..self.caches.len() as u16)
            .map(|t| self.caches[t as usize].dim())
            .collect();
        let restore_work = dedup.restore_kernel_work(&dims);
        let s = gpu.default_stream();
        gpu.launch(
            s,
            KernelDesc::new("restore", batch.total_ids() as u32, restore_work),
        );
        gpu.sync_stream(s);
        phases.other += gpu.now() - a0;

        let stats = BatchStats {
            unique_keys: dedup.unique_len() as u64,
            hits,
            unified_hits: 0,
            misses: missing_keys.len() as u64,
            wall: gpu.now() - t_start,
            phases,
            ..BatchStats::default()
        };
        self.lifetime.observe(&stats);
        QueryOutput { rows, stats }
    }

    fn lifetime_stats(&self) -> LifetimeStats {
        self.lifetime
    }

    fn reset_stats(&mut self) {
        self.lifetime = LifetimeStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleche_gpu::{DeviceSpec, DramSpec};
    use fleche_workload::{spec, TraceGenerator};

    fn setup(fraction: f64) -> (Gpu, PerTableCacheSystem, TraceGenerator) {
        let ds = spec::synthetic(8, 5_000, 16, -1.3);
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let sys = PerTableCacheSystem::new(
            &ds,
            store,
            BaselineConfig {
                cache_fraction: fraction,
                ..BaselineConfig::default()
            },
        );
        (Gpu::new(DeviceSpec::t4()), sys, TraceGenerator::new(&ds))
    }

    #[test]
    fn returns_ground_truth_rows() {
        let (mut gpu, mut sys, mut gen) = setup(0.05);
        let truth = CpuStore::new(&spec::synthetic(8, 5_000, 16, -1.3), DramSpec::xeon_6252());
        for _ in 0..3 {
            let batch = gen.next_batch(64);
            let out = sys.query_batch(&mut gpu, &batch);
            assert_eq!(out.rows.len(), batch.total_ids());
            let mut k = 0;
            for (t, ids) in batch.table_ids.iter().enumerate() {
                for &id in ids {
                    assert_eq!(out.rows[k], truth.read(t as u16, id), "row {k}");
                    k += 1;
                }
            }
        }
    }

    #[test]
    fn hit_rate_grows_with_warmup() {
        let (mut gpu, mut sys, mut gen) = setup(0.2);
        let cold = sys.query_batch(&mut gpu, &gen.next_batch(256)).stats;
        assert_eq!(cold.hits, 0, "cold cache has no hits");
        for _ in 0..10 {
            sys.query_batch(&mut gpu, &gen.next_batch(256));
        }
        let warm = sys.query_batch(&mut gpu, &gen.next_batch(256)).stats;
        assert!(warm.hit_rate() > 0.4, "warmed hit rate {}", warm.hit_rate());
    }

    #[test]
    fn bigger_cache_means_higher_hit_rate() {
        let run = |fraction| {
            let (mut gpu, mut sys, mut gen) = setup(fraction);
            for _ in 0..8 {
                sys.query_batch(&mut gpu, &gen.next_batch(256));
            }
            sys.reset_stats();
            for _ in 0..4 {
                sys.query_batch(&mut gpu, &gen.next_batch(256));
            }
            sys.lifetime_stats().hit_rate()
        };
        let small = run(0.02);
        let large = run(0.3);
        assert!(large > small, "large {large} <= small {small}");
    }

    #[test]
    fn wall_time_advances_and_phases_account() {
        let (mut gpu, mut sys, mut gen) = setup(0.05);
        let out = sys.query_batch(&mut gpu, &gen.next_batch(128));
        assert!(out.stats.wall > Ns::ZERO);
        let p = out.stats.phases;
        // Phase attribution should roughly cover the wall time.
        assert!(p.total() > out.stats.wall * 0.5);
        assert!(p.total() <= out.stats.wall * 1.5);
        assert!(p.cache_index > Ns::ZERO);
        assert!(p.dram_index + p.dram_payload > Ns::ZERO);
    }

    #[test]
    fn more_tables_cost_more_maintenance() {
        let wall_for = |n_tables: usize| {
            let ds = spec::synthetic(n_tables, 2_000, 16, -1.2);
            let store = CpuStore::new(&ds, DramSpec::xeon_6252());
            let mut sys = PerTableCacheSystem::new(&ds, store, BaselineConfig::default());
            let mut gpu = Gpu::new(DeviceSpec::t4());
            let mut gen = TraceGenerator::new(&ds);
            // Warm, then measure.
            for _ in 0..6 {
                sys.query_batch(&mut gpu, &gen.next_batch(128));
            }
            sys.query_batch(&mut gpu, &gen.next_batch(128)).stats.wall
        };
        let few = wall_for(4);
        let many = wall_for(40);
        assert!(
            many > few * 2.0,
            "40 tables ({many}) should cost much more than 4 ({few})"
        );
    }

    #[test]
    fn cuda_graph_reduces_wall_time() {
        let run = |graph: bool| {
            let ds = spec::synthetic(32, 2_000, 16, -1.2);
            let store = CpuStore::new(&ds, DramSpec::xeon_6252());
            let mut sys = PerTableCacheSystem::new(
                &ds,
                store,
                BaselineConfig {
                    use_cuda_graph: graph,
                    ..BaselineConfig::default()
                },
            );
            let mut gpu = Gpu::new(DeviceSpec::t4());
            let mut gen = TraceGenerator::new(&ds);
            for _ in 0..6 {
                sys.query_batch(&mut gpu, &gen.next_batch(128));
            }
            sys.query_batch(&mut gpu, &gen.next_batch(128)).stats.wall
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn lifetime_stats_accumulate_and_reset() {
        let (mut gpu, mut sys, mut gen) = setup(0.1);
        sys.query_batch(&mut gpu, &gen.next_batch(32));
        sys.query_batch(&mut gpu, &gen.next_batch(32));
        assert_eq!(sys.lifetime_stats().batches, 2);
        sys.reset_stats();
        assert_eq!(sys.lifetime_stats().batches, 0);
    }

    #[test]
    fn device_bytes_respect_fraction() {
        let ds = spec::synthetic(8, 5_000, 16, -1.3);
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let sys = PerTableCacheSystem::new(
            &ds,
            store,
            BaselineConfig {
                cache_fraction: 0.1,
                ..BaselineConfig::default()
            },
        );
        let value_bytes = (ds.total_param_bytes() as f64 * 0.1) as u64;
        // Index overhead exists but should be bounded.
        assert!(sys.device_bytes() >= value_bytes);
        assert!(sys.device_bytes() < value_bytes * 3);
    }
}
