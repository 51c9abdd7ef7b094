//! A bench-owned twin of the per-batch workflow, for layer attribution.
//!
//! `FlecheSystem` cannot be instrumented from outside, so the traced pass
//! drives the same public building blocks — `Deduped`, `SizeAwareCodec`,
//! `FlatCache` (checksums on), `CpuStore` — through the same batches in
//! the same pipeline order as `FlecheSystem::query_batch`, with a span
//! around each call. What the twin cannot explain is reported as
//! `core.system.unattributed_*`; how far its cache drifts from the real one
//! as `core.flat_cache.twin_hit_rate_delta`.
//!
//! The twin leaves out what has no public building block: the simulated
//! device, grouping keys by table and cloning rows (`system.rs`'s own
//! work), and online updates (they overwrite resident slots in place and
//! never change residency, so the twin's cache contents still track).

use crate::trace::Tracer;
use fleche_coding::{FlatKey, FlatKeyCodec, SizeAwareCodec};
use fleche_core::flat_cache::{CacheAnswer, FlatCache, FlatCacheConfig};
use fleche_gpu::DramSpec;
use fleche_index::ProbeStats;
use fleche_store::{CpuStore, Deduped};
use fleche_workload::{Batch, DatasetSpec};
use std::hint::black_box;

/// Work counts over the counted batches (exactly repeatable for a seed).
#[derive(Clone, Copy, Debug, Default)]
pub struct TwinCounts {
    pub batches: u64,
    pub accesses: u64,
    pub unique_keys: u64,
    pub encoded_keys: u64,
    pub hits: u64,
    pub unified_hits: u64,
    pub misses: u64,
    pub admitted: u64,
    pub fill_bytes: u64,
    pub probe: ProbeStats,
}

pub struct Twin {
    codec: SizeAwareCodec,
    cache: FlatCache,
    store: CpuStore,
    n_tables: usize,
    clock: u32,
    pub counts: TwinCounts,
}

impl Twin {
    /// Built exactly as `FlecheSystem::with_backend` builds its parts.
    pub fn new(ds: &DatasetSpec, cache_fraction: f64, key_bits: u32) -> Twin {
        let corpora: Vec<u64> = ds.tables.iter().map(|t| t.corpus).collect();
        let mut cache = FlatCache::new(
            ds,
            ds.cache_bytes(cache_fraction),
            FlatCacheConfig::default(),
        );
        cache.enable_checksums();
        Twin {
            codec: SizeAwareCodec::new(key_bits, &corpora),
            cache,
            store: CpuStore::new(ds, DramSpec::xeon_6252()),
            n_tables: ds.table_count(),
            clock: 0,
            counts: TwinCounts::default(),
        }
    }

    /// Runs one batch through the twin. `unified_target` is the real
    /// cache's current unified-index target (its tuner reacts to simulated
    /// time the twin does not have); `count` says whether this batch adds
    /// to [`TwinCounts`].
    pub fn run_batch(
        &mut self,
        batch: &Batch,
        tr: &mut Tracer,
        id: u64,
        unified_target: u64,
        count: bool,
    ) {
        self.clock += 1;
        let stamp = self.clock;
        self.cache.set_unified_target(unified_target);

        let s = tr.begin("store.dedup.from_batch", id);
        let dedup = Deduped::from_batch(batch);
        tr.end(s);
        let unique = &dedup.unique;

        let mut by_table: Vec<(Vec<usize>, Vec<u64>)> =
            vec![(Vec::new(), Vec::new()); self.n_tables];
        for (pos, &(t, f)) in unique.iter().enumerate() {
            by_table[t as usize].0.push(pos);
            by_table[t as usize].1.push(f);
        }
        let s = tr.begin("coding.codec.encode", id);
        let keys: Vec<Vec<FlatKey>> = by_table
            .iter()
            .enumerate()
            .map(|(t, (_, feats))| self.codec.encode_batch(t as u16, feats))
            .collect();
        tr.end(s);

        let s = tr.begin("core.flat_cache.lookup_batch", id);
        let found: Vec<Vec<(CacheAnswer, ProbeStats)>> = keys
            .iter()
            .map(|k| self.cache.lookup_batch(k, stamp))
            .collect();
        tr.end(s);
        let mut answers = vec![CacheAnswer::Miss; unique.len()];
        let mut probe = ProbeStats::new();
        for ((positions, _), results) in by_table.iter().zip(&found) {
            for (&pos, (ans, st)) in positions.iter().zip(results) {
                answers[pos] = *ans;
                probe.merge(st);
            }
        }

        let hits: Vec<(usize, u16, u32)> = answers
            .iter()
            .enumerate()
            .filter_map(|(pos, a)| match *a {
                CacheAnswer::Hit { class, slot } => Some((pos, class, slot)),
                _ => None,
            })
            .collect();
        let slots: Vec<(u16, u32)> = hits.iter().map(|&(_, c, s)| (c, s)).collect();
        let s = tr.begin("core.flat_cache.verify_hits", id);
        black_box(self.cache.verify_hits(&slots));
        tr.end(s);

        let guard = (!hits.is_empty()).then(|| self.cache.pin_reader());
        let mut miss_keys: Vec<(u16, u64)> = Vec::new();
        let mut unified_keys: Vec<(u16, u64)> = Vec::new();
        for (pos, &key) in unique.iter().enumerate() {
            match answers[pos] {
                CacheAnswer::Miss => miss_keys.push(key),
                CacheAnswer::UnifiedHit => unified_keys.push(key),
                CacheAnswer::Hit { .. } => {}
            }
        }
        let s = tr.begin("store.table.query_batch", id);
        let (miss_rows, _) = self.store.query_batch(&miss_keys);
        let unified_rows: Vec<Vec<f32>> = unified_keys
            .iter()
            .map(|&(t, f)| self.store.read(t, f))
            .collect();
        tr.end(s);

        let fill_pairs: Vec<(u16, u64)> = miss_keys.iter().chain(&unified_keys).copied().collect();
        let s = tr.begin("coding.codec.encode", id);
        let fill_keys = self.codec.encode_pairs(&fill_pairs);
        tr.end(s);
        let mut admitted = 0u64;
        let mut fill_bytes = 0u64;
        let s = tr.begin("core.flat_cache.insert", id);
        for (i, (&(t, f), row)) in fill_pairs
            .iter()
            .zip(miss_rows.iter().chain(&unified_rows))
            .enumerate()
        {
            fill_bytes += row.len() as u64 * 4;
            if self.cache.admit() {
                let (loc, st) = self.cache.insert_value(t, fill_keys[i], row, stamp);
                probe.merge(&st);
                admitted += u64::from(loc.is_some());
            } else {
                let st = self.cache.insert_dram_ptr(t, f, fill_keys[i], stamp);
                probe.merge(&st);
            }
        }
        tr.end(s);

        let s = tr.begin("core.flat_cache.evict", id);
        if self.cache.needs_eviction() {
            let codec = &self.codec;
            self.cache.evict_pass_with(|k| codec.decode(FlatKey(k)));
        }
        tr.end(s);

        let mut unique_rows: Vec<Vec<f32>> = vec![Vec::new(); unique.len()];
        let s = tr.begin("core.flat_cache.read_hit", id);
        for &(pos, class, slot) in &hits {
            unique_rows[pos] = self.cache.read_hit(class, slot).to_vec();
        }
        tr.end(s);
        let mut fetched = miss_rows.into_iter();
        let mut located = unified_rows.into_iter();
        for (pos, a) in answers.iter().enumerate() {
            match a {
                CacheAnswer::Miss => unique_rows[pos] = fetched.next().expect("one row per miss"),
                CacheAnswer::UnifiedHit => {
                    unique_rows[pos] = located.next().expect("one row per unified hit");
                }
                CacheAnswer::Hit { .. } => {}
            }
        }
        let s = tr.begin("store.dedup.restore", id);
        let rows = dedup.restore(&unique_rows);
        tr.end(s);
        black_box(&rows);

        if let Some(g) = guard {
            self.cache.release_reader(g);
        }
        let s = tr.begin("core.flat_cache.evict", id);
        self.cache.end_batch();
        tr.end(s);

        if count {
            let c = &mut self.counts;
            c.batches += 1;
            c.accesses += dedup.access_len() as u64;
            c.unique_keys += unique.len() as u64;
            c.encoded_keys += (unique.len() + fill_pairs.len()) as u64;
            c.hits += hits.len() as u64;
            c.unified_hits += unified_keys.len() as u64;
            c.misses += miss_keys.len() as u64;
            c.admitted += admitted;
            c.fill_bytes += fill_bytes;
            c.probe.merge(&probe);
        }
    }
}

/// The span names the twin emits, i.e. the layers that explain
/// `core.system.query_batch`.
pub const LAYER_SPANS: &[&str] = &[
    "store.dedup.from_batch",
    "coding.codec.encode",
    "core.flat_cache.lookup_batch",
    "core.flat_cache.verify_hits",
    "store.table.query_batch",
    "core.flat_cache.insert",
    "core.flat_cache.evict",
    "core.flat_cache.read_hit",
    "store.dedup.restore",
];
