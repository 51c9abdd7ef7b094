//! End-to-end integration: both cache systems over the real dataset
//! generators, checked against the ground-truth store byte for byte, plus
//! cross-system invariants (counter consistency, warm-up behaviour).

use fleche_baseline::{BaselineConfig, PerTableCacheSystem};
use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::CpuStore;
use fleche_workload::{spec, DatasetSpec, TraceGenerator};

fn check_rows(
    sys: &mut dyn EmbeddingCacheSystem,
    gpu: &mut Gpu,
    ds: &DatasetSpec,
    batches: usize,
    batch_size: usize,
) {
    let truth = CpuStore::new(ds, DramSpec::xeon_6252());
    let mut gen = TraceGenerator::new(ds);
    for bi in 0..batches {
        let batch = gen.next_batch(batch_size);
        let out = sys.query_batch(gpu, &batch);
        assert_eq!(out.rows.len(), batch.total_ids());
        let mut k = 0;
        for (t, ids) in batch.table_ids.iter().enumerate() {
            for &id in ids {
                assert_eq!(
                    out.rows[k],
                    truth.read(t as u16, id),
                    "{} batch {bi} row {k} (table {t}, id {id})",
                    sys.name()
                );
                k += 1;
            }
        }
        // Counter partition invariant.
        let s = out.stats;
        assert_eq!(s.hits + s.unified_hits + s.misses, s.unique_keys);
    }
}

#[test]
fn fleche_serves_ground_truth_on_avazu_like() {
    let ds = spec::avazu();
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.05));
    let mut gpu = Gpu::new(DeviceSpec::t4());
    check_rows(&mut sys, &mut gpu, &ds, 4, 96);
}

#[test]
fn fleche_serves_ground_truth_on_criteo_tb_like_dims() {
    // 128-dim embeddings exercise the multi-round copy paths.
    let ds = spec::criteo_tb();
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.005));
    let mut gpu = Gpu::new(DeviceSpec::t4());
    check_rows(&mut sys, &mut gpu, &ds, 3, 48);
}

#[test]
fn baseline_serves_ground_truth_on_criteo_kaggle_like() {
    let ds = spec::criteo_kaggle();
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = PerTableCacheSystem::new(
        &ds,
        store,
        BaselineConfig {
            cache_fraction: 0.05,
            ..BaselineConfig::default()
        },
    );
    let mut gpu = Gpu::new(DeviceSpec::t4());
    check_rows(&mut sys, &mut gpu, &ds, 4, 96);
}

#[test]
fn every_fleche_variant_serves_ground_truth() {
    let ds = spec::criteo_kaggle();
    for config in [
        FlecheConfig::flat_cache_only(0.05),
        FlecheConfig::with_fusion(0.05),
        FlecheConfig::without_unified_index(0.05),
        FlecheConfig::full(0.05),
    ] {
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let mut sys = FlecheSystem::new(&ds, store, config);
        let mut gpu = Gpu::new(DeviceSpec::t4());
        check_rows(&mut sys, &mut gpu, &ds, 3, 64);
    }
}

#[test]
fn correctness_survives_heavy_eviction_pressure() {
    // Tiny cache + full admission: constant churn, constant eviction, and
    // every returned row must still match the store.
    let ds = spec::avazu();
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(
        &ds,
        store,
        FlecheConfig {
            cache: fleche_core::FlatCacheConfig {
                admission_probability: 1.0,
                evict_high_watermark: 0.7,
                evict_low_watermark: 0.3,
                ..Default::default()
            },
            ..FlecheConfig::full(0.002)
        },
    );
    let mut gpu = Gpu::new(DeviceSpec::t4());
    check_rows(&mut sys, &mut gpu, &ds, 6, 128);
    assert!(
        sys.cache().evict_passes() > 0,
        "pressure must trigger eviction"
    );
}

#[test]
fn correctness_survives_hotspot_drift() {
    let ds = spec::avazu();
    let truth = CpuStore::new(&ds, DramSpec::xeon_6252());
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.02));
    let mut gpu = Gpu::new(DeviceSpec::t4());
    let mut gen = TraceGenerator::with_drift(&ds, Some(512));
    for _ in 0..8 {
        let batch = gen.next_batch(128);
        let out = sys.query_batch(&mut gpu, &batch);
        let mut k = 0;
        for (t, ids) in batch.table_ids.iter().enumerate() {
            for &id in ids {
                assert_eq!(out.rows[k], truth.read(t as u16, id));
                k += 1;
            }
        }
    }
}

#[test]
fn simulated_clocks_are_monotone_across_systems() {
    let ds = spec::avazu();
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.05));
    let mut gpu = Gpu::new(DeviceSpec::t4());
    let mut gen = TraceGenerator::new(&ds);
    let mut last = gpu.now();
    for _ in 0..5 {
        sys.query_batch(&mut gpu, &gen.next_batch(64));
        assert!(gpu.now() > last, "time must advance every batch");
        last = gpu.now();
    }
}

/// FNV-1a over a stream of `u64` words — the golden-digest fold.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// 60 batches of a fixed synthetic spec (two dims, one multi-hot table, one
/// tiny table, a cache small enough that 56 of the 60 batches run an
/// eviction pass and the unified index fills) through `FlecheConfig::full`
/// with checksums on, folding every `BatchStats` field's bits and every
/// served row into one digest. With `updates`, a trainer burst is committed and
/// pushed before every batch.
fn golden_digest(updates: bool) -> u64 {
    use fleche_store::UpdateStream;
    let mut ds = spec::synthetic(6, 3_000, 16, -1.2);
    ds.tables[1].dim = 32;
    ds.tables[2].multi_hot = 3;
    ds.tables[4].corpus = 40;
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(
        &ds,
        store,
        FlecheConfig {
            checksums: true,
            ..FlecheConfig::full(0.05)
        },
    );
    let mut gpu = Gpu::new(DeviceSpec::t4());
    let mut gen = TraceGenerator::new(&ds);
    let mut stream = UpdateStream::new(&ds, 17);
    let mut h = Fnv::new();
    for _ in 0..60 {
        if updates {
            let burst = stream.next_burst(48);
            sys.commit_updates(&mut gpu, &burst);
            sys.push_updates(&mut gpu, &burst);
        }
        let batch = gen.next_batch(128);
        let out = sys.query_batch(&mut gpu, &batch);
        let s = out.stats;
        for w in [
            s.unique_keys,
            s.hits,
            s.unified_hits,
            s.misses,
            s.failed_keys,
            s.stale_keys,
            s.corrupt_detected,
            u64::from(s.degraded),
            s.wall.0.to_bits(),
            s.phases.cache_index.0.to_bits(),
            s.phases.cache_copy.0.to_bits(),
            s.phases.dram_index.0.to_bits(),
            s.phases.dram_payload.0.to_bits(),
            s.phases.other.0.to_bits(),
        ] {
            h.word(w);
        }
        h.word(out.rows.len() as u64);
        for row in &out.rows {
            h.word(row.len() as u64);
            for v in row {
                h.word(u64::from(v.to_bits()));
            }
        }
    }
    h.word(gpu.now().0.to_bits());
    h.word(sys.cache().evict_passes());
    h.word(sys.cache().unified_count());
    h.0
}

/// The simulated clock and the served rows cannot move without this test
/// saying so: both constants were captured at the commit before the query
/// path was rebuilt (prefetch-pipelined probe, slot-indexed metadata, flat
/// dedup table, view-based restore), and every later change to that path
/// must reproduce them.
#[test]
fn golden_digest_pins_simulated_clock_and_rows() {
    assert_eq!(golden_digest(false), 0xB725_39E9_778C_6A18, "read-only run");
    assert_eq!(
        golden_digest(true),
        0xAA78_BEA9_1893_E195,
        "run under an update stream"
    );
}
