//! Shape-level assertions of the paper's headline claims at test scale:
//! the qualitative results every figure harness reproduces in full must
//! already hold in miniature, so regressions surface in `cargo test`.

use fleche_baseline::{BaselineConfig, PerTableCacheSystem};
use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu, Ns};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::CpuStore;
use fleche_workload::{spec, DatasetSpec, TraceGenerator, WorkloadStats};

fn warm_and_measure(
    sys: &mut dyn EmbeddingCacheSystem,
    gpu: &mut Gpu,
    ds: &DatasetSpec,
    warm: usize,
    measure: usize,
    batch: usize,
) -> (Ns, f64) {
    let mut gen = TraceGenerator::new(ds);
    for _ in 0..warm {
        sys.query_batch(gpu, &gen.next_batch(batch));
    }
    sys.reset_stats();
    let mut wall = Ns::ZERO;
    for _ in 0..measure {
        wall += sys.query_batch(gpu, &gen.next_batch(batch)).stats.wall;
    }
    (wall / measure as f64, sys.lifetime_stats().hit_rate())
}

fn fleche(ds: &DatasetSpec, config: FlecheConfig) -> (FlecheSystem, Gpu) {
    let store = CpuStore::new(ds, DramSpec::xeon_6252());
    (
        FlecheSystem::new(ds, store, config),
        Gpu::new(DeviceSpec::t4()),
    )
}

fn baseline(ds: &DatasetSpec, fraction: f64) -> (PerTableCacheSystem, Gpu) {
    let store = CpuStore::new(ds, DramSpec::xeon_6252());
    (
        PerTableCacheSystem::new(
            ds,
            store,
            BaselineConfig {
                cache_fraction: fraction,
                ..BaselineConfig::default()
            },
        ),
        Gpu::new(DeviceSpec::t4()),
    )
}

/// Issue 1 (paper §2.2 / Fig 3): the static per-table cache leaves a hit
/// rate gap to the Optimal oracle; flat cache closes most of it.
#[test]
fn flat_cache_closes_the_hit_rate_gap() {
    let ds = spec::criteo_kaggle();
    let fraction = 0.05;

    // Optimal hit rate over the measured window.
    let mut gen = TraceGenerator::new(&ds);
    let mut census = WorkloadStats::new();
    for _ in 0..18 {
        census.observe(&gen.next_batch(256));
    }
    let dims: Vec<u32> = ds.tables.iter().map(|t| t.dim).collect();
    let optimal = census.optimal_hit_rate(ds.cache_bytes(fraction), |t| dims[t as usize]);

    let (mut b, mut gb) = baseline(&ds, fraction);
    let (_, hit_base) = warm_and_measure(&mut b, &mut gb, &ds, 12, 6, 256);
    let (mut f, mut gf) = fleche(&ds, FlecheConfig::full(fraction));
    let (_, hit_fleche) = warm_and_measure(&mut f, &mut gf, &ds, 12, 6, 256);

    assert!(
        optimal > hit_base + 0.05,
        "per-table cache should trail optimal: optimal {optimal:.3} vs baseline {hit_base:.3}"
    );
    assert!(
        hit_fleche > hit_base,
        "flat cache must beat per-table: {hit_fleche:.3} vs {hit_base:.3}"
    );
}

/// Issue 2 (paper §2.2 / Fig 4): with many tables, most of the baseline's
/// cache-query time is maintenance, not execution.
#[test]
fn maintenance_dominates_with_many_tables() {
    let ds = spec::synthetic(40, 10_000, 32, -1.2);
    let (mut sys, mut gpu) = baseline(&ds, 0.05);
    let mut gen = TraceGenerator::new(&ds);
    for _ in 0..6 {
        sys.query_batch(&mut gpu, &gen.next_batch(250));
    }
    gpu.clear_timeline();
    let t0 = gpu.now();
    sys.query_batch(&mut gpu, &gen.next_batch(250));
    let wall = gpu.now() - t0;
    let busy = gpu.device_busy(t0, gpu.now());
    let maintenance = wall - busy;
    assert!(
        maintenance > busy,
        "40 tables: maintenance ({maintenance}) should exceed execution ({busy})"
    );
}

/// §3.2 / Fig 14: fused query latency stays nearly flat as table count
/// grows, while the per-table baseline's grows.
#[test]
fn fusion_flattens_the_table_count_curve() {
    let run = |n_tables: usize, fused: bool| -> Ns {
        let ds = spec::synthetic(n_tables, 4_000, 16, -1.2);
        if fused {
            let (mut sys, mut gpu) = fleche(&ds, FlecheConfig::without_unified_index(0.05));
            warm_and_measure(&mut sys, &mut gpu, &ds, 6, 4, 200).0
        } else {
            let (mut sys, mut gpu) = baseline(&ds, 0.05);
            warm_and_measure(&mut sys, &mut gpu, &ds, 6, 4, 200).0
        }
    };
    let base_growth = run(48, false).as_ns() / run(6, false).as_ns();
    let fleche_growth = run(48, true).as_ns() / run(6, true).as_ns();
    assert!(
        base_growth > fleche_growth * 1.5,
        "baseline growth {base_growth:.2}x vs fleche {fleche_growth:.2}x"
    );
}

/// §3.3: each workflow stage improves the embedding latency at batch scale
/// (the Fig 16 cumulative ordering).
#[test]
fn technique_stack_is_cumulative() {
    let ds = spec::criteo_kaggle();
    let mut walls = Vec::new();
    for config in [
        FlecheConfig::flat_cache_only(0.05),
        FlecheConfig::with_fusion(0.05),
        FlecheConfig::full(0.05),
    ] {
        let (mut sys, mut gpu) = fleche(&ds, config);
        let (wall, _) = warm_and_measure(&mut sys, &mut gpu, &ds, 10, 6, 512);
        walls.push(wall);
    }
    assert!(
        walls[1] < walls[0],
        "+fusion ({}) must beat +FC ({})",
        walls[1],
        walls[0]
    );
    assert!(
        walls[2] < walls[0],
        "full fleche ({}) must beat +FC ({})",
        walls[2],
        walls[0]
    );
}

/// End-to-end: Fleche outperforms the baseline on all three dataset shapes
/// at the paper's cache fractions.
#[test]
fn fleche_wins_on_all_three_datasets() {
    for (ds, fraction) in [
        (spec::avazu(), 0.05),
        (spec::criteo_kaggle(), 0.05),
        (spec::criteo_tb(), 0.005),
    ] {
        let (mut b, mut gb) = baseline(&ds, fraction);
        let (wall_b, _) = warm_and_measure(&mut b, &mut gb, &ds, 8, 4, 256);
        let (mut f, mut gf) = fleche(&ds, FlecheConfig::full(fraction));
        let (wall_f, _) = warm_and_measure(&mut f, &mut gf, &ds, 8, 4, 256);
        let speedup = wall_b.as_ns() / wall_f.as_ns();
        assert!(
            speedup > 1.2,
            "{}: speedup {speedup:.2} (fleche {wall_f}, baseline {wall_b})",
            ds.name
        );
    }
}
