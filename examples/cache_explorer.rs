//! Cache design explorer: ablate Fleche's techniques one at a time on one
//! workload and watch each design decision's contribution, including the
//! unified-index tuner reacting to a hotspot shift mid-run.
//!
//! Run with: `cargo run --release -p fleche-bench --example cache_explorer`

use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::CpuStore;
use fleche_workload::{spec, DiurnalSpec, TraceDynamics, TraceGenerator};

const FRACTION: f64 = 0.05;
const BATCH: usize = 512;

fn run_variant(name: &str, config: FlecheConfig) {
    let dataset = spec::criteo_kaggle();
    let store = CpuStore::new(&dataset, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(&dataset, store, config);
    let mut gpu = Gpu::new(DeviceSpec::t4());
    let mut gen = TraceGenerator::new(&dataset);
    for _ in 0..16 {
        sys.query_batch(&mut gpu, &gen.next_batch(BATCH));
    }
    sys.reset_stats();
    let mut wall = fleche_gpu::Ns::ZERO;
    for _ in 0..12 {
        wall += sys.query_batch(&mut gpu, &gen.next_batch(BATCH)).stats.wall;
    }
    let l = sys.lifetime_stats();
    println!(
        "{name:<28} {:>10}/batch   hit {:>5.1}%   unified hits {:>6}",
        wall / 12.0,
        l.hit_rate() * 100.0,
        l.unified_hits
    );
}

fn main() {
    println!("== ablating Fleche's techniques (Criteo-Kaggle-like, 5% cache) ==\n");
    run_variant("flat cache only", FlecheConfig::flat_cache_only(FRACTION));
    run_variant("+ kernel fusion", FlecheConfig::with_fusion(FRACTION));
    run_variant(
        "+ decoupled workflow",
        FlecheConfig::without_unified_index(FRACTION),
    );
    run_variant("+ unified index (full)", FlecheConfig::full(FRACTION));

    println!("\n== unified-index tuner under a hotspot shift ==\n");
    let dataset = spec::synthetic(16, 100_000, 32, -1.4);
    let store = CpuStore::new(&dataset, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(&dataset, store, FlecheConfig::full(0.02));
    let mut gpu = Gpu::new(DeviceSpec::t4());
    // Shift the hot set halfway through: a rotation that never repeats.
    let shift = TraceDynamics {
        diurnal: Some(DiurnalSpec {
            period: 40 * BATCH as u64,
            phases: u64::MAX,
        }),
        ..TraceDynamics::none()
    };
    let mut gen = TraceGenerator::with_dynamics(&dataset, shift);
    for i in 0..80 {
        let s = sys.query_batch(&mut gpu, &gen.next_batch(BATCH)).stats;
        if i % 10 == 9 {
            println!(
                "batch {:>3}: wall {:>10}  hit {:>5.1}%  tuner target {:>6} ({:?}, {} resets)",
                i + 1,
                s.wall,
                s.hit_rate() * 100.0,
                sys.tuner().target(),
                sys.tuner().state(),
                sys.tuner().resets()
            );
        }
    }
}
