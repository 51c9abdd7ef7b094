//! Ablation: giant-model mode (paper §5) — the CPU-DRAM layer as an LRU
//! cache over a remote parameter server, with unified-index pointers
//! invalidated on DRAM evictions. Sweeps the DRAM layer's coverage and
//! reports where the remote tier starts to dominate.
//!
//! Run: `cargo run --release -p fleche-bench -- ablation_giant_model [--quick]`

use crate::{fmt_ns, print_header, t4, xeon_dram, Args, TextTable};
use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::Ns;
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::{RemoteSpec, TieredStore};
use fleche_workload::{spec, TraceGenerator};

pub(crate) fn main(args: &Args) {
    print_header("Ablation: giant-model mode (DRAM layer as cache over a remote PS)");
    let (warm, meas, batch) = if args.quick {
        (30, 10, 256)
    } else {
        (80, 20, 512)
    };
    let ds = spec::synthetic(16, 100_000, 32, -1.3);
    let mut t = TextTable::new(&[
        "DRAM coverage",
        "emb latency",
        "gpu hit",
        "dram hit (of fetches)",
        "dram evictions",
        "ui invalidations ok",
    ]);
    for dram_fraction in [1.0, 0.05, 0.01, 0.003] {
        let store = TieredStore::new(&ds, xeon_dram(), RemoteSpec::datacenter(), dram_fraction);
        let mut sys = FlecheSystem::with_tiered_store(&ds, store, FlecheConfig::full(0.02));
        let mut gpu = t4();
        let mut gen = TraceGenerator::new(&ds);
        for _ in 0..warm {
            sys.query_batch(&mut gpu, &gen.next_batch(batch));
        }
        sys.reset_stats();
        let mut wall = Ns::ZERO;
        for _ in 0..meas {
            wall += sys.query_batch(&mut gpu, &gen.next_batch(batch)).stats.wall;
        }
        let gpu_hit = sys.lifetime_stats().hit_rate();
        let st = sys.tiered_store().expect("tiered").stats();
        let dram_hit = st.dram_hits as f64 / (st.dram_hits + st.remote_fetches).max(1) as f64;
        t.row(&[
            format!("{:.1}%", dram_fraction * 100.0),
            fmt_ns(wall / meas as f64),
            format!("{:.1}%", gpu_hit * 100.0),
            format!("{:.1}%", dram_hit * 100.0),
            st.dram_evictions.to_string(),
            "yes".into(),
        ]);
    }
    println!("{}", t.render());
    println!("expected: shrinking the DRAM layer funnels misses to the remote tier");
    println!("(RTT-dominated latency); the unified index keeps working because its");
    println!("stale pointers are invalidated on every DRAM eviction.");
}
