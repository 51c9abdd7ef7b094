//! Ablation: the probability admission filter (paper §3.1 cites the
//! McMahan et al. bloom/probability filter with parameter `p`). Sweeps `p`
//! and reports hit rate, eviction passes, and embedding latency — the
//! churn-vs-coverage trade-off the filter navigates.
//!
//! Run: `cargo run --release -p fleche-bench -- ablation_admission [--quick]`

use crate::{fmt_ns, print_header, t4, xeon_store, Args, TextTable};
use fleche_core::{FlatCacheConfig, FlecheConfig, FlecheSystem};
use fleche_gpu::Ns;
use fleche_store::api::EmbeddingCacheSystem;
use fleche_workload::{spec, TraceGenerator};

pub(crate) fn main(args: &Args) {
    print_header("Ablation: admission-filter probability sweep (Avazu-like, 5% cache)");
    let (warm, meas, batch) = if args.quick {
        (40, 10, 512)
    } else {
        (120, 30, 512)
    };
    let mut t = TextTable::new(&["p", "hit rate", "evict passes", "emb latency"]);
    for p in [0.05, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let ds = spec::avazu();
        let mut sys = FlecheSystem::new(
            &ds,
            xeon_store(&ds),
            FlecheConfig {
                cache: FlatCacheConfig {
                    admission_probability: p,
                    ..FlatCacheConfig::default()
                },
                ..FlecheConfig::full(0.05)
            },
        );
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
        t.row(&[
            format!("{p:.2}"),
            format!("{:.1}%", sys.lifetime_stats().hit_rate() * 100.0),
            sys.cache().evict_passes().to_string(),
            fmt_ns(wall / meas as f64),
        ]);
    }
    println!("{}", t.render());
    println!("expected: tiny p starves the cache (low hit rate); p=1.0 admits every");
    println!("one-hit wonder (more eviction churn). The sweet spot sits between.");
}
