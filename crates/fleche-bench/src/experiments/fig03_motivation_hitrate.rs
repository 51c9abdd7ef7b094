//! Figure 3 (motivation): hit-rate gap between the HugeCTR-like static
//! per-table cache and the Optimal oracle, on Avazu-like and
//! Criteo-Kaggle-like workloads at 20/10/5% cache sizes.
//!
//! Run: `cargo run --release -p fleche-bench -- fig03_motivation_hitrate`

use crate::{build_engine, print_header, Args, SystemKind, TextTable};
use fleche_model::ModelMode;
use fleche_workload::{analytic_optimal_hit_rate, TraceGenerator};

pub(crate) fn main(args: &Args) {
    print_header("Fig 3: cache hit rate of the per-table scheme vs Optimal");
    let (warm, meas, batch) = if args.quick {
        (60, 30, 512)
    } else {
        (250, 80, 1024)
    };

    let mut t = TextTable::new(&["dataset", "cache", "Optimal", "HugeCTR", "gap"]);
    for ds in [
        fleche_workload::spec::avazu(),
        fleche_workload::spec::criteo_kaggle(),
    ] {
        for fraction in [0.20, 0.10, 0.05] {
            let optimal = analytic_optimal_hit_rate(&ds, ds.cache_bytes(fraction));

            let mut eng = build_engine(
                SystemKind::Baseline,
                &ds,
                fraction,
                ModelMode::EmbeddingOnly,
                2,
            );
            let mut gen = TraceGenerator::new(&ds);
            eng.warmup(&mut gen, warm, batch);
            let run = eng.measure(&mut gen, meas, batch);
            let hugectr = run.lifetime.hit_rate();

            t.row(&[
                ds.name.into(),
                format!("{:.0}%", fraction * 100.0),
                format!("{:.1}%", optimal * 100.0),
                format!("{:.1}%", hugectr * 100.0),
                format!("{:.1}pp", (optimal - hugectr) * 100.0),
            ]);
        }
    }
    println!("{}", t.render());
    println!("paper: gap reaches 29% (Avazu) and ~42% (Criteo-Kaggle) at 5% cache;");
    println!("expected shape: gap widens as the cache shrinks.");
}
