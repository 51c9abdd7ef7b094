//! Figure 12 / Exp #4: cache hit rate of Optimal vs HugeCTR-like vs
//! Fleche's flat cache, on the three dataset shapes across cache sizes.
//!
//! Run: `cargo run --release -p fleche-bench -- fig12_hit_rate [--quick]`

use crate::{build_engine, print_header, Args, SystemKind, TextTable};
use fleche_model::ModelMode;
use fleche_workload::{analytic_optimal_hit_rate, TraceGenerator};

pub(crate) fn main(args: &Args) {
    print_header("Fig 12 (Exp #4): hit rate improvement brought by flat cache");
    let (warm, meas, batch) = if args.quick {
        (60, 30, 512)
    } else {
        (250, 80, 1024)
    };
    let sets: Vec<(fleche_workload::DatasetSpec, Vec<f64>)> = vec![
        (fleche_workload::spec::avazu(), vec![0.20, 0.10, 0.05]),
        (
            fleche_workload::spec::criteo_kaggle(),
            vec![0.20, 0.10, 0.05],
        ),
        (fleche_workload::spec::criteo_tb(), vec![0.02, 0.01, 0.005]),
    ];
    let mut t = TextTable::new(&[
        "dataset",
        "cache",
        "Optimal",
        "HugeCTR",
        "Fleche",
        "Fleche gain",
    ]);
    for (ds, fractions) in sets {
        for fraction in fractions {
            let optimal = analytic_optimal_hit_rate(&ds, ds.cache_bytes(fraction));

            let hit = |kind| {
                let mut eng = build_engine(kind, &ds, fraction, ModelMode::EmbeddingOnly, 2);
                let mut gen = TraceGenerator::new(&ds);
                eng.warmup(&mut gen, warm, batch);
                eng.measure(&mut gen, meas, batch).lifetime.hit_rate()
            };
            let hugectr = hit(SystemKind::Baseline);
            let fleche = hit(SystemKind::FlecheNoUnified);
            t.row(&[
                ds.name.into(),
                format!("{:.1}%", fraction * 100.0),
                format!("{:.1}%", optimal * 100.0),
                format!("{:.1}%", hugectr * 100.0),
                format!("{:.1}%", fleche * 100.0),
                format!("+{:.1}pp", (fleche - hugectr) * 100.0),
            ]);
        }
    }
    println!("{}", t.render());
    println!("paper: Fleche reaches 85-96% (close to Optimal), improving on HugeCTR by");
    println!("2-15pp (Avazu), 11-27pp (Criteo-Kaggle), 39-41pp (Criteo-TB).");
}
