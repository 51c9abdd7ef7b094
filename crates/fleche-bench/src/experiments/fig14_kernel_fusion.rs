//! Figure 14 / Exp #6: cache-query latency as the embedding-table count
//! grows, per-table kernels (HugeCTR-like) vs self-identified kernel
//! fusion (Fleche), at a fixed total of 10K queried keys.
//!
//! Run: `cargo run --release -p fleche-bench -- fig14_kernel_fusion [--quick]`

use crate::{fmt_ns, print_header, Args, SystemKind, TextTable};
use fleche_gpu::Ns;
use fleche_model::ModelMode;
use fleche_workload::{spec, TraceGenerator};

fn query_latency(kind: SystemKind, n_tables: usize, total_ids: usize, fraction: f64) -> Ns {
    let ds = spec::synthetic(n_tables, 250_000, 32, -1.2);
    let batch = (total_ids / n_tables).max(1);
    let mut eng = crate::build_engine(kind, &ds, fraction, ModelMode::EmbeddingOnly);
    let mut gen = TraceGenerator::new(&ds);
    eng.warmup(&mut gen, 6, batch);
    let mut total = Ns::ZERO;
    let reps = 4;
    for _ in 0..reps {
        let (emb, _, _, _) = eng.run_one(&mut gen, batch);
        total += emb;
    }
    total / reps as f64
}

pub(crate) fn main(args: &Args) {
    print_header("Fig 14 (Exp #6): query latency vs table count (10K keys total)");
    let counts: Vec<usize> = if args.quick {
        vec![1, 10, 40, 60]
    } else {
        vec![1, 5, 10, 15, 20, 30, 40, 50, 60]
    };
    for fraction in [0.10, 0.05] {
        println!("--- cache size {:.0}% ---", fraction * 100.0);
        let mut t = TextTable::new(&["#tables", "HugeCTR", "Fleche", "ratio"]);
        for &n in &counts {
            let base = query_latency(SystemKind::Baseline, n, 10_000, fraction);
            let fl = query_latency(SystemKind::FlecheNoUnified, n, 10_000, fraction);
            t.row(&[
                n.to_string(),
                fmt_ns(base),
                fmt_ns(fl),
                format!("{:.2}x", base.as_ns() / fl.as_ns()),
            ]);
        }
        println!("{}", t.render());
    }
    println!("paper: below ~15 tables the extra decoupled kernel can make Fleche");
    println!("slightly slower; beyond that the per-table scheme's latency climbs with");
    println!("table count while Fleche stays nearly flat.");
}
