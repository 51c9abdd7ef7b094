//! Figure 19 / Exp #11: impact of the embedding-table count at a fixed
//! total of 100K queried IDs, both systems, 5% and 10% caches.
//!
//! Run: `cargo run --release -p fleche-bench -- fig19_table_count [--quick]`

use crate::{fmt_ns, print_header, Args, SystemKind, TextTable};
use fleche_gpu::Ns;
use fleche_model::ModelMode;
use fleche_workload::{spec, TraceGenerator};

fn latency(kind: SystemKind, n_tables: usize, fraction: f64) -> Ns {
    let ds = spec::synthetic(n_tables, 250_000, 32, -1.2);
    let batch = (100_000 / n_tables).max(1);
    let mut eng = crate::build_engine(kind, &ds, fraction, ModelMode::EmbeddingOnly);
    let mut gen = TraceGenerator::new(&ds);
    eng.warmup(&mut gen, 4, batch);
    let mut total = Ns::ZERO;
    let reps = 3;
    for _ in 0..reps {
        let (emb, _, _, _) = eng.run_one(&mut gen, batch);
        total += emb;
    }
    total / reps as f64
}

pub(crate) fn main(args: &Args) {
    print_header("Fig 19 (Exp #11): impact of table count (100K IDs total)");
    let counts: Vec<usize> = if args.quick {
        vec![1, 10, 40, 60]
    } else {
        vec![1, 5, 10, 20, 30, 40, 50, 60]
    };
    for fraction in [0.05, 0.10] {
        println!("--- cache size {:.0}% ---", fraction * 100.0);
        let mut t = TextTable::new(&["#tables", "HugeCTR", "Fleche", "speedup"]);
        for &n in &counts {
            let base = latency(SystemKind::Baseline, n, fraction);
            let fl = latency(SystemKind::FlecheFull, n, fraction);
            t.row(&[
                n.to_string(),
                fmt_ns(base),
                fmt_ns(fl),
                format!("{:.2}x", base.as_ns() / fl.as_ns()),
            ]);
        }
        println!("{}", t.render());
    }
    println!("paper: 1.8-2.2x except at a single table (no maintenance overhead to");
    println!("remove there); Fleche's own slight growth comes from per-table output");
    println!("bookkeeping.");
}
