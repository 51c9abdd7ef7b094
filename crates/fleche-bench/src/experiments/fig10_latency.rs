//! Figure 10 / Exp #2: throughput vs median and P99 latency of the
//! embedding layer for both systems on the three dataset shapes. The
//! offered load is swept by batch size (the paper's x-axis is achieved
//! throughput).
//!
//! Run: `cargo run --release -p fleche-bench -- fig10_latency [--quick]`

use crate::{
    batch_sizes, fmt_ns, fmt_tput, paper_datasets, print_header, run_workload, Args, SystemKind,
    TextTable,
};
use fleche_model::ModelMode;

pub(crate) fn main(args: &Args) {
    print_header("Fig 10 (Exp #2): embedding-layer throughput vs median/P99 latency");
    for (ds, fraction) in paper_datasets() {
        println!("--- {} (cache {:.1}%) ---", ds.name, fraction * 100.0);
        let mut t = TextTable::new(&["system", "batch", "throughput", "median", "p99"]);
        for kind in [SystemKind::Baseline, SystemKind::FlecheFull] {
            for bs in batch_sizes(args.quick) {
                let run = run_workload(kind, &ds, fraction, ModelMode::EmbeddingOnly, bs);
                t.row(&[
                    kind.label().into(),
                    bs.to_string(),
                    fmt_tput(run.embedding_throughput()),
                    fmt_ns(run.embedding.median()),
                    fmt_ns(run.embedding.p99()),
                ]);
            }
        }
        println!("{}", t.render());
    }
    println!("paper: at equal latency Fleche sustains several times the throughput");
    println!("(e.g. ~4.2x at 1 ms median on Avazu); at equal throughput its latency");
    println!("is up to an order of magnitude lower.");
}
