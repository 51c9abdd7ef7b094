//! Prints the measured characteristics of each dataset generator — table
//! count, reuse factor, hot-set concentration, per-table shares — so the
//! Table-2 shape claims in DESIGN.md can be audited against what the
//! generators actually emit.
//!
//! Run: `cargo run --release -p fleche-bench -- workload_report [--quick]`

use crate::{print_header, Args, TextTable};
use fleche_workload::{analytic_optimal_hit_rate, TraceGenerator, WorkloadStats};

pub(crate) fn main(args: &Args) {
    print_header("Workload report: generator characteristics vs Table 2 shapes");
    let (batches, batch) = if args.quick { (40, 512) } else { (150, 1024) };
    let mut t = TextTable::new(&[
        "dataset",
        "#tbls",
        "ids/sample",
        "distinct seen",
        "reuse",
        "top-1% share",
        "top-10% share",
        "Opt@5%",
    ]);
    for ds in [
        fleche_workload::spec::avazu(),
        fleche_workload::spec::criteo_kaggle(),
        fleche_workload::spec::criteo_tb(),
        fleche_workload::spec::synthetic_default(),
    ] {
        let mut gen = TraceGenerator::new(&ds);
        let mut st = WorkloadStats::new();
        for _ in 0..batches {
            st.observe(&gen.next_batch(batch));
        }
        t.row(&[
            ds.name.into(),
            ds.table_count().to_string(),
            ds.ids_per_sample().to_string(),
            st.distinct().to_string(),
            format!("{:.1}x", st.reuse_factor()),
            format!("{:.1}%", st.head_share(0.01) * 100.0),
            format!("{:.1}%", st.head_share(0.10) * 100.0),
            format!(
                "{:.1}%",
                analytic_optimal_hit_rate(&ds, ds.cache_bytes(0.05)) * 100.0
            ),
        ]);
    }
    println!("{}", t.render());

    // Per-table detail for one dataset: the heterogeneity size-aware
    // coding exploits.
    let ds = fleche_workload::spec::avazu();
    let mut gen = TraceGenerator::new(&ds);
    let mut st = WorkloadStats::new();
    for _ in 0..batches {
        st.observe(&gen.next_batch(batch));
    }
    println!("--- per-table detail: {} ---", ds.name);
    let mut t = TextTable::new(&[
        "table",
        "corpus",
        "alpha",
        "access share",
        "corpus coverage",
    ]);
    let shares = st.table_shares();
    let coverage = st.corpus_coverage(&ds);
    for (i, tbl) in ds.tables.iter().enumerate().take(8) {
        t.row(&[
            i.to_string(),
            tbl.corpus.to_string(),
            format!("{:.2}", tbl.alpha),
            format!("{:.1}%", shares[i] * 100.0),
            format!("{:.1}%", coverage[i] * 100.0),
        ]);
    }
    println!("{}", t.render());
    println!("(first 8 tables; corpora span orders of magnitude while access");
    println!("shares stay comparable — the users-vs-cities asymmetry.)");
}
