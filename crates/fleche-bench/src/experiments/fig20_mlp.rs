//! Figure 20 / Exp #12: impact of MLP depth (2-5 hidden layers of 1024
//! units) on end-to-end latency, split into embedding vs MLP time, batch
//! 256, Avazu-like and Criteo-Kaggle-like workloads.
//!
//! Run: `cargo run --release -p fleche-bench -- fig20_mlp [--quick]`

use crate::{build_engine, fmt_ns, print_header, Args, SystemKind, TextTable};
use fleche_gpu::Ns;
use fleche_model::ModelMode;
use fleche_workload::{DatasetSpec, TraceGenerator};

/// Mean embedding and MLP time per batch of `kind` with `layers` hidden
/// layers.
fn run(kind: SystemKind, ds: &DatasetSpec, layers: usize) -> (Ns, Ns) {
    let (bs, meas) = (256, 8);
    let mut eng = build_engine(kind, ds, 0.05, ModelMode::Full, layers);
    let mut gen = TraceGenerator::new(ds);
    eng.warmup(&mut gen, 10, bs);
    let (mut emb, mut mlp) = (Ns::ZERO, Ns::ZERO);
    for _ in 0..meas {
        let t = eng.run_batch(&gen.next_batch(bs));
        emb += t.embedding;
        mlp += t.dense;
    }
    (emb / meas as f64, mlp / meas as f64)
}

pub(crate) fn main(_args: &Args) {
    print_header("Fig 20 (Exp #12): impact of MLP depth (batch 256, 5% cache)");
    for ds in [
        fleche_workload::spec::avazu(),
        fleche_workload::spec::criteo_kaggle(),
    ] {
        println!("--- {} ---", ds.name);
        let mut t = TextTable::new(&[
            "hidden layers",
            "HugeCTR emb",
            "HugeCTR mlp",
            "Fleche emb",
            "Fleche mlp",
            "e2e speedup",
        ]);
        for layers in 2..=5 {
            let (be, bm) = run(SystemKind::Baseline, &ds, layers);
            let (fe, fm) = run(SystemKind::FlecheFull, &ds, layers);
            t.row(&[
                layers.to_string(),
                fmt_ns(be),
                fmt_ns(bm),
                fmt_ns(fe),
                fmt_ns(fm),
                format!("{:.2}x", (be + bm).as_ns() / (fe + fm).as_ns()),
            ]);
        }
        println!("{}", t.render());
    }
    println!("paper: MLP time matches across systems (techniques touch only the");
    println!("embedding part); deeper MLPs shrink the end-to-end gain, but Fleche");
    println!("stays ahead at every depth.");
}
