//! Figure 15 / Exp #7: benefits of the workflow optimizations — the
//! baseline (flat cache + fusion, coupled) vs +decoupling vs +unified
//! index — across batch sizes, on the Avazu-like workload at 5% cache.
//!
//! Run: `cargo run --release -p fleche-bench -- fig15_workflow [--quick]`

use crate::{batch_sizes, fmt_ns, print_header, Args, SystemKind, TextTable};
use fleche_gpu::Ns;
use fleche_model::ModelMode;
use fleche_workload::TraceGenerator;

fn embedding_latency(kind: SystemKind, bs: usize, quick: bool) -> Ns {
    let ds = fleche_workload::spec::avazu();
    let mut eng = crate::build_engine(kind, &ds, 0.05, ModelMode::EmbeddingOnly, 2);
    let mut gen = TraceGenerator::new(&ds);
    // This experiment is about steady-state workflow costs, so warm until
    // the cache and the unified-index tuner have both settled (the paper
    // measures a long-warmed serving system).
    // Warm counts are in batches (tuner decisions are per batch), so they
    // do not shrink with batch size.
    let (warm, meas) = if quick { (50, 8) } else { (120, 12) };
    eng.warmup(&mut gen, warm, bs);
    let run = eng.measure(&mut gen, meas, bs);
    run.embedding.mean()
}

pub(crate) fn main(args: &Args) {
    print_header("Fig 15 (Exp #7): decoupling + unified index (Avazu-like, 5% cache)");
    let mut t = TextTable::new(&[
        "batch",
        "Baseline (fused, coupled)",
        "+Decoupling",
        "+Unified Index",
        "decoupling gain",
        "UI gain",
    ]);
    for bs in batch_sizes(args.quick) {
        let base = embedding_latency(SystemKind::FlecheFused, bs, args.quick);
        let dec = embedding_latency(SystemKind::FlecheNoUnified, bs, args.quick);
        let full = embedding_latency(SystemKind::FlecheFull, bs, args.quick);
        t.row(&[
            bs.to_string(),
            fmt_ns(base),
            fmt_ns(dec),
            fmt_ns(full),
            format!("-{:.1}%", (1.0 - dec.as_ns() / base.as_ns()) * 100.0),
            format!("-{:.1}%", (1.0 - full.as_ns() / dec.as_ns()) * 100.0),
        ]);
    }
    println!("{}", t.render());
    println!("paper: decoupling helps most at small batches (GPU query dominates,");
    println!("15-20% there); the unified index helps most at large batches (DRAM");
    println!("query dominates, 33-41% there).");
}
