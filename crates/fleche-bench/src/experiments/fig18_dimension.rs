//! Figure 18 / Exp #10: impact of the embedding dimension (16/32/64/96)
//! on embedding-layer latency, both systems, synthetic workload.
//!
//! Run: `cargo run --release -p fleche-bench -- fig18_dimension [--quick]`

use crate::{fmt_ns, print_header, scaled_batches, Args, SystemKind, TextTable};
use fleche_gpu::Ns;
use fleche_model::ModelMode;
use fleche_workload::{spec, TraceGenerator};

fn latency(kind: SystemKind, dim: u32, fraction: f64, bs: usize) -> Ns {
    let ds = spec::synthetic(40, 250_000, dim, -1.2);
    let mut eng = crate::build_engine(kind, &ds, fraction, ModelMode::EmbeddingOnly);
    let mut gen = TraceGenerator::new(&ds);
    let (warm, meas) = scaled_batches(bs);
    eng.warmup(&mut gen, warm, bs);
    eng.measure(&mut gen, meas, bs).embedding.mean()
}

pub(crate) fn main(_args: &Args) {
    print_header("Fig 18 (Exp #10): impact of embedding dimension (synthetic, batch 1024)");
    let bs = 1024;
    for fraction in [0.10, 0.05] {
        println!("--- cache size {:.0}% ---", fraction * 100.0);
        let mut t = TextTable::new(&["dim", "HugeCTR", "Fleche", "speedup"]);
        for dim in [16u32, 32, 64, 96] {
            let base = latency(SystemKind::Baseline, dim, fraction, bs);
            let fl = latency(SystemKind::FlecheFull, dim, fraction, bs);
            t.row(&[
                dim.to_string(),
                fmt_ns(base),
                fmt_ns(fl),
                format!("{:.2}x", base.as_ns() / fl.as_ns()),
            ]);
        }
        println!("{}", t.render());
    }
    println!("paper: larger dims slow both systems (more copy bytes); Fleche stays");
    println!("1.2-1.9x ahead; dim 16 and 32 perform alike on GPU (memory coalescing),");
    println!("differing only in the small DRAM part.");
}
