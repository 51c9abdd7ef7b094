//! Figure 16 / Exp #8: contributions of each technique to embedding
//! latency, cumulatively (HugeCTR -> +FC -> +Fusion -> +Opt), with the
//! phase breakdown (cache query / DRAM query / other) on all three
//! dataset shapes.
//!
//! Run: `cargo run --release -p fleche-bench -- fig16_breakdown [--quick]`

use crate::{fmt_ns, paper_datasets, print_header, scaled_batches, Args, SystemKind, TextTable};
use fleche_gpu::Ns;
use fleche_model::ModelMode;
use fleche_store::api::PhaseBreakdown;
use fleche_workload::{DatasetSpec, TraceGenerator};

fn run_stage(kind: SystemKind, ds: &DatasetSpec, fraction: f64, bs: usize) -> (Ns, PhaseBreakdown) {
    let mut eng = crate::build_engine(kind, ds, fraction, ModelMode::EmbeddingOnly, 2);
    let mut gen = TraceGenerator::new(ds);
    let (warm, meas) = scaled_batches(bs);
    eng.warmup(&mut gen, warm, bs);
    let mut wall = Ns::ZERO;
    let mut phases = PhaseBreakdown::default();
    for _ in 0..meas {
        let t = eng.run_batch(&gen.next_batch(bs));
        wall += t.embedding;
        phases.accumulate(&t.stats.phases);
    }
    let n = meas as f64;
    (
        wall / n,
        PhaseBreakdown {
            cache_index: phases.cache_index / n,
            cache_copy: phases.cache_copy / n,
            dram_index: phases.dram_index / n,
            dram_payload: phases.dram_payload / n,
            other: phases.other / n,
        },
    )
}

pub(crate) fn main(args: &Args) {
    print_header("Fig 16 (Exp #8): cumulative technique contributions + phase breakdown");
    let sweep: Vec<usize> = if args.quick {
        vec![64, 1024, 8192]
    } else {
        vec![32, 128, 512, 2048, 8192]
    };
    let stages = [
        SystemKind::Baseline,
        SystemKind::FlecheFlatCacheOnly,
        SystemKind::FlecheFused,
        SystemKind::FlecheFull,
    ];
    for (ds, fraction) in paper_datasets() {
        println!("--- {} (cache {:.1}%) ---", ds.name, fraction * 100.0);
        let mut t = TextTable::new(&[
            "batch",
            "stage",
            "latency",
            "cache query",
            "dram query",
            "other",
            "vs prev",
        ]);
        for &bs in &sweep {
            let mut prev: Option<Ns> = None;
            for kind in stages {
                let (wall, p) = run_stage(kind, &ds, fraction, bs);
                let delta = prev
                    .map(|pr| format!("-{:.1}%", (1.0 - wall.as_ns() / pr.as_ns()) * 100.0))
                    .unwrap_or_else(|| "-".to_string());
                t.row(&[
                    bs.to_string(),
                    kind.label().into(),
                    fmt_ns(wall),
                    fmt_ns(p.cache_index + p.cache_copy),
                    fmt_ns(p.dram_index + p.dram_payload),
                    fmt_ns(p.other),
                    delta,
                ]);
                prev = Some(wall);
            }
        }
        println!("{}", t.render());
    }
    println!("paper: +FC cuts DRAM-layer time via hit rate (4-32%); +Fusion removes");
    println!("most cache-query time (64-92% of it); +Opt cuts the remainder, for");
    println!("60-80% cumulative end-to-end reduction.");
}
