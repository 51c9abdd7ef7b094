//! Exports Chrome-trace timelines of one warmed batch on each system so
//! the host/device interleaving can be inspected in chrome://tracing or
//! Perfetto: the baseline's serialized per-table launches vs Fleche's
//! single fused kernel, and the decoupled copy kernel overlapping the
//! CPU-DRAM query.
//!
//! Run: `cargo run --release -p fleche-bench -- simulator_trace`
//! Output: `results/trace_{baseline,fleche}.json`

use crate::{build_engine, print_header, Args, SystemKind};
use fleche_gpu::to_chrome_trace;
use fleche_model::ModelMode;
use fleche_store::api::EmbeddingCacheSystem;
use fleche_workload::{spec, TraceGenerator};
use std::process::ExitCode;

fn trace_one(kind: SystemKind, path: &str) -> std::io::Result<()> {
    let ds = spec::avazu();
    let mut eng = build_engine(kind, &ds, 0.05, ModelMode::EmbeddingOnly, 2);
    let mut gen = TraceGenerator::new(&ds);
    // Query the system itself rather than run engine batches, so the
    // window holds the embedding query's spans and nothing else.
    let (sys, gpu) = eng.system_and_gpu_mut();
    for _ in 0..10 {
        sys.query_batch(gpu, &gen.next_batch(512));
    }
    gpu.clear_timeline();
    let t0 = gpu.now();
    sys.query_batch(gpu, &gen.next_batch(512));
    std::fs::create_dir_all("results")?;
    std::fs::write(path, to_chrome_trace(gpu.timeline(), t0, gpu.now()))
}

pub(crate) fn main(_args: &Args) -> ExitCode {
    print_header("Chrome-trace export: one warmed batch per system (Avazu-like, 512)");
    for (kind, path) in [
        (SystemKind::Baseline, "results/trace_baseline.json"),
        (SystemKind::FlecheFull, "results/trace_fleche.json"),
    ] {
        match trace_one(kind, path) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("\nopen chrome://tracing (or https://ui.perfetto.dev) and load the");
    println!("files: lane 0 is the host (launches, syncs, DRAM queries), lane 1");
    println!("the device. Compare the baseline's ladder of per-table launches with");
    println!("Fleche's single fused kernel and overlapped DRAM query.");
    ExitCode::SUCCESS
}
