//! Exports Chrome-trace timelines of one warmed batch on each system so
//! the host/device interleaving can be inspected in chrome://tracing or
//! Perfetto: the baseline's serialized per-table launches vs Fleche's
//! single fused kernel, and the decoupled copy kernel overlapping the
//! CPU-DRAM query.
//!
//! Run: `cargo run --release -p fleche-bench -- simulator_trace`
//! Output: `results/trace_{baseline,fleche}.json`

use crate::{build_engine, print_header, Args, SystemKind};
use fleche_gpu::{to_chrome_trace, DeviceSpec, DramSpec, Gpu, Ns};
use fleche_model::ModelMode;
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::CpuStore;
use fleche_workload::{spec, TraceGenerator};
use std::process::ExitCode;

fn trace_one(kind: SystemKind, path: &str) -> std::io::Result<()> {
    // Build the raw system (not the boxed engine) so the Gpu is reachable
    // for timeline export.
    let ds = spec::avazu();
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut gpu = Gpu::new(DeviceSpec::t4());
    let mut gen = TraceGenerator::new(&ds);
    let json = match kind {
        SystemKind::Baseline => {
            let mut sys = fleche_baseline::PerTableCacheSystem::new(
                &ds,
                store,
                fleche_baseline::BaselineConfig {
                    cache_fraction: 0.05,
                    ..fleche_baseline::BaselineConfig::default()
                },
            );
            for _ in 0..10 {
                sys.query_batch(&mut gpu, &gen.next_batch(512));
            }
            gpu.clear_timeline();
            let t0 = gpu.now();
            sys.query_batch(&mut gpu, &gen.next_batch(512));
            to_chrome_trace(gpu.timeline(), t0, gpu.now())
        }
        _ => {
            let mut sys =
                fleche_core::FlecheSystem::new(&ds, store, fleche_core::FlecheConfig::full(0.05));
            for _ in 0..10 {
                sys.query_batch(&mut gpu, &gen.next_batch(512));
            }
            gpu.clear_timeline();
            let t0 = gpu.now();
            sys.query_batch(&mut gpu, &gen.next_batch(512));
            to_chrome_trace(gpu.timeline(), t0, gpu.now())
        }
    };
    std::fs::create_dir_all("results")?;
    std::fs::write(path, json)?;
    Ok(())
}

pub(crate) fn main(_args: &Args) -> ExitCode {
    print_header("Chrome-trace export: one warmed batch per system (Avazu-like, 512)");
    // Sanity: the boxed-engine path builds too (keeps the helper honest).
    let ds = spec::synthetic(2, 100, 8, -1.2);
    let mut eng = build_engine(SystemKind::FlecheFull, &ds, 0.1, ModelMode::EmbeddingOnly);
    let mut gen = TraceGenerator::new(&ds);
    let (emb, _, _, _) = eng.run_one(&mut gen, 4);
    assert!(emb > Ns::ZERO);

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
