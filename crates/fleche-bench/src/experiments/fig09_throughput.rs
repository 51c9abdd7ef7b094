//! Figure 9 / Exp #1: overall throughput — end-to-end and embedding-only —
//! for HugeCTR-like vs Fleche (with and without the unified index), on the
//! three dataset shapes, batch sizes 32..8192.
//!
//! Run: `cargo run --release -p fleche-bench -- fig09_throughput [--quick]`

use crate::{
    batch_sizes, concat_dim, fmt_tput, paper_datasets, print_header, run_workload, Args,
    SystemKind, TextTable,
};
use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu, Ns};
use fleche_model::{
    serve, serve_concurrent, ConcurrentConfig, DenseModel, InferenceEngine, ModelMode, ServerConfig,
};
use fleche_store::CpuStore;
use fleche_workload::{spec, TraceGenerator};

/// Serial open-loop server vs the pipelined multi-worker front-end, on
/// the simulated clock only (no pacing): the concurrent path adds engine
/// replicas, so aggregate simulated service capacity scales with workers
/// while each replica keeps the serial per-batch cost model.
fn front_end_comparison() {
    println!("--- serving front-end: serial vs concurrent (simulated) ---");
    let build = |_worker: usize| {
        let ds = spec::synthetic(8, 30_000, 16, -1.3);
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.05));
        let dense = DenseModel::dcn_paper(concat_dim(&ds));
        (
            InferenceEngine::new(
                Gpu::new(DeviceSpec::t4()),
                sys,
                dense,
                ModelMode::EmbeddingOnly,
                &ds,
            ),
            TraceGenerator::new(&ds),
        )
    };
    let cfg = ServerConfig {
        offered_load: 1_500_000.0,
        max_batch: 256,
        requests: 60_000,
        warmup_requests: 20_000,
        queue_capacity: None,
        deadline: None,
    };
    let mut t = TextTable::new(&["front-end", "served", "sim tput", "p99"]);
    let (mut eng, mut gen) = build(0);
    let serial = serve(&mut eng, &mut gen, &cfg);
    t.row(&[
        "serial serve".to_string(),
        serial.served.to_string(),
        fmt_tput(serial.achieved),
        format!("{:.0} us", serial.latency.p99().as_us()),
    ]);
    for workers in [1usize, 4] {
        let mut ccfg = ConcurrentConfig::mirror_serial(&cfg, workers);
        ccfg.linger = Some(Ns::from_us(1_200.0));
        let run = serve_concurrent(build, &ccfg);
        let p99 = run
            .workers
            .iter()
            .map(|w| w.run.latency.p99())
            .fold(Ns::ZERO, Ns::max);
        t.row(&[
            format!("concurrent x{workers}"),
            run.served().to_string(),
            fmt_tput(run.sim_achieved()),
            format!("{:.0} us", p99.as_us()),
        ]);
    }
    println!("{}", t.render());
    println!("(wall-clock scaling is measured by the serve_scaling drill)");
}

pub(crate) fn main(args: &Args) {
    print_header("Fig 9 (Exp #1): overall throughput improvement");
    for mode in [ModelMode::Full, ModelMode::EmbeddingOnly] {
        let label = match mode {
            ModelMode::Full => "end-to-end",
            ModelMode::EmbeddingOnly => "embedding only",
        };
        for (ds, fraction) in paper_datasets() {
            println!(
                "--- {label}, {} (cache {:.1}%) ---",
                ds.name,
                fraction * 100.0
            );
            let mut t = TextTable::new(&[
                "batch",
                "HugeCTR",
                "Fleche w/o UI",
                "Fleche",
                "speedup w/o UI",
                "speedup",
            ]);
            for bs in batch_sizes(args.quick) {
                let tput = |kind| {
                    let run = run_workload(kind, &ds, fraction, mode, bs);
                    match mode {
                        ModelMode::Full => run.throughput(),
                        ModelMode::EmbeddingOnly => run.embedding_throughput(),
                    }
                };
                let base = tput(SystemKind::Baseline);
                let no_ui = tput(SystemKind::FlecheNoUnified);
                let full = tput(SystemKind::FlecheFull);
                t.row(&[
                    bs.to_string(),
                    fmt_tput(base),
                    fmt_tput(no_ui),
                    fmt_tput(full),
                    format!("{:.2}x", no_ui / base),
                    format!("{:.2}x", full / base),
                ]);
            }
            println!("{}", t.render());
        }
    }
    front_end_comparison();
    println!("paper: end-to-end 1.1-2.4x; embedding-only 2.7-5.4x (w/ UI), gains shrink");
    println!("as batch grows (embedding share of total time shrinks).");
}
