//! Figure 4 (motivation): the per-table scheme's cache-query time splits
//! into kernel execution vs kernel maintenance as the cache-table count
//! grows (10K aggregate query IDs, power-law alpha = -1.2). Also repeats
//! the paper's cudaGraph ablation.
//!
//! Run: `cargo run --release -p fleche-bench -- fig04_kernel_maintenance`

use crate::{fmt_ns, print_header, Args, TextTable};
use fleche_baseline::{BaselineConfig, PerTableCacheSystem};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::CpuStore;
use fleche_workload::{spec, TraceGenerator};

/// Cache-query wall time (us). Following the paper, execution time is
/// approximated separately by the single-table measurement, since a lone
/// kernel carries all IDs with no per-table maintenance to hide.
fn measure(n_tables: usize, total_ids: usize, graph: bool) -> f64 {
    let ds = spec::synthetic(n_tables, 250_000, 32, -1.2);
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = PerTableCacheSystem::new(
        &ds,
        store,
        BaselineConfig {
            cache_fraction: 0.10,
            use_cuda_graph: graph,
        },
    );
    let mut gpu = Gpu::new(DeviceSpec::t4());
    // Spread the aggregate ID budget equally: batch = ids / tables.
    let batch = (total_ids / n_tables).max(1);
    let mut gen = TraceGenerator::new(&ds);
    for _ in 0..6 {
        sys.query_batch(&mut gpu, &gen.next_batch(batch));
    }
    gpu.clear_timeline();
    let t0 = gpu.now();
    let reps = 3;
    let mut query_wall = fleche_gpu::Ns::ZERO;
    for _ in 0..reps {
        let out = sys.query_batch(&mut gpu, &gen.next_batch(batch));
        // The paper's Fig 4 scopes to the cache-query phase, not the whole
        // batch (no DRAM fill, no restore).
        query_wall += out.stats.phases.cache_index + out.stats.phases.cache_copy;
    }
    let wall = query_wall / reps as f64;
    let _ = t0;
    wall.as_us()
}

pub(crate) fn main(args: &Args) {
    print_header("Fig 4: kernel maintenance vs execution as table count grows (10K IDs)");
    let counts: Vec<usize> = if args.quick {
        vec![1, 10, 40, 60]
    } else {
        vec![1, 5, 10, 20, 30, 40, 50, 60]
    };
    // Execution reference: the single-table latency (all work, one kernel).
    let exec_ref = measure(1, 10_000, false);
    let mut t = TextTable::new(&[
        "#tables",
        "query wall",
        "execution (approx)",
        "maintenance",
        "maint/exec",
        "wall (cudaGraph)",
    ]);
    for &n in &counts {
        let wall = measure(n, 10_000, false);
        let wall_graph = measure(n, 10_000, true);
        let maint = (wall - exec_ref).max(0.0);
        t.row(&[
            n.to_string(),
            fmt_ns(fleche_gpu::Ns(wall * 1000.0)),
            fmt_ns(fleche_gpu::Ns(exec_ref * 1000.0)),
            fmt_ns(fleche_gpu::Ns(maint * 1000.0)),
            format!("{:.2}x", maint / exec_ref.max(1e-9)),
            fmt_ns(fleche_gpu::Ns(wall_graph * 1000.0)),
        ]);
    }
    println!("{}", t.render());
    println!("execution approximated by the single-table latency, as in the paper");
    println!("(all cases query the same total number of IDs).");
    println!("paper: at 60 tables maintenance exceeds 2x execution; our simulated");
    println!("kernels are cheaper per ID, so the ratio overshoots, but the shape —");
    println!("maintenance growing linearly in table count while execution stays put —");
    println!("is the paper's. cudaGraph trims launches yet keeps the per-table cost.");
}
