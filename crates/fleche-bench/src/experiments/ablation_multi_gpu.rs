//! Ablation: model-parallel multi-GPU flat cache (the paper's §5 future
//! work). Sweeps the shard count on PCIe-p2p and NVLink-class
//! interconnects: sharding multiplies aggregate cache capacity and
//! removes inter-GPU redundancy, but adds an all-gather to the dense
//! device.
//!
//! Run: `cargo run --release -p fleche-bench -- ablation_multi_gpu [--quick]`

use crate::{fmt_ns, print_header, Args, TextTable};
use fleche_core::{FlecheConfig, InterconnectSpec, MultiGpuFleche};
use fleche_gpu::Ns;
use fleche_workload::{spec, TraceGenerator};

pub(crate) fn main(args: &Args) {
    print_header("Ablation: multi-GPU sharded flat cache");
    let (warm, meas, batch) = if args.quick {
        (20, 8, 512)
    } else {
        (60, 16, 1024)
    };
    let ds = spec::criteo_kaggle();
    for (ic_name, interconnect) in [
        ("PCIe p2p", InterconnectSpec::pcie_p2p()),
        ("NVLink-class", InterconnectSpec::nvlink_like()),
    ] {
        println!("--- interconnect: {ic_name} ---");
        let mut t = TextTable::new(&[
            "GPUs",
            "hit rate",
            "shard critical",
            "gather",
            "batch total",
        ]);
        for gpus in [1usize, 2, 4, 8] {
            let mut mg = MultiGpuFleche::new(
                &ds,
                gpus,
                0.02, // per-shard budget; aggregate scales with the count
                FlecheConfig::full(0.02),
                interconnect.clone(),
            );
            let mut gen = TraceGenerator::new(&ds);
            for _ in 0..warm {
                mg.query_batch(&gen.next_batch(batch));
            }
            let mut crit = Ns::ZERO;
            let mut gath = Ns::ZERO;
            let mut total = Ns::ZERO;
            for _ in 0..meas {
                let (_, timing, _) = mg.query_batch(&gen.next_batch(batch));
                crit += timing.shard_critical;
                gath += timing.gather;
                total += timing.total;
            }
            t.row(&[
                gpus.to_string(),
                format!("{:.1}%", mg.lifetime_stats().hit_rate() * 100.0),
                fmt_ns(crit / meas as f64),
                fmt_ns(gath / meas as f64),
                fmt_ns(total / meas as f64),
            ]);
        }
        println!("{}", t.render());
    }
    println!("expected: hit rate climbs with shard count (aggregate capacity grows,");
    println!("no replication); per-shard query time falls (smaller sub-batches) while");
    println!("the gather grows — on PCIe the gather eats the win sooner than on an");
    println!("NVLink-class fabric.");
}
