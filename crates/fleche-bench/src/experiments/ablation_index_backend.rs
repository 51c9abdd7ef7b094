//! Ablation: flat cache over the two GPU index families the paper names —
//! SlabHash (chained warp-wide slabs) vs a MegaKV-style bucketed cuckoo.
//! Cuckoo lookups touch at most two buckets (shorter probe chains, less
//! index traffic) but pay insert-time kick-outs and a hard load ceiling.
//!
//! Run: `cargo run --release -p fleche-bench -- ablation_index_backend [--quick]`

use crate::{fmt_ns, print_header, Args, TextTable};
use fleche_core::{FlatCacheConfig, FlecheConfig, FlecheSystem, IndexBackend};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu, Ns};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::CpuStore;
use fleche_workload::{spec, TraceGenerator};

pub(crate) fn main(args: &Args) {
    print_header("Ablation: SlabHash vs MegaKV-style cuckoo as the flat-cache index");
    let (warm, meas, batch) = if args.quick {
        (40, 10, 512)
    } else {
        (100, 24, 512)
    };
    let mut t = TextTable::new(&["backend", "dataset", "hit rate", "emb latency"]);
    for ds in [spec::avazu(), spec::criteo_kaggle()] {
        for backend in [IndexBackend::SlabHash, IndexBackend::MegaKv] {
            let store = CpuStore::new(&ds, DramSpec::xeon_6252());
            let mut sys = FlecheSystem::new(
                &ds,
                store,
                FlecheConfig {
                    cache: FlatCacheConfig {
                        index: backend,
                        ..FlatCacheConfig::default()
                    },
                    ..FlecheConfig::full(0.05)
                },
            );
            let mut gpu = Gpu::new(DeviceSpec::t4());
            let mut gen = TraceGenerator::new(&ds);
            for _ in 0..warm {
                sys.query_batch(&mut gpu, &gen.next_batch(batch));
            }
            sys.reset_stats();
            let mut wall = Ns::ZERO;
            for _ in 0..meas {
                wall += sys.query_batch(&mut gpu, &gen.next_batch(batch)).stats.wall;
            }
            t.row(&[
                format!("{backend:?}"),
                ds.name.into(),
                format!("{:.1}%", sys.lifetime_stats().hit_rate() * 100.0),
                fmt_ns(wall / meas as f64),
            ]);
        }
    }
    println!("{}", t.render());
    println!("expected: comparable hit rates (the replacement policy, not the index,");
    println!("decides residency); the cuckoo's bounded two-bucket probes trim index");
    println!("traffic slightly, at the cost of kick-out displacements under load —");
    println!("supporting the paper's claim that the index choice is orthogonal.");
}
