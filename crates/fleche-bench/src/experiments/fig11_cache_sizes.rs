//! Figure 11 / Exp #3: embedding-layer speedup of Fleche over the
//! baseline under different cache sizes (20/10/5% for Avazu-like and
//! Criteo-Kaggle-like; 2/1/0.5% for Criteo-TB-like), across batch sizes.
//!
//! Run: `cargo run --release -p fleche-bench -- fig11_cache_sizes [--quick]`

use crate::{batch_sizes, print_header, run_workload, Args, SystemKind, TextTable};
use fleche_model::ModelMode;

pub(crate) fn main(args: &Args) {
    print_header("Fig 11 (Exp #3): embedding speedup under different cache sizes");
    let sets: Vec<(fleche_workload::DatasetSpec, Vec<f64>)> = vec![
        (fleche_workload::spec::avazu(), vec![0.20, 0.10, 0.05]),
        (
            fleche_workload::spec::criteo_kaggle(),
            vec![0.20, 0.10, 0.05],
        ),
        (fleche_workload::spec::criteo_tb(), vec![0.02, 0.01, 0.005]),
    ];
    for (ds, fractions) in sets {
        println!("--- {} ---", ds.name);
        let header: Vec<String> = std::iter::once("batch".to_string())
            .chain(fractions.iter().map(|f| format!("{:.1}%", f * 100.0)))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = TextTable::new(&header_refs);
        for bs in batch_sizes(args.quick) {
            let mut row = vec![bs.to_string()];
            for &fraction in &fractions {
                let base = run_workload(
                    SystemKind::Baseline,
                    &ds,
                    fraction,
                    ModelMode::EmbeddingOnly,
                    bs,
                );
                let fl = run_workload(
                    SystemKind::FlecheFull,
                    &ds,
                    fraction,
                    ModelMode::EmbeddingOnly,
                    bs,
                );
                row.push(format!(
                    "{:.2}x",
                    fl.embedding_throughput() / base.embedding_throughput()
                ));
            }
            t.row(&row);
        }
        println!("{}", t.render());
    }
    println!("paper: 1.9-3.8x (Avazu), 2.4-5.3x (Criteo-Kaggle), 3.9-5.8x (Criteo-TB);");
    println!("smaller caches favor Fleche more on Avazu/Criteo-Kaggle; larger batches");
    println!("favor it less (dedup/restore grow).");
}
