//! Table 2: dataset characteristics (generator-spec equivalents of the
//! paper's Avazu / Criteo-Kaggle / Criteo-TB, scaled).
//!
//! Run: `cargo run --release -p fleche-bench -- table2_datasets`

use crate::{print_header, Args, TextTable};

pub(crate) fn main(_args: &Args) {
    print_header("Table 2: datasets for evaluation (scaled generator specs)");
    let mut t = TextTable::new(&[
        "dataset",
        "#emb tbls",
        "total corpus",
        "dim",
        "ids/sample",
        "param size",
        "largest tbl",
        "smallest tbl",
    ]);
    for ds in [
        fleche_workload::spec::avazu(),
        fleche_workload::spec::criteo_kaggle(),
        fleche_workload::spec::criteo_tb(),
    ] {
        let largest = ds.tables.iter().map(|x| x.corpus).max().expect("tables");
        let smallest = ds.tables.iter().map(|x| x.corpus).min().expect("tables");
        t.row(&[
            ds.name.into(),
            ds.table_count().to_string(),
            ds.total_corpus().to_string(),
            ds.tables[0].dim.to_string(),
            ds.ids_per_sample().to_string(),
            format!("{:.1} MB", ds.total_param_bytes() as f64 / 1e6),
            largest.to_string(),
            smallest.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("paper originals: Avazu 22 tbls/49M ids/5.8GB, Criteo-Kaggle 26/34M/4.1GB,");
    println!("Criteo-TB 26/0.9B/461GB; corpora scaled ~1/64 (TB: ~1/1024), shapes preserved.");
}
