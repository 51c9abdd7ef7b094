//! Figure 13 / Exp #5: model accuracy (AUC) after re-encoding with the
//! fixed-length ("Kraken") codec vs Fleche's size-aware codec, across
//! flat-key bit widths, against the no-collision upper bound. Runs on
//! heterogeneous synthetic CTR ground truth shaped like Avazu and
//! Criteo-Kaggle.
//!
//! Run: `cargo run --release -p fleche-bench -- fig13_auc_coding [--quick]`

use crate::{print_header, Args, TextTable};
use fleche_coding::{FixedLenCodec, SizeAwareCodec};
use fleche_model::{evaluate_codec, ParamIndexing};
use fleche_workload::DatasetSpec;

/// Scaled-down dataset shapes so LR training stays fast while keeping the
/// corpus heterogeneity that separates the codecs. Popularity is flattened
/// (alpha = -0.7) relative to the cache experiments: accuracy damage from
/// key collisions comes from the mid-tail features that flat traffic
/// exercises, which heavy skew would hide.
fn shapes() -> Vec<(&'static str, DatasetSpec, Vec<u32>)> {
    let mut avazu = fleche_workload::spec::avazu();
    for t in &mut avazu.tables {
        t.corpus = (t.corpus / 16).max(4);
        t.alpha = -0.7;
    }
    let mut ck = fleche_workload::spec::criteo_kaggle();
    for t in &mut ck.tables {
        t.corpus = (t.corpus / 16).max(4);
        t.alpha = -0.7;
    }
    vec![
        ("avazu-shape", avazu, vec![12, 14, 16, 18, 20, 22]),
        ("criteo-kaggle-shape", ck, vec![13, 15, 17, 19]),
    ]
}

pub(crate) fn main(args: &Args) {
    print_header("Fig 13 (Exp #5): AUC of flat-key encoding methods vs key bits");
    let (train_n, test_n, epochs) = if args.quick {
        (4_000, 1_500, 2)
    } else {
        (12_000, 4_000, 3)
    };
    for (label, ds, bit_sweep) in shapes() {
        let corpora: Vec<u64> = ds.tables.iter().map(|t| t.corpus).collect();
        let upper = evaluate_codec(&ds, ParamIndexing::Identity, train_n, test_n, epochs);
        println!("--- {label}: upper bound (no conflicts) AUC = {upper:.4} ---");
        let mut t = TextTable::new(&["#bits", "Kraken (fixed)", "Fleche (size-aware)", "delta"]);
        for &bits in &bit_sweep {
            let table_bits = (corpora.len() as f64).log2().ceil() as u32;
            let kraken = FixedLenCodec::new(bits, table_bits, corpora.clone());
            let aware = SizeAwareCodec::new(bits, &corpora);
            let a_k = evaluate_codec(
                &ds,
                ParamIndexing::Encoded(&kraken),
                train_n,
                test_n,
                epochs,
            );
            let a_f = evaluate_codec(&ds, ParamIndexing::Encoded(&aware), train_n, test_n, epochs);
            t.row(&[
                bits.to_string(),
                format!("{a_k:.4}"),
                format!("{a_f:.4}"),
                format!("{:+.4}", a_f - a_k),
            ]);
        }
        println!("{}", t.render());
    }
    println!("paper: size-aware coding reaches higher AUC at the same bit budget (or");
    println!("the same AUC with fewer bits); both approach the upper bound as bits grow.");
}
