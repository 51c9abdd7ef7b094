//! Synthetic CTR ground truth and AUC evaluation (for Exp #5, Fig. 13).
//!
//! Re-encoding feature IDs into narrow flat keys merges colliding features'
//! parameters and costs model accuracy. To measure that effect without the
//! proprietary datasets we build a controlled CTR world: every
//! `(table, feature)` carries a deterministic latent weight; a sample's
//! click probability is the sigmoid of its features' summed weights. A
//! hashed logistic-regression model is trained with its parameters indexed
//! by *encoded* keys — two features sharing a flat key share a parameter —
//! and evaluated by AUC on held-out samples. The "upper bound" trains with
//! collision-free identity keys.

use fleche_coding::FlatKeyCodec;
use fleche_workload::{DatasetSpec, TraceGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The latent ground-truth weight of `(table, feature)` (deterministic,
/// zero-mean).
pub fn latent_weight(table: u16, feature: u64, scale: f64) -> f64 {
    let mut x = (table as u64 + 13)
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(feature.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 31;
    ((x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// One labeled CTR sample: the flattened feature list plus the click.
#[derive(Clone, Debug)]
pub struct CtrSample {
    /// `(table, feature)` pairs of the sample.
    pub features: Vec<(u16, u64)>,
    /// Ground-truth click.
    pub label: bool,
}

/// Generates `n` labeled samples from a dataset spec.
pub fn generate_samples(spec: &DatasetSpec, n: usize, seed: u64) -> Vec<CtrSample> {
    let mut gen = TraceGenerator::new(spec);
    let mut rng = StdRng::seed_from_u64(seed);
    let scale = 1.2 / (spec.ids_per_sample() as f64).sqrt();
    (0..n)
        .map(|_| {
            let s = gen.next_sample();
            let features: Vec<(u16, u64)> = s
                .per_table
                .iter()
                .enumerate()
                .flat_map(|(t, ids)| ids.iter().map(move |&id| (t as u16, id)))
                .collect();
            let z: f64 = features
                .iter()
                .map(|&(t, f)| latent_weight(t, f, scale))
                .sum();
            CtrSample {
                label: rng.gen::<f64>() < sigmoid(z * 3.0),
                features,
            }
        })
        .collect()
}

/// How a trained model indexes its parameters.
pub enum ParamIndexing<'a> {
    /// Through a flat-key codec (collisions merge parameters).
    Encoded(&'a dyn FlatKeyCodec),
    /// Collision-free identity (the AUC upper bound).
    Identity,
}

impl ParamIndexing<'_> {
    fn key(&self, t: u16, f: u64) -> u64 {
        match self {
            ParamIndexing::Encoded(c) => c.encode(t, f).0,
            // Identity: table in high bits, feature below — unique for the
            // corpora this repository instantiates.
            ParamIndexing::Identity => ((t as u64) << 48) | f,
        }
    }
}

/// A logistic-regression CTR model with hashed parameters.
pub struct HashedLr<'a> {
    weights: HashMap<u64, f64>,
    bias: f64,
    indexing: ParamIndexing<'a>,
    lr: f64,
}

impl<'a> HashedLr<'a> {
    /// Creates an untrained model.
    pub fn new(indexing: ParamIndexing<'a>) -> HashedLr<'a> {
        HashedLr {
            weights: HashMap::new(),
            bias: 0.0,
            indexing,
            lr: 0.15,
        }
    }

    /// Predicted click probability.
    pub fn predict(&self, sample: &CtrSample) -> f64 {
        let z: f64 = sample
            .features
            .iter()
            .map(|&(t, f)| {
                self.weights
                    .get(&self.indexing.key(t, f))
                    .copied()
                    .unwrap_or(0.0)
            })
            .sum::<f64>()
            + self.bias;
        sigmoid(z)
    }

    /// One SGD epoch over `samples`.
    pub fn train_epoch(&mut self, samples: &[CtrSample]) {
        for s in samples {
            let p = self.predict(s);
            let g = p - if s.label { 1.0 } else { 0.0 };
            self.bias -= self.lr * g;
            for &(t, f) in &s.features {
                let w = self.weights.entry(self.indexing.key(t, f)).or_insert(0.0);
                *w -= self.lr * g;
            }
        }
    }

    /// Trains for `epochs` epochs.
    pub fn train(&mut self, samples: &[CtrSample], epochs: usize) {
        for _ in 0..epochs {
            self.train_epoch(samples);
        }
    }
}

/// Area under the ROC curve by the rank statistic (Mann-Whitney U).
/// Returns 0.5 for degenerate label sets.
pub fn auc(scores_labels: &[(f64, bool)]) -> f64 {
    let pos = scores_labels.iter().filter(|&&(_, l)| l).count();
    let neg = scores_labels.len() - pos;
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    let mut sorted: Vec<&(f64, bool)> = scores_labels.iter().collect();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));
    // Sum of positive ranks with midrank tie handling.
    let mut rank_sum = 0.0f64;
    let mut i = 0usize;
    while i < sorted.len() {
        let mut j = i;
        while j + 1 < sorted.len() && sorted[j + 1].0 == sorted[i].0 {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for item in &sorted[i..=j] {
            if item.1 {
                rank_sum += midrank;
            }
        }
        i = j + 1;
    }
    (rank_sum - pos as f64 * (pos as f64 + 1.0) / 2.0) / (pos as f64 * neg as f64)
}

/// Trains and evaluates one codec configuration; returns the test AUC.
pub fn evaluate_codec(
    spec: &DatasetSpec,
    indexing: ParamIndexing<'_>,
    train_n: usize,
    test_n: usize,
    epochs: usize,
) -> f64 {
    let train = generate_samples(spec, train_n, spec.seed ^ 0x7EA1);
    let test = generate_samples(spec, test_n, spec.seed ^ 0x7E57);
    let mut model = HashedLr::new(indexing);
    model.train(&train, epochs);
    let scored: Vec<(f64, bool)> = test.iter().map(|s| (model.predict(s), s.label)).collect();
    auc(&scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleche_coding::{FixedLenCodec, SizeAwareCodec};
    use fleche_workload::spec;

    #[test]
    fn auc_of_perfect_and_random_scores() {
        let perfect: Vec<(f64, bool)> = (0..100).map(|i| (i as f64, i >= 50)).collect();
        assert!((auc(&perfect) - 1.0).abs() < 1e-12);
        let inverted: Vec<(f64, bool)> = (0..100).map(|i| (-(i as f64), i >= 50)).collect();
        assert!(auc(&inverted) < 0.01);
        let degenerate: Vec<(f64, bool)> = (0..10).map(|i| (i as f64, true)).collect();
        assert_eq!(auc(&degenerate), 0.5);
    }

    #[test]
    fn auc_handles_ties() {
        // All scores equal: AUC must be exactly 0.5.
        let tied: Vec<(f64, bool)> = (0..50).map(|i| (1.0, i % 2 == 0)).collect();
        assert!((auc(&tied) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn labels_correlate_with_latent_weights() {
        let ds = spec::synthetic(6, 500, 8, -1.1);
        let samples = generate_samples(&ds, 2_000, 1);
        let clicks = samples.iter().filter(|s| s.label).count();
        // Not degenerate.
        assert!(clicks > 200 && clicks < 1_800, "clicks {clicks}");
        // An oracle scoring by the true latent sum achieves high AUC.
        let scale = 1.2 / (ds.ids_per_sample() as f64).sqrt();
        let scored: Vec<(f64, bool)> = samples
            .iter()
            .map(|s| {
                (
                    s.features
                        .iter()
                        .map(|&(t, f)| latent_weight(t, f, scale))
                        .sum::<f64>(),
                    s.label,
                )
            })
            .collect();
        assert!(auc(&scored) > 0.75, "oracle auc {}", auc(&scored));
    }

    #[test]
    fn identity_model_learns() {
        let ds = spec::synthetic(6, 300, 8, -1.1);
        let a = evaluate_codec(&ds, ParamIndexing::Identity, 4_000, 1_500, 3);
        assert!(a > 0.65, "identity AUC {a}");
    }

    #[test]
    fn collisions_hurt_auc() {
        let ds = spec::synthetic(4, 5_000, 8, -1.1);
        let corpora: Vec<u64> = ds.tables.iter().map(|t| t.corpus).collect();
        let upper = evaluate_codec(&ds, ParamIndexing::Identity, 4_000, 1_500, 3);
        // Brutally narrow keys: heavy collisions.
        let narrow = SizeAwareCodec::new(8, &corpora);
        let low = evaluate_codec(&ds, ParamIndexing::Encoded(&narrow), 4_000, 1_500, 3);
        assert!(
            upper > low + 0.03,
            "upper {upper} should clearly beat collided {low}"
        );
    }

    #[test]
    fn size_aware_beats_fixed_at_same_bits() {
        // Heterogeneous corpora, tight bit budget: the size-aware codec
        // preserves more AUC than fixed-length — the Fig. 13 shape.
        let ds = spec::avazu_small_for_tests();
        let corpora: Vec<u64> = ds.tables.iter().map(|t| t.corpus).collect();
        let bits = 14;
        let table_bits = (corpora.len() as f64).log2().ceil() as u32;
        let fixed = FixedLenCodec::new(bits, table_bits, corpora.clone());
        let aware = SizeAwareCodec::new(bits, &corpora);
        let a_fixed = evaluate_codec(&ds, ParamIndexing::Encoded(&fixed), 5_000, 1_500, 3);
        let a_aware = evaluate_codec(&ds, ParamIndexing::Encoded(&aware), 5_000, 1_500, 3);
        assert!(
            a_aware >= a_fixed - 0.005,
            "size-aware {a_aware} must not lose to fixed {a_fixed}"
        );
    }
}
