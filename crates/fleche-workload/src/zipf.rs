//! Power-law (Zipf-like) popularity sampling.
//!
//! The paper's synthetic workloads draw feature IDs from a power-law
//! distribution `P(rank r) ∝ r^alpha` with `alpha = -1.2` by default, and
//! its sensitivity study (Exp #9) sweeps `alpha` from -0.5 to -2.0. We
//! sample in O(1) per draw via Walker's alias method over the precomputed
//! rank distribution, and de-correlate rank from ID with a multiplicative
//! permutation so "hot" IDs are scattered over the key space the way real
//! hashed feature IDs are.

use rand::Rng;

/// O(1) discrete sampler over arbitrary weights (Walker/Vose alias method).
#[derive(Clone, Debug)]
pub(crate) struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds a sampler over `weights` (need not be normalized).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative/non-finite value,
    /// or sums to zero.
    pub(crate) fn new(weights: &[f64]) -> AliasTable {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let n = weights.len();
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
        }
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "weights must not be all zero"
        );
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers are certainties.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Number of outcomes.
    pub(crate) fn len(&self) -> usize {
        self.prob.len()
    }

    /// Draws one outcome index.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// Power-law sampler over a corpus of `corpus` IDs with exponent `alpha`
/// (negative: `-1.2` means `P(rank r) ∝ r^-1.2`).
#[derive(Clone, Debug)]
pub(crate) struct PowerLaw {
    table: AliasTable,
    corpus: u64,
    /// Odd multiplier scattering ranks over the ID space (an offset when
    /// it shares a factor with the corpus).
    scatter: u64,
    /// `gcd(scatter, corpus) == 1`: the multiply is a bijection. Decided
    /// once per scatter, not per draw.
    coprime: bool,
}

impl PowerLaw {
    /// Builds a sampler. `alpha` is the exponent as the paper writes it
    /// (negative = skewed; more negative = more skewed).
    ///
    /// # Panics
    ///
    /// Panics if `corpus == 0`.
    pub(crate) fn new(corpus: u64, alpha: f64, seed: u64) -> PowerLaw {
        assert!(corpus > 0, "corpus must be non-empty");
        // Cap the alias table size: beyond the cap, tail IDs are near-
        // uniform; we fold them into rank buckets that are expanded at
        // sample time. For our scaled corpora the cap is rarely hit.
        const MAX_RANKS: u64 = 1 << 20;
        let n = corpus.min(MAX_RANKS);
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(alpha)).collect();
        let mut p = PowerLaw {
            table: AliasTable::new(&weights),
            corpus,
            scatter: 1,
            coprime: true,
        };
        p.reseed(seed);
        p
    }

    /// Re-derives the rank-to-ID permutation from `seed` and keeps the rank
    /// distribution: which IDs are hot moves, how hot they are does not.
    pub(crate) fn reseed(&mut self, seed: u64) {
        let scatter = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1) % self.corpus;
        self.scatter = if scatter == 0 { 1 } else { scatter | 1 };
        self.coprime = gcd(self.scatter, self.corpus) == 1;
    }

    /// The corpus size.
    pub(crate) fn corpus(&self) -> u64 {
        self.corpus
    }

    /// Whether ranks map to IDs by the multiply (else by the offset).
    #[cfg(test)]
    pub(crate) fn is_coprime(&self) -> bool {
        self.coprime
    }

    /// Draws a feature ID in `[0, corpus)`.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut rank = self.table.sample(rng) as u64;
        let folded = self.table.len() as u64;
        if folded < self.corpus && rank == folded - 1 {
            // Tail bucket: spread uniformly over the remaining ranks.
            rank += rng.gen_range(0..self.corpus - folded + 1);
        }
        self.rank_to_id(rank)
    }

    /// Deterministic rank -> ID scattering (rank 0 is the hottest ID).
    fn rank_to_id(&self, rank: u64) -> u64 {
        debug_assert!(rank < self.corpus);
        // A multiplicative permutation modulo the corpus is a bijection when
        // gcd(scatter, corpus) == 1; fall back to an offset otherwise.
        if self.coprime {
            (rank.wrapping_mul(self.scatter)) % self.corpus
        } else {
            (rank + self.scatter) % self.corpus
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn alias_matches_weights() {
        let t = AliasTable::new(&[1.0, 2.0, 7.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u64; 3];
        let n = 200_000;
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        let f = |i: usize| counts[i] as f64 / n as f64;
        assert!((f(0) - 0.1).abs() < 0.01);
        assert!((f(1) - 0.2).abs() < 0.01);
        assert!((f(2) - 0.7).abs() < 0.01);
    }

    #[test]
    fn alias_single_outcome() {
        let t = AliasTable::new(&[5.0]);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn alias_rejects_empty() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn alias_rejects_negative() {
        let _ = AliasTable::new(&[1.0, -1.0]);
    }

    #[test]
    fn power_law_is_skewed() {
        let p = PowerLaw::new(100_000, -1.2, 7);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let n = 100_000;
        for _ in 0..n {
            *counts.entry(p.sample(&mut rng)).or_default() += 1;
        }
        let mut freq: Vec<u64> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let top100: u64 = freq.iter().take(100).sum();
        // With alpha=-1.2 the head is heavy: top-100 IDs take a large share.
        assert!(
            top100 as f64 / n as f64 > 0.3,
            "top-100 share {}",
            top100 as f64 / n as f64
        );
    }

    #[test]
    fn more_negative_alpha_is_more_skewed() {
        let share = |alpha: f64| {
            let p = PowerLaw::new(50_000, alpha, 11);
            let mut rng = StdRng::seed_from_u64(4);
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for _ in 0..50_000 {
                *counts.entry(p.sample(&mut rng)).or_default() += 1;
            }
            let mut freq: Vec<u64> = counts.values().copied().collect();
            freq.sort_unstable_by(|a, b| b.cmp(a));
            freq.iter().take(50).sum::<u64>() as f64 / 50_000.0
        };
        assert!(share(-2.0) > share(-1.2));
        assert!(share(-1.2) > share(-0.5));
    }

    #[test]
    fn samples_stay_in_corpus() {
        let p = PowerLaw::new(997, -1.0, 13); // prime corpus
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert!(p.sample(&mut rng) < 997);
        }
    }

    /// Both arms are bijections: seed 3 scatters by a multiplier coprime
    /// with the corpus, seed 17 by an offset (its scatter, 85, shares a 5).
    #[test]
    fn rank_scatter_is_a_bijection() {
        for (seed, coprime) in [(3, true), (17, false)] {
            let p = PowerLaw::new(1_000, -1.2, seed);
            assert_eq!(p.coprime, coprime, "scatter {}", p.scatter);
            let mut seen = vec![false; 1_000];
            for r in 0..1_000 {
                let id = p.rank_to_id(r);
                assert!(!seen[id as usize], "duplicate id {id}");
                seen[id as usize] = true;
            }
        }
    }

    /// Reseeding moves the scattering exactly as building anew would, and
    /// keeps the rank table.
    #[test]
    fn reseed_matches_a_fresh_sampler() {
        let mut p = PowerLaw::new(1_000, -1.2, 3);
        let table = p.table.prob.clone();
        for seed in [1, 9, 3] {
            p.reseed(seed);
            let fresh = PowerLaw::new(1_000, -1.2, seed);
            assert_eq!((p.scatter, p.coprime), (fresh.scatter, fresh.coprime));
            assert_eq!(p.table.prob, table);
        }
    }

    #[test]
    fn different_seeds_scatter_differently() {
        let a = PowerLaw::new(10_000, -1.2, 1);
        let b = PowerLaw::new(10_000, -1.2, 2);
        let same = (0..100)
            .filter(|&r| a.rank_to_id(r) == b.rank_to_id(r))
            .count();
        assert!(same < 10);
    }

    #[test]
    fn corpus_of_one() {
        let p = PowerLaw::new(1, -1.2, 3);
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(p.sample(&mut rng), 0);
    }
}
