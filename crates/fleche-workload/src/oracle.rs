//! Hit-rate oracles.
//!
//! The paper's "Optimal" line (Figures 3 and 12) is the ideal cache that
//! "knows all accesses of datasets": with a byte budget B, it pins the set
//! of embeddings maximizing hits. With per-table embedding dimensions the
//! knapsack is solved greedily by hits-per-byte (optimal when all dims are
//! equal, near-optimal otherwise): analytically here, and over a sampled
//! trace by [`WorkloadStats::optimal_hit_rate`](crate::WorkloadStats::optimal_hit_rate).
//! A Belady simulator is also provided for ablations beyond the paper.

use crate::spec::DatasetSpec;
use std::collections::HashMap;

/// The analytic "Optimal" oracle: the hit rate of a cache that pins the
/// highest-probability embeddings, computed from the generator's exact
/// popularity law instead of a sampled census (equivalently, the paper's
/// cache that "knows all accesses" in the infinite-trace limit).
///
/// Each table `t` receives `multi_hot_t / ids_per_sample` of all accesses;
/// within the table, rank `r` receives `r^alpha / H_t`. Entries are pinned
/// greedily by access share per byte until `budget_bytes` is exhausted.
pub fn analytic_optimal_hit_rate(spec: &DatasetSpec, budget_bytes: u64) -> f64 {
    let total_ids = spec.ids_per_sample() as f64;
    if total_ids == 0.0 {
        return 0.0;
    }
    // (access share, value bytes) per embedding, all tables merged.
    let mut entries: Vec<(f64, u64)> = Vec::new();
    for t in &spec.tables {
        let h: f64 = (1..=t.corpus).map(|r| (r as f64).powf(t.alpha)).sum();
        let table_weight = t.multi_hot as f64 / total_ids;
        let bytes = t.dim as u64 * 4;
        for r in 1..=t.corpus {
            entries.push((table_weight * (r as f64).powf(t.alpha) / h, bytes));
        }
    }
    entries.sort_by(|a, b| {
        let da = a.0 / a.1 as f64;
        let db = b.0 / b.1 as f64;
        db.partial_cmp(&da).expect("finite densities")
    });
    let mut used = 0u64;
    let mut share = 0.0;
    for (s, bytes) in entries {
        if used + bytes > budget_bytes {
            continue; // a smaller entry later may still fit (mixed dims)
        }
        used += bytes;
        share += s;
    }
    share.min(1.0)
}

/// Belady's MIN algorithm over a flattened access stream with a slot
/// budget. Included as an ablation: the paper's "Optimal" is the static
/// frequency oracle; Belady is the dynamic upper bound.
pub fn belady_hit_rate(accesses: &[(u16, u64)], slots: usize) -> f64 {
    if accesses.is_empty() || slots == 0 {
        return 0.0;
    }
    // Precompute next-use indices.
    let mut next_use = vec![usize::MAX; accesses.len()];
    let mut last_seen: HashMap<(u16, u64), usize> = HashMap::new();
    for (i, key) in accesses.iter().enumerate().rev() {
        next_use[i] = last_seen.get(key).copied().unwrap_or(usize::MAX);
        last_seen.insert(*key, i);
    }
    // Resident set: key -> its next use; evict the farthest.
    let mut resident: HashMap<(u16, u64), usize> = HashMap::with_capacity(slots);
    let mut hits = 0u64;
    for (i, key) in accesses.iter().enumerate() {
        if resident.remove(key).is_some() {
            hits += 1;
        }
        // A key never used again is not worth caching (bypass); only make
        // room when we actually intend to insert.
        if next_use[i] == usize::MAX {
            continue;
        }
        if resident.len() >= slots {
            // Evict the entry whose next use is farthest in the future —
            // unless the incoming key itself is the farthest.
            let (&victim, &victim_nu) = resident
                .iter()
                .max_by_key(|&(_, &nu)| nu)
                .expect("resident non-empty when at capacity");
            if victim_nu > next_use[i] {
                resident.remove(&victim);
            } else {
                continue; // bypass: incoming key is the worst candidate
            }
        }
        resident.insert(*key, next_use[i]);
    }
    hits as f64 / accesses.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use crate::stats::WorkloadStats;
    use crate::trace::TraceGenerator;

    fn census_of(n_batches: usize, batch: usize) -> WorkloadStats {
        let ds = spec::synthetic(4, 10_000, 32, -1.3);
        let mut gen = TraceGenerator::new(&ds);
        let mut c = WorkloadStats::new();
        for _ in 0..n_batches {
            c.observe(&gen.next_batch(batch));
        }
        c
    }

    #[test]
    fn census_counts_accesses() {
        let c = census_of(4, 100);
        assert_eq!(c.total_accesses(), 4 * 100 * 4);
        assert!(c.distinct() > 0);
        assert!(c.distinct() as u64 <= c.total_accesses());
    }

    #[test]
    fn optimal_hit_rate_monotone_in_budget() {
        let c = census_of(8, 250);
        let dim = |_t: u16| 32u32;
        let small = c.optimal_hit_rate(32 * 4 * 50, dim);
        let large = c.optimal_hit_rate(32 * 4 * 5_000, dim);
        assert!(large >= small);
        assert!(large <= 1.0 && small >= 0.0);
    }

    #[test]
    fn infinite_budget_hits_everything() {
        let c = census_of(2, 100);
        let hr = c.optimal_hit_rate(u64::MAX / 2, |_| 32);
        assert!((hr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_budget_hits_nothing() {
        let c = census_of(2, 100);
        assert_eq!(c.optimal_hit_rate(0, |_| 32), 0.0);
        assert_eq!(WorkloadStats::new().optimal_hit_rate(1000, |_| 32), 0.0);
    }

    #[test]
    fn skewed_trace_small_cache_big_hit_rate() {
        // With alpha=-1.3, a cache of 5% of distinct IDs should capture far
        // more than 5% of accesses.
        let c = census_of(10, 500);
        let slots = c.distinct() / 20;
        let hr = c.optimal_hit_rate(slots as u64 * 32 * 4, |_| 32);
        assert!(hr > 0.3, "hit rate {hr} for 5% of distinct keys");
    }

    #[test]
    fn analytic_oracle_monotone_and_bounded() {
        let ds = spec::synthetic(4, 10_000, 32, -1.3);
        let small = analytic_optimal_hit_rate(&ds, ds.cache_bytes(0.01));
        let large = analytic_optimal_hit_rate(&ds, ds.cache_bytes(0.20));
        assert!(small > 0.0 && small < large);
        assert!(large < 1.0);
        let all = analytic_optimal_hit_rate(&ds, ds.total_param_bytes());
        assert!((all - 1.0).abs() < 1e-9);
        assert_eq!(analytic_optimal_hit_rate(&ds, 0), 0.0);
    }

    #[test]
    fn analytic_oracle_beats_skewless_fraction() {
        // With skew, pinning 5% of bytes captures far more than 5% of
        // accesses.
        let ds = spec::synthetic(4, 50_000, 32, -1.2);
        let hr = analytic_optimal_hit_rate(&ds, ds.cache_bytes(0.05));
        assert!(hr > 0.25, "hr {hr}");
    }

    #[test]
    fn analytic_oracle_agrees_with_census_on_big_windows() {
        // On a long trace, the sampled census converges toward the
        // analytic oracle from above (finite windows overestimate because
        // unseen tail keys cost no budget).
        let ds = spec::synthetic(2, 2_000, 16, -1.2);
        let budget = ds.cache_bytes(0.10);
        let analytic = analytic_optimal_hit_rate(&ds, budget);
        let mut gen = TraceGenerator::new(&ds);
        let mut c = WorkloadStats::new();
        for _ in 0..200 {
            c.observe(&gen.next_batch(500));
        }
        let census = c.optimal_hit_rate(budget, |_| 16);
        assert!(
            census + 0.05 >= analytic,
            "census {census} far below analytic {analytic}"
        );
        assert!(
            census <= analytic + 0.10,
            "census {census} far above analytic {analytic}"
        );
    }

    #[test]
    fn belady_basics() {
        // Sequence with obvious reuse; 1 slot.
        let acc: Vec<(u16, u64)> = vec![(0, 1), (0, 1), (0, 2), (0, 1)];
        // [1 miss][1 hit][2 miss, but 2 never reused -> keep 1][1 hit]
        let hr = belady_hit_rate(&acc, 1);
        assert!((hr - 0.5).abs() < 1e-12, "hr={hr}");
        assert_eq!(belady_hit_rate(&[], 4), 0.0);
        assert_eq!(belady_hit_rate(&acc, 0), 0.0);
    }

    #[test]
    fn belady_vs_frequency_oracle_bounds() {
        // The static frequency oracle is preloaded (no compulsory misses),
        // so it may beat Belady by at most the compulsory-miss share; in
        // the other direction Belady with bypass dominates the same pinned
        // set operated as a demand policy.
        let ds = spec::synthetic(2, 2_000, 16, -1.1);
        let mut gen = TraceGenerator::new(&ds);
        let mut c = WorkloadStats::new();
        let mut accesses = Vec::new();
        for _ in 0..6 {
            let b = gen.next_batch(300);
            accesses.extend(b.iter_accesses());
            c.observe(&b);
        }
        let slots = 200;
        let freq = c.optimal_hit_rate(slots as u64 * 16 * 4, |_| 16);
        let belady = belady_hit_rate(&accesses, slots);
        let compulsory = c.distinct() as f64 / c.total_accesses() as f64;
        assert!((0.0..=1.0).contains(&belady));
        assert!(
            belady + compulsory >= freq - 1e-9,
            "belady {belady} + compulsory {compulsory} must reach frequency {freq}"
        );
    }
}
