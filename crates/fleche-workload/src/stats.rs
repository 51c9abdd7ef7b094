//! Workload statistics.
//!
//! Characterizes a trace the way the paper characterizes its datasets:
//! distinct-ID counts, duplication factors, per-table access shares, and
//! hot-set concentration (what fraction of accesses the top-k% of keys
//! receive). Harnesses print these so a reader can verify the generator
//! matches the Table 2 shapes it claims.

use crate::spec::DatasetSpec;
use crate::trace::Batch;
use std::collections::HashMap;

/// Aggregated statistics over one or more batches.
#[derive(Debug, Default)]
pub struct WorkloadStats {
    counts: HashMap<(u16, u64), u64>,
    per_table_accesses: Vec<u64>,
    total_accesses: u64,
    samples: u64,
}

impl WorkloadStats {
    /// Creates an empty collector.
    pub fn new() -> WorkloadStats {
        WorkloadStats::default()
    }

    /// Folds one batch in.
    pub fn observe(&mut self, batch: &Batch) {
        self.samples += batch.len() as u64;
        if self.per_table_accesses.len() < batch.table_ids.len() {
            self.per_table_accesses.resize(batch.table_ids.len(), 0);
        }
        for (t, ids) in batch.table_ids.iter().enumerate() {
            self.per_table_accesses[t] += ids.len() as u64;
            for &id in ids {
                *self.counts.entry((t as u16, id)).or_default() += 1;
                self.total_accesses += 1;
            }
        }
    }

    /// Samples observed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Total ID accesses observed.
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Distinct `(table, id)` pairs observed.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Mean accesses per distinct key (the trace's reuse factor).
    pub fn reuse_factor(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        self.total_accesses as f64 / self.counts.len() as f64
    }

    /// Fraction of accesses received by the hottest `fraction` of distinct
    /// keys (hot-set concentration; `fraction` in `(0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn head_share(&self, fraction: f64) -> f64 {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        if self.total_accesses == 0 {
            return 0.0;
        }
        let mut freq: Vec<u64> = self.counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let k = ((freq.len() as f64 * fraction).ceil() as usize).max(1);
        let head: u64 = freq.iter().take(k).sum();
        head as f64 / self.total_accesses as f64
    }

    /// Access share of each table, in table order.
    pub fn table_shares(&self) -> Vec<f64> {
        let total = self.total_accesses.max(1) as f64;
        self.per_table_accesses
            .iter()
            .map(|&a| a as f64 / total)
            .collect()
    }

    /// Distinct keys seen per table.
    pub fn distinct_per_table(&self) -> Vec<usize> {
        let n = self.per_table_accesses.len();
        let mut out = vec![0usize; n];
        for &(t, _) in self.counts.keys() {
            out[t as usize] += 1;
        }
        out
    }

    /// The up-to-`k` hottest `(table, id)` keys, hottest first. Ties break
    /// on ascending `(table, id)` so the order is deterministic despite
    /// the underlying `HashMap` — recovery's warm-up replayer feeds these
    /// straight into prefetch batches that must replay identically.
    pub fn hottest(&self, k: usize) -> Vec<(u16, u64)> {
        self.update_candidates(k, 1)
    }

    /// The up-to-`k` hottest keys observed at least `min_count` times —
    /// the candidate set an online trainer re-embeds first (updates to
    /// keys the serving trace actually touches are the ones that create
    /// staleness). Same deterministic ordering as
    /// [`WorkloadStats::hottest`]; feed the result to an update stream's
    /// hot-biased burst generator.
    pub fn update_candidates(&self, k: usize, min_count: u64) -> Vec<(u16, u64)> {
        let mut ranked: Vec<((u16, u64), u64)> = self
            .counts
            .iter()
            .filter(|&(_, &n)| n >= min_count)
            .map(|(&key, &n)| (key, n))
            .collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked.into_iter().map(|(key, _)| key).collect()
    }

    /// The paper's "Optimal" hit rate over the observed trace: the share
    /// of accesses a cache of `budget_bytes` gets by pinning keys greedily
    /// by hits per byte, given `dim_of(table)` (bytes per value =
    /// 4 × dim). Exact for uniform dims, near-optimal for mixed ones.
    pub fn optimal_hit_rate(&self, budget_bytes: u64, dim_of: impl Fn(u16) -> u32) -> f64 {
        if self.total_accesses == 0 {
            return 0.0;
        }
        let mut entries: Vec<(u64, u64)> = self
            .counts
            .iter()
            .map(|(&(t, _), &c)| (c, dim_of(t) as u64 * 4))
            .collect();
        // Sort by density (hits per byte), descending.
        entries.sort_by(|a, b| {
            let da = a.0 as f64 / a.1 as f64;
            let db = b.0 as f64 / b.1 as f64;
            db.partial_cmp(&da).expect("finite densities")
        });
        let mut used = 0u64;
        let mut hits = 0u64;
        for (count, bytes) in entries {
            if used + bytes > budget_bytes {
                continue; // smaller items later may still fit
            }
            used += bytes;
            hits += count;
        }
        hits as f64 / self.total_accesses as f64
    }

    /// Fraction of each table's corpus that the trace touched.
    pub fn corpus_coverage(&self, spec: &DatasetSpec) -> Vec<f64> {
        self.distinct_per_table()
            .iter()
            .zip(&spec.tables)
            .map(|(&d, t)| d as f64 / t.corpus.max(1) as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use crate::trace::TraceGenerator;

    fn collect(n_batches: usize, batch: usize) -> (WorkloadStats, DatasetSpec) {
        let ds = spec::synthetic(4, 5_000, 16, -1.3);
        let mut gen = TraceGenerator::new(&ds);
        let mut st = WorkloadStats::new();
        for _ in 0..n_batches {
            st.observe(&gen.next_batch(batch));
        }
        (st, ds)
    }

    #[test]
    fn counters_are_consistent() {
        let (st, _) = collect(10, 200);
        assert_eq!(st.samples(), 2_000);
        assert_eq!(st.total_accesses(), 2_000 * 4);
        assert!(st.distinct() > 0);
        assert!(st.distinct() as u64 <= st.total_accesses());
        assert!(st.reuse_factor() >= 1.0);
        let sum: usize = st.distinct_per_table().iter().sum();
        assert_eq!(sum, st.distinct());
    }

    #[test]
    fn table_shares_sum_to_one() {
        let (st, _) = collect(5, 100);
        let total: f64 = st.table_shares().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn head_share_reflects_skew() {
        let (st, _) = collect(20, 500);
        let head1 = st.head_share(0.01);
        let head10 = st.head_share(0.10);
        assert!(head1 > 0.01, "skewed head: 1% of keys take {head1}");
        assert!(head10 > head1);
        assert!((st.head_share(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_is_a_fraction_of_corpus() {
        let (st, ds) = collect(20, 500);
        for c in st.corpus_coverage(&ds) {
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_rejected() {
        let (st, _) = collect(1, 10);
        st.head_share(0.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let st = WorkloadStats::new();
        assert_eq!(st.reuse_factor(), 0.0);
        assert_eq!(st.head_share(0.5), 0.0);
        assert!(st.table_shares().is_empty());
        assert!(st.hottest(10).is_empty());
    }

    #[test]
    fn hottest_ranks_by_count_with_deterministic_ties() {
        let mut st = WorkloadStats::new();
        // Table 0: id 7 three times, id 3 once. Table 1: id 7 three times
        // (tie with (0,7) broken by table), id 9 twice.
        let batch = Batch::from_table_ids(vec![vec![7, 7, 7, 3], vec![7, 9, 7, 9, 7]]);
        st.observe(&batch);
        assert_eq!(
            st.hottest(3),
            vec![(0u16, 7u64), (1, 7), (1, 9)],
            "count desc, then (table, id) asc"
        );
        // Asking for more than exists returns everything once.
        assert_eq!(st.hottest(100).len(), st.distinct());
    }

    #[test]
    fn update_candidates_filter_by_count_and_rank_like_hottest() {
        let mut st = WorkloadStats::new();
        let batch = Batch::from_table_ids(vec![vec![7, 7, 7, 3], vec![7, 9, 7, 9, 7]]);
        st.observe(&batch);
        // min_count 2 drops the once-seen (0,3); ranking matches hottest.
        assert_eq!(
            st.update_candidates(10, 2),
            vec![(0u16, 7u64), (1, 7), (1, 9)]
        );
        assert_eq!(st.update_candidates(1, 2), vec![(0u16, 7u64)]);
        // min_count 1 is exactly the hottest list.
        assert_eq!(st.update_candidates(10, 1), st.hottest(10));
        assert!(st.update_candidates(10, 100).is_empty());
    }

    #[test]
    fn hottest_is_bounded_and_repeatable_on_generated_traces() {
        let (st, _) = collect(10, 200);
        let hot = st.hottest(50);
        assert_eq!(hot.len(), 50);
        assert_eq!(hot, st.hottest(50), "repeat calls agree");
    }
}
