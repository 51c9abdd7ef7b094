//! The reduction cache — the alternative design the paper discusses and
//! rejects (§5, "Alternative designs").
//!
//! Instead of caching individual embeddings, a reduction cache memoizes
//! the *pooled* result of a multi-hot field's co-appearing embeddings
//! (MERCI-style). On a hit, the whole lookup-plus-pooling of that field is
//! skipped. The paper declines this scheme because it only works for
//! simple algebraic poolings (sum/avg/max) and breaks model generality
//! (attention layers consume the individual vectors). We implement it as
//! an ablation so the trade-off is measurable: high payoff when multi-hot
//! groups repeat, zero coverage for one-hot fields whose single-ID
//! "groups" are just the embeddings themselves. It memoizes the sum, the
//! pooling every model in this reproduction uses.

use fleche_store::CpuStore;
use std::collections::HashMap;

/// One memoized pooled vector.
#[derive(Clone, Debug)]
struct PooledEntry {
    value: Vec<f32>,
    stamp: u64,
}

/// Counters for the reduction cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReductionStats {
    /// Field groups served from the memo table.
    pub group_hits: u64,
    /// Field groups computed from scratch.
    pub group_misses: u64,
    /// Entries evicted.
    pub evictions: u64,
}

impl ReductionStats {
    /// Group-level hit rate.
    pub fn hit_rate(&self) -> f64 {
        let total = self.group_hits + self.group_misses;
        if total == 0 {
            0.0
        } else {
            self.group_hits as f64 / total as f64
        }
    }
}

/// Memoization cache over pooled multi-hot groups.
///
/// Keys are the exact ID multiset of one (table, sample) field; values are
/// the pooled (summed) vectors.
pub struct ReductionCache {
    entries: HashMap<(u16, Vec<u64>), PooledEntry>,
    capacity_groups: usize,
    clock: u64,
    stats: ReductionStats,
}

impl ReductionCache {
    /// Creates a cache memoizing up to `capacity_groups` pooled groups.
    pub fn new(capacity_groups: usize) -> ReductionCache {
        ReductionCache {
            entries: HashMap::new(),
            capacity_groups: capacity_groups.max(1),
            clock: 0,
            stats: ReductionStats::default(),
        }
    }

    /// Live memoized groups.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Running counters.
    pub fn stats(&self) -> ReductionStats {
        self.stats
    }

    /// Returns the pooled vector for one field group, memoizing on miss.
    /// `ids` is the field's ID list (order-insensitive: it is sorted into
    /// the canonical group key).
    pub fn pooled(&mut self, store: &CpuStore, table: u16, ids: &[u64]) -> Vec<f32> {
        self.clock += 1;
        let mut key_ids = ids.to_vec();
        key_ids.sort_unstable();
        let key = (table, key_ids);
        if let Some(e) = self.entries.get_mut(&key) {
            e.stamp = self.clock;
            self.stats.group_hits += 1;
            return e.value.clone();
        }
        self.stats.group_misses += 1;
        // Streaming gather: one reused scratch row instead of a Vec per
        // id (the per-row allocations used to dominate this miss path).
        let value = store.pooled(table, ids);
        if self.entries.len() >= self.capacity_groups {
            self.evict_coldest();
        }
        self.entries.insert(
            key,
            PooledEntry {
                value: value.clone(),
                stamp: self.clock,
            },
        );
        value
    }

    fn evict_coldest(&mut self) {
        if let Some(key) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(k, _)| k.clone())
        {
            self.entries.remove(&key);
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleche_gpu::DramSpec;
    use fleche_workload::spec;

    fn store() -> CpuStore {
        CpuStore::new(&spec::synthetic(2, 1_000, 4, -1.2), DramSpec::xeon_6252())
    }

    #[test]
    fn memoizes_pooled_groups() {
        let s = store();
        let mut rc = ReductionCache::new(64);
        let a = rc.pooled(&s, 0, &[1, 2, 3]);
        assert_eq!(rc.stats().group_misses, 1);
        let b = rc.pooled(&s, 0, &[1, 2, 3]);
        assert_eq!(rc.stats().group_hits, 1);
        assert_eq!(a, b);
        // Matches summing the rows by hand.
        let (r1, r2, r3) = (s.read(0, 1), s.read(0, 2), s.read(0, 3));
        let by_hand: Vec<f32> = (0..r1.len()).map(|i| r1[i] + r2[i] + r3[i]).collect();
        assert_eq!(a, by_hand);
    }

    #[test]
    fn group_key_is_order_insensitive() {
        let s = store();
        let mut rc = ReductionCache::new(64);
        rc.pooled(&s, 0, &[3, 1, 2]);
        rc.pooled(&s, 0, &[1, 2, 3]);
        assert_eq!(rc.stats().group_hits, 1, "permutations share one entry");
        assert_eq!(rc.len(), 1);
    }

    #[test]
    fn different_tables_do_not_share_groups() {
        let s = store();
        let mut rc = ReductionCache::new(64);
        let a = rc.pooled(&s, 0, &[5]);
        let b = rc.pooled(&s, 1, &[5]);
        assert_ne!(a, b);
        assert_eq!(rc.stats().group_misses, 2);
    }

    #[test]
    fn capacity_evicts_lru_group() {
        let s = store();
        let mut rc = ReductionCache::new(2);
        rc.pooled(&s, 0, &[1]);
        rc.pooled(&s, 0, &[2]);
        rc.pooled(&s, 0, &[1]); // refresh group [1]
        rc.pooled(&s, 0, &[3]); // evicts group [2]
        assert_eq!(rc.stats().evictions, 1);
        rc.pooled(&s, 0, &[1]);
        assert_eq!(rc.stats().group_hits, 2, "group [1] survived");
        rc.pooled(&s, 0, &[2]);
        assert_eq!(rc.stats().group_misses, 4, "group [2] was the victim");
    }

    #[test]
    fn one_hot_fields_degenerate_to_point_cache() {
        // With single-ID groups the reduction cache is just a worse point
        // cache — the structural observation behind the paper's rejection.
        let s = store();
        let mut rc = ReductionCache::new(16);
        let v = rc.pooled(&s, 0, &[7]);
        assert_eq!(v, s.read(0, 7), "pooling one vector is the identity");
    }
}
