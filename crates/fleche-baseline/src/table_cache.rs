//! One static per-table cache.
//!
//! The baseline scheme (the paper's description of HugeCTR-Inference's
//! GPU cache, §2.2) keeps a separate fixed-size cache table per embedding
//! table: its own index, its own value slots, its own LRU. Capacity is the
//! same *proportion* of each table's corpus, which is precisely the
//! structural rigidity flat cache removes.

use fleche_index::{ClassSpec, GpuIndex, Loc, ProbeStats, SlabHash, SlabPool};

/// Result of looking up a batch of keys in one table cache.
#[derive(Debug, Default)]
pub struct TableLookup {
    /// `(position in the queried list, value slot)` for every hit.
    pub hits: Vec<(usize, u32)>,
    /// Positions (into the queried list) that missed.
    pub missing: Vec<usize>,
    /// Aggregated probe instrumentation.
    pub stats: ProbeStats,
}

/// A fixed-capacity cache for one embedding table.
#[derive(Debug)]
pub struct TableCache {
    index: SlabHash,
    pool: SlabPool,
    dim: u32,
    capacity_slots: u32,
    /// Eviction sampling width (entries examined per forced eviction).
    sample_width: usize,
    evictions: u64,
}

impl TableCache {
    /// Creates a cache with room for `capacity_slots` embeddings of
    /// dimension `dim`.
    pub fn new(capacity_slots: u32, dim: u32) -> TableCache {
        let capacity_slots = capacity_slots.max(1);
        TableCache {
            index: SlabHash::for_capacity(capacity_slots as usize),
            pool: SlabPool::new(&[ClassSpec {
                dim,
                slots: capacity_slots,
            }]),
            dim,
            capacity_slots,
            sample_width: 8,
            evictions: 0,
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Capacity in embedding slots.
    pub fn capacity_slots(&self) -> u32 {
        self.capacity_slots
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Forced evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Bucket chains in this cache's index (contention modeling).
    pub fn bucket_count(&self) -> usize {
        self.index.bucket_count()
    }

    /// Device bytes used by this cache (index + values).
    pub fn device_bytes(&self) -> u64 {
        self.index.device_bytes() + self.pool.capacity_bytes()
    }

    /// Looks up `keys`, bumping hit timestamps to `stamp`.
    pub fn lookup_batch(&mut self, keys: &[u64], stamp: u32) -> TableLookup {
        let mut out = TableLookup::default();
        for (i, &k) in keys.iter().enumerate() {
            let (found, s) = self.index.lookup(k, Some(stamp));
            out.stats.merge(&s);
            match found.map(|p| p.unpack()) {
                Some(Loc::Hbm { slot, .. }) => out.hits.push((i, slot)),
                Some(Loc::Dram { .. }) => {
                    // The baseline never stores DRAM pointers; treat
                    // defensively as a miss.
                    out.missing.push(i);
                }
                None => out.missing.push(i),
            }
        }
        out
    }

    /// Reads the embedding cached in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live (an internal-consistency bug).
    pub fn read_slot(&self, slot: u32) -> &[f32] {
        self.pool
            .read(0, slot)
            .expect("lookup returned a slot that is not live")
    }

    /// Inserts `key -> value`, evicting a sampled-LRU victim if full.
    /// Returns instrumentation for the insert (and eviction, if any).
    pub fn insert(&mut self, key: u64, value: &[f32], stamp: u32) -> ProbeStats {
        let mut stats = ProbeStats::new();
        // Already cached (e.g. raced in this batch): refresh the value.
        if let Some(loc) = self.index.peek(key) {
            if let Loc::Hbm { slot, .. } = loc.unpack() {
                let s = self
                    .pool
                    .write(0, slot, value)
                    .expect("indexed slot must be live");
                stats.merge(&s);
                let (_, s2) = self.index.insert(key, loc, stamp);
                stats.merge(&s2);
                return stats;
            }
        }
        let slot = match self.pool.alloc(0) {
            Ok((slot, s)) => {
                stats.merge(&s);
                slot
            }
            Err(_) => self.evict_one(stamp, &mut stats),
        };
        let s = self
            .pool
            .write(0, slot, value)
            .expect("freshly allocated slot is live");
        stats.merge(&s);
        let (_, s2) = self
            .index
            .insert(key, Loc::Hbm { class: 0, slot }.pack(), stamp);
        stats.merge(&s2);
        stats
    }

    /// Evicts the oldest of a small sample, returning its freed slot
    /// (re-allocated for the caller).
    fn evict_one(&mut self, seed_stamp: u32, stats: &mut ProbeStats) -> u32 {
        let (sample, s) = self
            .index
            .sample_entries(self.sample_width, seed_stamp as u64 ^ self.evictions);
        stats.merge(&s);
        let victim = sample
            .iter()
            .min_by_key(|e| e.stamp)
            .copied()
            .expect("cache is full, so sampling must find entries");
        let (_, s2) = self.index.remove(victim.key);
        stats.merge(&s2);
        let Loc::Hbm { slot, .. } = victim.loc.unpack() else {
            unreachable!("baseline caches only store HBM locations");
        };
        self.pool.free(0, slot).expect("victim slot was live");
        self.evictions += 1;
        let (slot, s3) = self.pool.alloc(0).expect("just freed a slot");
        stats.merge(&s3);
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(tag: f32, dim: usize) -> Vec<f32> {
        (0..dim).map(|i| tag + i as f32).collect()
    }

    #[test]
    fn insert_then_hit_returns_same_bytes() {
        let mut c = TableCache::new(16, 4);
        c.insert(7, &value(1.0, 4), 1);
        let r = c.lookup_batch(&[7, 8], 2);
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.missing, vec![1]);
        let (pos, slot) = r.hits[0];
        assert_eq!(pos, 0);
        assert_eq!(c.read_slot(slot), value(1.0, 4).as_slice());
    }

    #[test]
    fn reinsert_updates_value() {
        let mut c = TableCache::new(4, 4);
        c.insert(1, &value(1.0, 4), 1);
        c.insert(1, &value(9.0, 4), 2);
        assert_eq!(c.len(), 1);
        let r = c.lookup_batch(&[1], 3);
        let (_, slot) = r.hits[0];
        assert_eq!(c.read_slot(slot), value(9.0, 4).as_slice());
    }

    #[test]
    fn full_cache_evicts_lru() {
        let mut c = TableCache::new(4, 2);
        for k in 0..4u64 {
            c.insert(k, &value(k as f32, 2), k as u32);
        }
        assert_eq!(c.len(), 4);
        // Touch keys 1..4 at a late stamp so key 0 is the LRU.
        c.lookup_batch(&[1, 2, 3], 100);
        c.insert(99, &value(99.0, 2), 101);
        assert_eq!(c.len(), 4, "capacity is fixed");
        assert_eq!(c.evictions(), 1);
        // Key 0 should have been the victim (sampled LRU examines all 4
        // entries with sample width 8).
        let r = c.lookup_batch(&[0], 102);
        assert_eq!(r.hits.len(), 0, "LRU key evicted");
        let r = c.lookup_batch(&[99], 103);
        assert_eq!(r.hits.len(), 1);
    }

    #[test]
    fn capacity_one_still_works() {
        let mut c = TableCache::new(1, 2);
        c.insert(1, &value(1.0, 2), 1);
        c.insert(2, &value(2.0, 2), 2);
        assert_eq!(c.len(), 1);
        let r = c.lookup_batch(&[2], 3);
        assert_eq!(r.hits.len(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let c = TableCache::new(0, 2);
        assert_eq!(c.capacity_slots(), 1);
    }

    #[test]
    fn lookup_stats_accumulate() {
        let mut c = TableCache::new(8, 2);
        c.insert(1, &value(1.0, 2), 1);
        let r = c.lookup_batch(&[1, 2, 3], 2);
        assert_eq!(r.stats.hits, 1);
        assert_eq!(r.stats.misses, 2);
        assert!(r.stats.bytes_touched > 0);
    }

    #[test]
    fn device_bytes_accounts_index_and_pool() {
        let c = TableCache::new(100, 32);
        assert!(c.device_bytes() > 100 * 32 * 4);
    }
}
