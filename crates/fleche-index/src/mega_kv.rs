//! A MegaKV-style bucketed cuckoo hash index.
//!
//! Models the other GPU index family the paper names (MegaKV, Zhang et
//! al., VLDB '15): fixed buckets of 8 slots, two hash functions per key,
//! inserts resolved by bounded cuckoo displacement. Lookups touch at most
//! two buckets — a shorter, bounded probe chain than SlabHash's linked
//! slabs — at the price of insert-time kick-outs and a hard capacity
//! ceiling. When the kick budget runs out, the last displaced entry is
//! handed back to the caller ([`IndexInsert::Displaced`]); for a cache
//! that is just a forced eviction.

use crate::index_trait::{GpuIndex, IndexInsert};
use crate::instrument::ProbeStats;
use crate::loc::{Loc, PackedLoc};
use crate::slab_hash::ScanEntry;

/// Slots per bucket (one warp inspects a bucket in one coalesced read).
pub(crate) const BUCKET_WIDTH: usize = 8;

/// On-device bytes per bucket: 8 keys (8 B) + 8 locs (8 B) + 8 stamps
/// (4 B).
pub(crate) const BUCKET_BYTES: u64 = (BUCKET_WIDTH as u64) * (8 + 8 + 4);

/// Maximum cuckoo displacements before giving up on an insert.
const MAX_KICKS: usize = 32;

#[derive(Clone, Debug)]
struct Bucket {
    keys: [u64; BUCKET_WIDTH],
    locs: [PackedLoc; BUCKET_WIDTH],
    stamps: [u32; BUCKET_WIDTH],
    occupied: u8,
}

impl Bucket {
    fn empty() -> Bucket {
        Bucket {
            keys: [0; BUCKET_WIDTH],
            locs: [Loc::Hbm { class: 0, slot: 0 }.pack(); BUCKET_WIDTH],
            stamps: [0; BUCKET_WIDTH],
            occupied: 0,
        }
    }

    fn find(&self, key: u64) -> Option<usize> {
        (0..BUCKET_WIDTH).find(|&i| self.occupied & (1 << i) != 0 && self.keys[i] == key)
    }

    fn first_free(&self) -> Option<usize> {
        (0..BUCKET_WIDTH).find(|&i| self.occupied & (1 << i) == 0)
    }
}

/// The bucketed cuckoo index.
#[derive(Debug)]
pub struct MegaKv {
    buckets: Vec<Bucket>,
    len: usize,
    seed: u64,
}

impl MegaKv {
    /// Creates an index with `buckets` buckets (rounded up to a power of
    /// two, minimum 2 so the two hash functions can disagree).
    pub fn new(buckets: usize) -> MegaKv {
        let n = buckets.max(2).next_power_of_two();
        MegaKv {
            buckets: vec![Bucket::empty(); n],
            len: 0,
            seed: 0x94D0_49BB_1331_11EB,
        }
    }

    /// Sizes the index for `capacity` entries at ~75% target load (cuckoo
    /// tables degrade sharply beyond that).
    pub fn for_capacity(capacity: usize) -> MegaKv {
        let slots_needed = (capacity as f64 / 0.75).ceil() as usize;
        MegaKv::new(slots_needed.div_ceil(BUCKET_WIDTH))
    }

    #[inline]
    fn hash(&self, key: u64, which: u32) -> usize {
        let mut x = key ^ self.seed.rotate_left(which * 17);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x as usize) & (self.buckets.len() - 1)
    }

    fn alternate(&self, key: u64, current: usize) -> usize {
        let h0 = self.hash(key, 0);
        let h1 = self.hash(key, 1);
        if current == h0 {
            h1
        } else {
            h0
        }
    }
}

impl GpuIndex for MegaKv {
    fn lookup(&mut self, key: u64, touch: Option<u32>) -> (Option<PackedLoc>, ProbeStats) {
        let mut stats = ProbeStats::new();
        for which in 0..2u32 {
            let b = self.hash(key, which);
            stats.slabs_visited += 1;
            stats.bytes_touched += BUCKET_BYTES;
            stats.max_chain = stats.max_chain.max(which + 1);
            if let Some(i) = self.buckets[b].find(key) {
                if let Some(now) = touch {
                    self.buckets[b].stamps[i] = now;
                    stats.atomics += 1;
                }
                stats.hits += 1;
                return (Some(self.buckets[b].locs[i]), stats);
            }
        }
        stats.misses += 1;
        (None, stats)
    }

    fn peek(&self, key: u64) -> Option<PackedLoc> {
        for which in 0..2u32 {
            let b = self.hash(key, which);
            if let Some(i) = self.buckets[b].find(key) {
                return Some(self.buckets[b].locs[i]);
            }
        }
        None
    }

    fn insert(&mut self, key: u64, loc: PackedLoc, stamp: u32) -> (IndexInsert, ProbeStats) {
        let mut stats = ProbeStats::new();
        // Update in place if present.
        for which in 0..2u32 {
            let b = self.hash(key, which);
            stats.slabs_visited += 1;
            stats.bytes_touched += BUCKET_BYTES;
            if let Some(i) = self.buckets[b].find(key) {
                let previous = self.buckets[b].locs[i];
                self.buckets[b].locs[i] = loc;
                self.buckets[b].stamps[i] = stamp;
                stats.atomics += 1;
                stats.hits += 1;
                return (IndexInsert::Updated { previous }, stats);
            }
        }
        stats.misses += 1;
        // Place with bounded cuckoo displacement.
        let mut cur = ScanEntry { key, loc, stamp };
        let mut bucket = self.hash(cur.key, 0);
        for kick in 0..=MAX_KICKS {
            stats.slabs_visited += 1;
            stats.bytes_touched += BUCKET_BYTES;
            stats.max_chain = stats.max_chain.max(kick as u32 + 1);
            if let Some(i) = self.buckets[bucket].first_free() {
                self.buckets[bucket].keys[i] = cur.key;
                self.buckets[bucket].locs[i] = cur.loc;
                self.buckets[bucket].stamps[i] = cur.stamp;
                self.buckets[bucket].occupied |= 1 << i;
                stats.atomics += 1;
                self.len += 1;
                return (
                    if cur.key == key {
                        IndexInsert::Inserted
                    } else {
                        // The original key landed earlier; the chain ended
                        // by placing a displaced entry.
                        IndexInsert::Inserted
                    },
                    stats,
                );
            }
            // Displace the stalest entry of the full bucket: the first lane
            // holding the smallest stamp.
            let stamps = &self.buckets[bucket].stamps;
            let i = (1..BUCKET_WIDTH)
                .fold(0, |i, lane| if stamps[lane] < stamps[i] { lane } else { i });
            let victim = ScanEntry {
                key: self.buckets[bucket].keys[i],
                loc: self.buckets[bucket].locs[i],
                stamp: self.buckets[bucket].stamps[i],
            };
            self.buckets[bucket].keys[i] = cur.key;
            self.buckets[bucket].locs[i] = cur.loc;
            self.buckets[bucket].stamps[i] = cur.stamp;
            stats.atomics += 2;
            cur = victim;
            bucket = self.alternate(cur.key, bucket);
        }
        // Kick budget exhausted: `cur` is some displaced victim that no
        // longer fits. The requested key itself was placed along the way.
        // (len unchanged: one in, one out.)
        (IndexInsert::Displaced { victim: cur }, stats)
    }

    fn remove(&mut self, key: u64) -> (Option<PackedLoc>, ProbeStats) {
        let mut stats = ProbeStats::new();
        for which in 0..2u32 {
            let b = self.hash(key, which);
            stats.slabs_visited += 1;
            stats.bytes_touched += BUCKET_BYTES;
            if let Some(i) = self.buckets[b].find(key) {
                self.buckets[b].occupied &= !(1 << i);
                stats.atomics += 1;
                stats.hits += 1;
                self.len -= 1;
                return (Some(self.buckets[b].locs[i]), stats);
            }
        }
        stats.misses += 1;
        (None, stats)
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            *b = Bucket::empty();
        }
        self.len = 0;
    }

    fn scan_with(&self, visit: &mut dyn FnMut(&[ScanEntry])) -> ProbeStats {
        let mut stats = ProbeStats::new();
        let mut run = Vec::with_capacity(BUCKET_WIDTH);
        for b in &self.buckets {
            stats.slabs_visited += 1;
            stats.bytes_touched += BUCKET_BYTES;
            run.clear();
            run.extend(
                (0..BUCKET_WIDTH)
                    .filter(|&i| b.occupied & (1 << i) != 0)
                    .map(|i| ScanEntry {
                        key: b.keys[i],
                        loc: b.locs[i],
                        stamp: b.stamps[i],
                    }),
            );
            visit(&run);
        }
        stats
    }

    /// One bucket visited per bucket: the table never grows.
    fn scan_stats(&self) -> ProbeStats {
        let buckets = self.buckets.len() as u64;
        ProbeStats {
            slabs_visited: buckets,
            bytes_touched: buckets * BUCKET_BYTES,
            ..ProbeStats::new()
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn device_bytes(&self) -> u64 {
        self.buckets.len() as u64 * BUCKET_BYTES
    }

    fn bucket_count(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_trait::conformance;

    #[test]
    fn map_contract() {
        let mut idx = MegaKv::new(16);
        conformance::check_map_contract(&mut idx);
    }

    #[test]
    fn bulk_and_scan() {
        let mut idx = MegaKv::for_capacity(1_000);
        conformance::check_bulk_and_scan(&mut idx, 1_000);
    }

    #[test]
    fn lookup_touches_at_most_two_buckets() {
        let mut idx = MegaKv::for_capacity(10_000);
        for k in 1..=10_000u64 {
            idx.insert(
                k,
                Loc::Hbm {
                    class: 0,
                    slot: k as u32,
                }
                .pack(),
                0,
            );
        }
        for k in (1..=10_000u64).step_by(97) {
            let (found, stats) = idx.lookup(k, None);
            if found.is_some() {
                assert!(stats.slabs_visited <= 2, "cuckoo probes bounded");
                assert!(stats.max_chain <= 2);
            }
        }
    }

    #[test]
    fn overload_displaces_instead_of_looping() {
        // A tiny table overfilled: inserts must terminate and report
        // displacements, with len bounded by capacity.
        let mut idx = MegaKv::new(2); // 2 buckets = 16 slots
        let cap = idx.bucket_count() * BUCKET_WIDTH;
        let mut displaced = 0;
        for k in 1..=200u64 {
            match idx
                .insert(
                    k,
                    Loc::Hbm {
                        class: 0,
                        slot: k as u32,
                    }
                    .pack(),
                    k as u32,
                )
                .0
            {
                IndexInsert::Displaced { victim } => {
                    displaced += 1;
                    assert_ne!(victim.key, 0);
                }
                IndexInsert::Inserted | IndexInsert::Updated { .. } | IndexInsert::Rejected => {}
            }
        }
        assert!(idx.len() <= cap);
        assert!(displaced > 0, "overload must displace");
    }

    #[test]
    fn displacement_prefers_stale_entries() {
        let mut idx = MegaKv::new(2);
        // Fill completely with old stamps, then insert hot entries: the
        // displaced victims should be predominantly old.
        for k in 1..=16u64 {
            idx.insert(
                k,
                Loc::Hbm {
                    class: 0,
                    slot: k as u32,
                }
                .pack(),
                1,
            );
        }
        let mut victims = Vec::new();
        for k in 100..=110u64 {
            if let IndexInsert::Displaced { victim } =
                idx.insert(k, Loc::Hbm { class: 0, slot: 0 }.pack(), 100).0
            {
                victims.push(victim.stamp);
            }
        }
        assert!(!victims.is_empty());
        assert!(victims.iter().filter(|&&s| s == 1).count() * 2 >= victims.len());
    }

    #[test]
    fn device_bytes_are_fixed_at_construction() {
        let idx = MegaKv::new(64);
        let before = idx.device_bytes();
        let mut idx = idx;
        for k in 1..=100u64 {
            idx.insert(k, Loc::Hbm { class: 0, slot: 0 }.pack(), 0);
        }
        assert_eq!(idx.device_bytes(), before, "no dynamic growth");
    }
}
