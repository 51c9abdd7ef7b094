//! The GPU-index abstraction.
//!
//! The paper notes that flat cache's "GPU-resident index can be an
//! arbitrary existing GPU hash index (e.g., MegaKV, SlabHash)". This
//! trait is that seam: both [`SlabHash`](crate::SlabHash) (chained
//! warp-wide slabs) and [`MegaKv`](crate::MegaKv) (bucketed cuckoo)
//! implement it, and flat cache is built against the trait.

use crate::instrument::ProbeStats;
use crate::loc::PackedLoc;
use crate::slab_hash::ScanEntry;

/// Result of an insert into a GPU index.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexInsert {
    /// Key was new; a slot was claimed.
    Inserted,
    /// Key existed; its location and stamp were updated.
    Updated {
        /// The location the slot held before the update.
        previous: PackedLoc,
    },
    /// Key was inserted, but a resident entry had to be displaced to make
    /// room (cuckoo kick-out overflow). The caller owns the victim's
    /// storage (for the cache: retire its pool slot).
    Displaced {
        /// The entry that was pushed out.
        victim: ScanEntry,
    },
    /// The index could not place the key at all; the caller should treat
    /// the value as uncached (cache bypass).
    Rejected,
}

/// A GPU-resident hash index mapping 64-bit flat keys to packed locations,
/// with per-slot logical timestamps.
pub trait GpuIndex: Send + std::fmt::Debug {
    /// Looks up `key`; bumps its timestamp to `touch` on a hit.
    fn lookup(&mut self, key: u64, touch: Option<u32>) -> (Option<PackedLoc>, ProbeStats);

    /// Looks up a batch of keys, handing each key's result and
    /// [`ProbeStats`] to `sink` in input order. Must be observably
    /// identical to calling [`GpuIndex::lookup`] once per key in input
    /// order — the default does exactly that; implementations may
    /// override with a walk that overlaps the keys' memory waits (see
    /// `SlabHash::lookup_batch`).
    fn lookup_batch(
        &mut self,
        keys: &[u64],
        touch: Option<u32>,
        sink: &mut dyn FnMut(Option<PackedLoc>, ProbeStats),
    ) {
        for &k in keys {
            let (found, stats) = self.lookup(k, touch);
            sink(found, stats);
        }
    }

    /// Read-only lookup without instrumentation or timestamp updates.
    fn peek(&self, key: u64) -> Option<PackedLoc>;

    /// Inserts or updates `key -> loc` with timestamp `stamp`.
    fn insert(&mut self, key: u64, loc: PackedLoc, stamp: u32) -> (IndexInsert, ProbeStats);

    /// Removes `key`, returning its location if present.
    fn remove(&mut self, key: u64) -> (Option<PackedLoc>, ProbeStats);

    /// Drops every entry, returning the index to its freshly-built state
    /// without reallocating device structures. Recovery uses this when a
    /// device loss wipes HBM: the slabs survive as capacity, the mappings
    /// do not.
    fn clear(&mut self);

    /// Streams every live entry to `visit` in storage order, one run per
    /// call (a slab or a bucket: up to 32 entries) — the one walk behind
    /// the eviction pass and checkpoint capture, neither of which keeps the
    /// whole index. A run per call lets the caller split entries into its
    /// own buffers without a branch per entry. The stats model one
    /// streaming kernel over the whole structure.
    fn scan_with(&self, visit: &mut dyn FnMut(&[ScanEntry])) -> ProbeStats;

    /// [`GpuIndex::scan_with`] collected into a vector (for tests).
    fn scan(&self) -> (Vec<ScanEntry>, ProbeStats) {
        let mut out = Vec::with_capacity(self.len());
        let stats = self.scan_with(&mut |run| out.extend_from_slice(run));
        (out, stats)
    }

    /// Hints the CPU to fetch what an operation on `key` reads first, a
    /// few operations before it runs. A hint only: no answer, statistic
    /// or stamp depends on it. The default does nothing.
    fn prefetch(&self, _key: u64) {}

    /// Live entries.
    fn len(&self) -> usize;

    /// True when the index holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Device bytes the index structure occupies.
    fn device_bytes(&self) -> u64;

    /// Bucket count (for contention modeling).
    fn bucket_count(&self) -> usize;
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Behavior every `GpuIndex` implementation must exhibit; invoked from
    //! each backend's test module.

    use super::*;
    use crate::loc::Loc;

    fn hbm(slot: u32) -> PackedLoc {
        Loc::Hbm { class: 0, slot }.pack()
    }

    /// Exercises the map contract: insert/lookup/update/remove/scan.
    pub fn check_map_contract(index: &mut dyn GpuIndex) {
        assert!(index.is_empty());
        let (out, _) = index.insert(10, hbm(1), 1);
        assert!(matches!(out, IndexInsert::Inserted));
        assert_eq!(index.len(), 1);
        assert_eq!(index.peek(10), Some(hbm(1)));
        let (found, st) = index.lookup(10, Some(5));
        assert_eq!(found, Some(hbm(1)));
        assert_eq!(st.hits, 1);
        let (out, _) = index.insert(10, hbm(2), 6);
        assert!(matches!(out, IndexInsert::Updated { .. }));
        assert_eq!(index.len(), 1);
        let (miss, st) = index.lookup(11, None);
        assert_eq!(miss, None);
        assert_eq!(st.misses, 1);
        let (removed, _) = index.remove(10);
        assert_eq!(removed, Some(hbm(2)));
        assert!(index.is_empty());
        assert_eq!(index.remove(10).0, None);
    }

    /// Fills the index with `n` keys and verifies scan coverage.
    pub fn check_bulk_and_scan(index: &mut dyn GpuIndex, n: u64) {
        let mut stored = 0u64;
        for k in 1..=n {
            match index.insert(k, hbm(k as u32), k as u32).0 {
                IndexInsert::Inserted => stored += 1,
                IndexInsert::Displaced { .. } => { /* stored, victim gone */ }
                IndexInsert::Updated { .. } => unreachable!("distinct keys"),
                IndexInsert::Rejected => {}
            }
        }
        assert!(stored as usize >= index.len() / 2);
        let (entries, _) = index.scan();
        assert_eq!(entries.len(), index.len());
        for e in &entries {
            assert_eq!(index.peek(e.key), Some(e.loc), "scan entry resolves");
        }
        assert!(index.device_bytes() > 0);
        assert!(index.bucket_count() > 0);
        // Clearing empties the map but keeps its capacity usable.
        let buckets = index.bucket_count();
        index.clear();
        assert!(index.is_empty());
        assert_eq!(index.scan().0.len(), 0);
        assert_eq!(index.bucket_count(), buckets);
        assert!(matches!(
            index.insert(1, hbm(1), 1).0,
            IndexInsert::Inserted
        ));
        assert_eq!(index.peek(1), Some(hbm(1)));
    }
}
