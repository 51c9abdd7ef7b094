//! A SlabHash-style bucketed hash index.
//!
//! Models the GPU hash index the paper builds flat cache on (SlabHash,
//! Ashkiani et al., IPDPS '18): each bucket is a linked list of warp-wide
//! *slabs* of 32 slots, so one warp inspects a whole slab with a single
//! coalesced read. Each slot carries a logical timestamp that doubles as
//! the approximate-LRU age and as a version for read/write conflict
//! detection, exactly as flat cache's metadata-minimization argument
//! requires (no per-entry size, no extra lock words).
//!
//! The structure is functionally exact; every operation returns a
//! [`ProbeStats`] describing the traffic a warp-cooperative kernel doing
//! the same walk would generate.

use crate::index_trait::{GpuIndex, IndexInsert};
use crate::instrument::ProbeStats;
use crate::loc::PackedLoc;

/// Slots per slab — one GPU warp inspects one slab per round.
pub const SLAB_WIDTH: usize = 32;

/// On-device bytes per slab: 32 keys (8 B) + 32 locs (8 B) + 32 stamps
/// (4 B) + next pointer & occupancy word.
pub(crate) const SLAB_BYTES: u64 = (SLAB_WIDTH as u64) * (8 + 8 + 4) + 8;

/// How many keys ahead of the one being probed [`SlabHash::lookup_batch`]
/// prefetches the bucket's chain head (the pointer to its first slab).
const HEAD_AHEAD: usize = 12;
/// How many keys ahead it prefetches that first slab's occupancy word and
/// key array — closer than [`HEAD_AHEAD`] because it must read the chain
/// head, which by then has arrived.
const SLAB_AHEAD: usize = 6;
/// How many buckets ahead of the one being visited [`SlabHash::scan_with`]
/// prefetches the head slab.
const SCAN_AHEAD: usize = 4;

/// `repr(C)` keeps the occupancy word on the cache line the key scan
/// starts on; a probe reads it first, then the keys.
#[derive(Clone, Debug)]
#[repr(C)]
struct Slab {
    occupied: u32,
    keys: [u64; SLAB_WIDTH],
    locs: [PackedLoc; SLAB_WIDTH],
    stamps: [u32; SLAB_WIDTH],
}

impl Slab {
    fn empty() -> Slab {
        Slab {
            occupied: 0,
            keys: [0; SLAB_WIDTH],
            locs: [PackedLoc::from(crate::loc::Loc::Hbm { class: 0, slot: 0 }); SLAB_WIDTH],
            stamps: [0; SLAB_WIDTH],
        }
    }

    /// Hints every cache line a key scan of this slab can touch: the
    /// occupancy word and the 256-byte key array behind it.
    #[inline]
    fn prefetch_keys(&self) {
        fleche_simd::prefetch_read(&self.occupied);
        for i in (7..SLAB_WIDTH).step_by(8) {
            fleche_simd::prefetch_read(&self.keys[i]);
        }
    }

    /// Hints every cache line a full scan of this slab reads: one hint per
    /// 64 bytes from the occupancy word to the last stamp.
    #[inline]
    fn prefetch_all(&self) {
        self.prefetch_keys();
        for i in (0..SLAB_WIDTH).step_by(8) {
            fleche_simd::prefetch_read(&self.locs[i]);
        }
        for i in (0..SLAB_WIDTH).step_by(16).chain([SLAB_WIDTH - 1]) {
            fleche_simd::prefetch_read(&self.stamps[i]);
        }
    }

    /// Mask-based key scan: iterate only the *set* bits of `occupied`
    /// via `trailing_zeros` (clearing each visited bit with `m &= m-1`),
    /// compare that slot's key, and return on the first hit. Same
    /// (lowest-index) result as the old per-bit scan, but unoccupied
    /// slots are never examined and stale keys in them are skipped by
    /// construction, not by a per-slot flag test.
    ///
    /// This early-exit bit walk beats both a per-slot
    /// `occupied & (1<<i)` scan and a whole-slab 32-wide SIMD compare: the
    /// hit is usually found within a few set bits, so a full-width
    /// compare — let alone a runtime-dispatch branch and a non-inlinable
    /// `#[target_feature]` call — does strictly more work per probe
    /// (measured, DESIGN §9.4).
    fn find(&self, key: u64) -> Option<usize> {
        let mut m = self.occupied;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            if self.keys[i] == key {
                return Some(i);
            }
            m &= m - 1;
        }
        None
    }

    /// Lowest unoccupied slot via one bit-not + `trailing_zeros`.
    fn first_free(&self) -> Option<usize> {
        if self.occupied == u32::MAX {
            None
        } else {
            Some((!self.occupied).trailing_zeros() as usize)
        }
    }
}

/// An entry yielded by a full-table scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanEntry {
    /// The flat key.
    pub key: u64,
    /// Where its value lives.
    pub loc: PackedLoc,
    /// Last-touch logical timestamp.
    pub stamp: u32,
}

/// The slab-list hash index.
///
/// ```
/// use fleche_index::{GpuIndex, Loc, SlabHash};
///
/// let mut index = SlabHash::for_capacity(1_000);
/// index.insert(42, Loc::Hbm { class: 0, slot: 7 }.pack(), 1);
/// let (found, stats) = index.lookup(42, Some(2));
/// assert_eq!(found.map(|p| p.unpack()), Some(Loc::Hbm { class: 0, slot: 7 }));
/// assert_eq!(stats.hits, 1);
/// assert_eq!(index.stamp_of(42), Some(2)); // LRU stamp was bumped
/// ```
#[derive(Clone, Debug)]
pub struct SlabHash {
    buckets: Vec<Vec<Slab>>,
    len: usize,
    /// Slabs across all chains: a chain only grows until [`GpuIndex::clear`].
    slabs: usize,
    /// Multiplicative hash seed; varied in tests to exercise collisions.
    seed: u64,
}

impl SlabHash {
    /// Creates an index with `buckets` bucket chains (rounded up to a
    /// power of two, minimum 1).
    pub fn new(buckets: usize) -> SlabHash {
        SlabHash::with_seed(buckets, 0x9E37_79B9_7F4A_7C15)
    }

    /// Like [`SlabHash::new`] with an explicit hash seed.
    pub fn with_seed(buckets: usize, seed: u64) -> SlabHash {
        let n = buckets.max(1).next_power_of_two();
        SlabHash {
            buckets: vec![Vec::new(); n],
            len: 0,
            slabs: 0,
            seed,
        }
    }

    /// Sizes an index for `capacity` entries at a target load factor of
    /// ~75% of one slab per bucket.
    pub fn for_capacity(capacity: usize) -> SlabHash {
        let per_bucket = (SLAB_WIDTH * 3) / 4; // leave slack before chaining
        SlabHash::new(capacity.div_ceil(per_bucket.max(1)))
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        // Multiplicative Fibonacci hashing; buckets.len() is a power of two.
        let h = key.wrapping_mul(self.seed);
        (h >> 32) as usize & (self.buckets.len() - 1)
    }

    #[inline]
    fn prefetch_first_slab(&self, key: u64) {
        if let Some(slab) = self.buckets[self.bucket_of(key)].first() {
            slab.prefetch_keys();
        }
    }

    /// Runs `op` on each key in input order while the chain head of the key
    /// [`HEAD_AHEAD`] places on and the first slab of the key
    /// [`SLAB_AHEAD`] places on are already on their way. The hints change
    /// nothing `op` sees.
    fn pipelined(&mut self, keys: &[u64], mut op: impl FnMut(&mut SlabHash, u64)) {
        for &key in keys.iter().take(HEAD_AHEAD) {
            fleche_simd::prefetch_read(&self.buckets[self.bucket_of(key)]);
        }
        for &key in keys.iter().take(SLAB_AHEAD) {
            self.prefetch_first_slab(key);
        }
        for (i, &key) in keys.iter().enumerate() {
            if let Some(&ahead) = keys.get(i + HEAD_AHEAD) {
                fleche_simd::prefetch_read(&self.buckets[self.bucket_of(ahead)]);
            }
            if let Some(&ahead) = keys.get(i + SLAB_AHEAD) {
                self.prefetch_first_slab(ahead);
            }
            op(self, key);
        }
    }

    /// Returns the stamp stored for `key`, if present.
    pub fn stamp_of(&self, key: u64) -> Option<u32> {
        let b = self.bucket_of(key);
        self.buckets[b]
            .iter()
            .find_map(|s| s.find(key).map(|i| s.stamps[i]))
    }

    /// Samples up to `n` live entries by probing pseudo-random buckets
    /// (seeded by `seed`), the way a sampled-LRU eviction kernel would.
    /// Returns fewer than `n` when the table is sparse.
    pub fn sample_entries(&self, n: usize, seed: u64) -> (Vec<ScanEntry>, ProbeStats) {
        let mut out = Vec::with_capacity(n);
        let mut stats = ProbeStats::new();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        // Bounded probing: visiting 4n buckets is enough unless the table
        // is nearly empty.
        for _ in 0..n.saturating_mul(4).max(8) {
            if out.len() >= n {
                break;
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let b = (state as usize) & (self.buckets.len() - 1);
            for slab in &self.buckets[b] {
                stats.slabs_visited += 1;
                stats.bytes_touched += SLAB_BYTES;
                for i in 0..SLAB_WIDTH {
                    if slab.occupied & (1 << i) != 0 && out.len() < n {
                        out.push(ScanEntry {
                            key: slab.keys[i],
                            loc: slab.locs[i],
                            stamp: slab.stamps[i],
                        });
                    }
                }
                if out.len() >= n {
                    break;
                }
            }
        }
        (out, stats)
    }
}

impl GpuIndex for SlabHash {
    /// Looks up `key`. On a hit, when `touch` is set the slot's timestamp
    /// is bumped to it (the approximate-LRU access path).
    fn lookup(&mut self, key: u64, touch: Option<u32>) -> (Option<PackedLoc>, ProbeStats) {
        let b = self.bucket_of(key);
        let mut stats = ProbeStats::new();
        stats.bytes_touched += 8; // bucket head pointer
        for (depth, slab) in self.buckets[b].iter_mut().enumerate() {
            stats.slabs_visited += 1;
            stats.bytes_touched += SLAB_BYTES;
            if let Some(i) = slab.find(key) {
                if let Some(now) = touch {
                    slab.stamps[i] = now;
                    stats.atomics += 1;
                }
                stats.max_chain = stats.max_chain.max(depth as u32 + 1);
                stats.hits += 1;
                return (Some(slab.locs[i]), stats);
            }
        }
        stats.max_chain = stats.max_chain.max(self.buckets[b].len() as u32);
        stats.misses += 1;
        (None, stats)
    }

    /// Batched lookup: probes `keys` in input order and hands each key's
    /// answer and [`ProbeStats`] to `sink`, exactly what
    /// [`GpuIndex::lookup`] returns for it (same walk, same stamp bump).
    ///
    /// A single probe is a chain of dependent memory waits — bucket head,
    /// then slab — and the index is far larger than the CPU's caches, so
    /// per-key probing spends most of its time waiting. Keys of a batch
    /// are independent, which is what the paper's warp-parallel index
    /// kernel exploits; the host analogue is a software pipeline: while
    /// key `i` is probed, the chain head of key `i + HEAD_AHEAD` and the
    /// first slab of key `i + SLAB_AHEAD` are already on their way.
    /// Prefetches are hints: they change no answer, no statistic and no
    /// stamp, so input order is kept (nothing downstream has to be
    /// re-ordered) and there is no batch size at which the walk loses to
    /// per-key probing by more than the hint instructions.
    fn lookup_batch(
        &mut self,
        keys: &[u64],
        touch: Option<u32>,
        sink: &mut dyn FnMut(Option<PackedLoc>, ProbeStats),
    ) {
        self.pipelined(keys, |index, key| {
            let (found, stats) = index.lookup(key, touch);
            sink(found, stats);
        });
    }

    /// Batched removal: [`GpuIndex::remove`] per key in input order,
    /// through the same prefetch pipeline as [`SlabHash::lookup_batch`].
    fn remove_batch(&mut self, keys: &[u64], sink: &mut dyn FnMut(Option<PackedLoc>, ProbeStats)) {
        self.pipelined(keys, |index, key| {
            let (removed, stats) = index.remove(key);
            sink(removed, stats);
        });
    }

    /// Read-only lookup (no timestamp bump, no instrumentation) for tests
    /// and oracles.
    fn peek(&self, key: u64) -> Option<PackedLoc> {
        let b = self.bucket_of(key);
        self.buckets[b]
            .iter()
            .find_map(|s| s.find(key).map(|i| s.locs[i]))
    }

    /// Inserts or updates `key -> loc`, stamping the slot with `stamp`.
    fn insert(&mut self, key: u64, loc: PackedLoc, stamp: u32) -> (IndexInsert, ProbeStats) {
        let b = self.bucket_of(key);
        let mut stats = ProbeStats::new();
        stats.bytes_touched += 8; // bucket head pointer
        let chain = &mut self.buckets[b];

        // Pass 1: existing key or first free slot.
        let mut free: Option<(usize, usize)> = None;
        for (depth, slab) in chain.iter_mut().enumerate() {
            stats.slabs_visited += 1;
            stats.bytes_touched += SLAB_BYTES;
            stats.max_chain = stats.max_chain.max(depth as u32 + 1);
            if let Some(i) = slab.find(key) {
                let previous = slab.locs[i];
                slab.locs[i] = loc;
                slab.stamps[i] = stamp;
                stats.atomics += 1;
                stats.hits += 1;
                return (IndexInsert::Updated { previous }, stats);
            }
            if free.is_none() {
                if let Some(i) = slab.first_free() {
                    free = Some((depth, i));
                }
            }
        }
        stats.misses += 1;

        let (depth, i) = match free {
            Some(pos) => pos,
            None => {
                // Allocate and link a fresh slab (one atomic to swing the
                // next pointer).
                chain.push(Slab::empty());
                self.slabs += 1;
                stats.atomics += 1;
                stats.bytes_touched += SLAB_BYTES;
                (chain.len() - 1, 0)
            }
        };
        let slab = &mut chain[depth];
        slab.keys[i] = key;
        slab.locs[i] = loc;
        slab.stamps[i] = stamp;
        slab.occupied |= 1 << i;
        stats.atomics += 1; // slot claim CAS
        self.len += 1;
        (IndexInsert::Inserted, stats)
    }

    /// Removes `key`, returning its location if it was present.
    fn remove(&mut self, key: u64) -> (Option<PackedLoc>, ProbeStats) {
        let b = self.bucket_of(key);
        let mut stats = ProbeStats::new();
        stats.bytes_touched += 8; // bucket head pointer
        for (depth, slab) in self.buckets[b].iter_mut().enumerate() {
            stats.slabs_visited += 1;
            stats.bytes_touched += SLAB_BYTES;
            stats.max_chain = stats.max_chain.max(depth as u32 + 1);
            if let Some(i) = slab.find(key) {
                slab.occupied &= !(1 << i);
                stats.atomics += 1;
                stats.hits += 1;
                self.len -= 1;
                return (Some(slab.locs[i]), stats);
            }
        }
        stats.misses += 1;
        (None, stats)
    }

    /// Drops every entry and slab chain, keeping the bucket array. The
    /// recovery path uses this after a device loss: chains were HBM
    /// contents and are gone, the bucket heads are re-initialized state.
    fn clear(&mut self) {
        for chain in &mut self.buckets {
            chain.clear();
        }
        self.len = 0;
        self.slabs = 0;
    }

    /// Full-table scan in storage order (the eviction pass and checkpoint
    /// capture), handing `visit` each slab's live entries as one run. The
    /// returned stats model one streaming kernel over all slabs.
    ///
    /// Each bucket's slabs are a separate allocation, so the walk is a
    /// pointer chase the hardware prefetcher cannot follow: while bucket
    /// `b` is visited, the head slab of bucket `b + SCAN_AHEAD` is already
    /// on its way. The hint changes no entry, order or statistic.
    fn scan_with(&self, visit: &mut dyn FnMut(&[ScanEntry])) -> ProbeStats {
        let mut stats = ProbeStats::new();
        let vacant = ScanEntry {
            key: 0,
            loc: PackedLoc::from(crate::loc::Loc::Hbm { class: 0, slot: 0 }),
            stamp: 0,
        };
        let mut run = [vacant; SLAB_WIDTH];
        for (b, chain) in self.buckets.iter().enumerate() {
            if let Some(slab) = self.buckets.get(b + SCAN_AHEAD).and_then(|c| c.first()) {
                slab.prefetch_all();
            }
            for slab in chain {
                stats.slabs_visited += 1;
                stats.bytes_touched += SLAB_BYTES;
                let mut m = slab.occupied;
                let mut n = 0;
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    run[n] = ScanEntry {
                        key: slab.keys[i],
                        loc: slab.locs[i],
                        stamp: slab.stamps[i],
                    };
                    n += 1;
                    m &= m - 1;
                }
                visit(&run[..n]);
            }
        }
        stats
    }

    /// One slab visited per slab in the chains, from the running count.
    fn scan_stats(&self) -> ProbeStats {
        let slabs = self.slabs as u64;
        ProbeStats {
            slabs_visited: slabs,
            bytes_touched: slabs * SLAB_BYTES,
            ..ProbeStats::new()
        }
    }

    /// Number of live entries.
    fn len(&self) -> usize {
        self.len
    }

    /// Device bytes consumed by slab storage right now.
    fn device_bytes(&self) -> u64 {
        self.slabs as u64 * SLAB_BYTES + (self.buckets.len() as u64) * 8
    }

    /// Number of bucket chains.
    fn bucket_count(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::Loc;

    fn hbm(slot: u32) -> PackedLoc {
        Loc::Hbm { class: 0, slot }.pack()
    }

    /// Mean slab-chain length over the non-empty buckets.
    fn mean_chain_len(h: &SlabHash) -> f64 {
        let non_empty: Vec<_> = h.buckets.iter().filter(|c| !c.is_empty()).collect();
        if non_empty.is_empty() {
            return 0.0;
        }
        non_empty.iter().map(|c| c.len()).sum::<usize>() as f64 / non_empty.len() as f64
    }

    #[test]
    fn insert_lookup_remove_round_trip() {
        let mut h = SlabHash::new(8);
        assert!(h.is_empty());
        let (out, _) = h.insert(42, hbm(7), 1);
        assert_eq!(out, IndexInsert::Inserted);
        assert_eq!(h.len(), 1);
        let (found, stats) = h.lookup(42, None);
        assert_eq!(found, Some(hbm(7)));
        assert_eq!(stats.hits, 1);
        let (removed, _) = h.remove(42);
        assert_eq!(removed, Some(hbm(7)));
        assert!(h.is_empty());
        let (gone, stats) = h.lookup(42, None);
        assert_eq!(gone, None);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn update_replaces_and_reports_previous() {
        let mut h = SlabHash::new(8);
        h.insert(1, hbm(10), 1);
        let (out, _) = h.insert(1, hbm(20), 2);
        assert_eq!(out, IndexInsert::Updated { previous: hbm(10) });
        assert_eq!(h.len(), 1);
        assert_eq!(h.peek(1), Some(hbm(20)));
        assert_eq!(h.stamp_of(1), Some(2));
    }

    #[test]
    fn touch_bumps_timestamp() {
        let mut h = SlabHash::new(8);
        h.insert(5, hbm(1), 10);
        let _ = h.lookup(5, Some(99));
        assert_eq!(h.stamp_of(5), Some(99));
        let _ = h.lookup(5, None);
        assert_eq!(h.stamp_of(5), Some(99));
    }

    #[test]
    fn chains_grow_under_collisions() {
        // One bucket forces every key into the same chain.
        let mut h = SlabHash::new(1);
        for k in 1..=(SLAB_WIDTH as u64 * 3) {
            h.insert(k, hbm(k as u32), 0);
        }
        assert_eq!(h.len(), SLAB_WIDTH * 3);
        assert!(mean_chain_len(&h) >= 3.0);
        // Deep keys report long chains.
        let (found, stats) = h.lookup(SLAB_WIDTH as u64 * 3, None);
        assert!(found.is_some());
        assert!(stats.max_chain >= 3);
    }

    #[test]
    fn removed_slots_are_reused() {
        let mut h = SlabHash::new(1);
        for k in 1..=SLAB_WIDTH as u64 {
            h.insert(k, hbm(0), 0);
        }
        let slabs_before = h.device_bytes();
        h.remove(3);
        h.insert(1000, hbm(0), 0);
        assert_eq!(h.device_bytes(), slabs_before, "free slot should be reused");
        assert_eq!(h.len(), SLAB_WIDTH);
    }

    #[test]
    fn scan_returns_every_live_entry() {
        let mut h = SlabHash::new(16);
        for k in 0..100u64 {
            h.insert(k + 1, hbm(k as u32), k as u32);
        }
        for k in 0..50u64 {
            h.remove(k * 2 + 1);
        }
        let (entries, stats) = h.scan();
        assert_eq!(entries.len(), h.len());
        assert!(stats.slabs_visited > 0);
        let mut keys: Vec<u64> = entries.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        let expect: Vec<u64> = (0..100u64).map(|k| k + 1).filter(|k| k % 2 == 0).collect();
        assert_eq!(keys, expect);
    }

    #[test]
    fn capacity_sizing_keeps_chains_short() {
        let n = 10_000;
        let mut h = SlabHash::for_capacity(n);
        for k in 0..n as u64 {
            h.insert(k.wrapping_mul(0xDEAD_BEEF_1234_5677) | 1, hbm(0), 0);
        }
        let mean = mean_chain_len(&h);
        assert!(mean < 2.0, "chains: {mean}");
    }

    #[test]
    fn sampling_returns_live_entries() {
        let mut h = SlabHash::new(64);
        for k in 1..=500u64 {
            h.insert(k, hbm(k as u32), k as u32);
        }
        let (sample, stats) = h.sample_entries(16, 42);
        assert_eq!(sample.len(), 16);
        assert!(stats.slabs_visited > 0);
        for e in &sample {
            assert_eq!(h.peek(e.key), Some(e.loc));
        }
        // Different seeds sample different entries (usually).
        let (other, _) = h.sample_entries(16, 43);
        assert_ne!(
            sample.iter().map(|e| e.key).collect::<Vec<_>>(),
            other.iter().map(|e| e.key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sampling_empty_table_is_empty() {
        let h = SlabHash::new(8);
        let (sample, _) = h.sample_entries(4, 1);
        assert!(sample.is_empty());
    }

    #[test]
    fn trait_conformance() {
        use crate::index_trait::conformance;
        let mut idx = SlabHash::new(16);
        conformance::check_map_contract(&mut idx);
        let mut idx = SlabHash::for_capacity(1_000);
        conformance::check_bulk_and_scan(&mut idx, 1_000);
    }

    #[test]
    fn mask_scans_match_bit_by_bit_reference() {
        // The pre-mask implementations, kept as the oracle.
        fn find_ref(s: &Slab, key: u64) -> Option<usize> {
            (0..SLAB_WIDTH).find(|&i| s.occupied & (1 << i) != 0 && s.keys[i] == key)
        }
        fn first_free_ref(s: &Slab) -> Option<usize> {
            (0..SLAB_WIDTH).find(|&i| s.occupied & (1 << i) == 0)
        }
        let mut slab = Slab::empty();
        // Stale duplicate keys in unoccupied slots must stay invisible.
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        for round in 0..200 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let i = (state as usize) % SLAB_WIDTH;
            slab.keys[i] = state % 7;
            if round % 3 == 0 {
                slab.occupied ^= 1 << i;
            }
            for key in 0..7u64 {
                assert_eq!(slab.find(key), find_ref(&slab, key), "round {round}");
            }
            assert_eq!(slab.first_free(), first_free_ref(&slab), "round {round}");
        }
        slab.occupied = u32::MAX;
        assert_eq!(slab.first_free(), first_free_ref(&slab));
    }

    #[test]
    fn batch_lookup_matches_sequential_including_stats() {
        let mut a = SlabHash::with_seed(8, 12345);
        let mut b = a.clone();
        for k in 0..300u64 {
            a.insert(k * 3, hbm(k as u32), k as u32);
            b.insert(k * 3, hbm(k as u32), k as u32);
        }
        // Mixed hits/misses, duplicates included.
        let keys: Vec<u64> = (0..200u64).map(|i| (i * 7) % 450).collect();
        let mut batch = Vec::new();
        a.lookup_batch(&keys, Some(77), &mut |found, stats| {
            batch.push((found, stats))
        });
        let seq: Vec<_> = keys.iter().map(|&k| b.lookup(k, Some(77))).collect();
        assert_eq!(batch, seq);
        for &k in &keys {
            assert_eq!(a.stamp_of(k), b.stamp_of(k), "key {k}");
        }
    }

    #[test]
    fn batch_remove_matches_sequential_including_stats() {
        let mut a = SlabHash::with_seed(8, 12345);
        for k in 0..300u64 {
            a.insert(k * 3, hbm(k as u32), k as u32);
        }
        let mut b = a.clone();
        // Present and absent keys, a duplicate included.
        let keys: Vec<u64> = (0..200u64).map(|i| (i * 7) % 450).collect();
        let mut batch = Vec::new();
        a.remove_batch(&keys, &mut |found, stats| batch.push((found, stats)));
        let seq: Vec<_> = keys.iter().map(|&k| b.remove(k)).collect();
        assert_eq!(batch, seq);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.scan(), b.scan());
    }

    #[test]
    fn stats_count_slab_traffic() {
        let mut h = SlabHash::new(4);
        let (_, s) = h.insert(9, hbm(0), 0);
        assert!(s.bytes_touched >= SLAB_BYTES);
        assert!(s.atomics >= 1);
    }
}
