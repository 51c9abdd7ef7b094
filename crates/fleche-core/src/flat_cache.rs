//! The flat cache (paper §3.1).
//!
//! One global cache backend for all embedding tables: a key-value-separated
//! structure with a single GPU-resident slab-hash index mapping *flat keys*
//! to locations in a pre-allocated slab memory pool (one size class per
//! embedding dimension). Per-slot timestamps implement approximate LRU and
//! double as versions; a probability admission filter keeps one-hit
//! wonders out; a watermark-triggered eviction pass, ranking values from
//! per-slot records, reclaims cold entries through epoch-based grace
//! periods so in-flight decoupled copy kernels never read freed slots;
//! and (optionally) index entries may hold tagged CPU-DRAM pointers — the
//! unified index.

use crate::recovery::{CheckpointChain, RestoreReport, SnapshotEntry, SnapshotError};
use crate::tenancy::{TenantCacheStats, TenantPartition};
use fleche_coding::{FlatKey, FlatKeyCodec};
use fleche_index::{
    ClassSpec, EpochGuard, EpochManager, GpuIndex, IndexInsert, Loc, MegaKv, PackedLoc, PoolError,
    ProbeStats, SlabHash, SlabPool,
};
use fleche_workload::DatasetSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hints the CPU to fetch the pool row of `(class, slot)`: one hint per 64
/// bytes of the row, plus its last element, since a row need not start on
/// a cache line and so may reach into one more. A no-op outside the pool.
fn prefetch_row(pool: &SlabPool, class: u16, slot: u32) {
    if let Ok(row) = pool.read_during_grace(class, slot) {
        for line in row.chunks(16) {
            fleche_simd::prefetch_read(&line[0]);
        }
        if let Some(last) = row.last() {
            fleche_simd::prefetch_read(last);
        }
    }
}

/// Device bytes one unified-index (DRAM pointer) entry costs: its share of
/// a slab (key + loc + stamp).
pub const UNIFIED_ENTRY_BYTES: u64 = 20;

/// The low bits of a rank that carry a value's slot ordinal.
const ORDINAL_BITS: u32 = 31;

/// An entry's place in the eviction order: the band first (`false`, over
/// quota, goes before `true`), then the coldest stamp, then the flat key —
/// packed into one integer so one compare orders two entries. Keys are
/// unique, so the order is total and no sort implementation detail picks
/// among equal stamps. The low [`ORDINAL_BITS`] carry a value's slot
/// ordinal (its record's place in class-major, slot order; 0 for a
/// pointer), below the key, so they never change the order.
fn evict_rank(in_quota: bool, stamp: u32, key: u64, ordinal: u32) -> u128 {
    (u128::from(in_quota) << 127)
        | (u128::from(stamp) << 95)
        | (u128::from(key) << ORDINAL_BITS)
        | u128::from(ordinal & ((1 << ORDINAL_BITS) - 1))
}

/// The flat key of a rank.
fn rank_key(rank: u128) -> u64 {
    (rank >> ORDINAL_BITS) as u64
}

/// The stamp of a rank.
fn rank_stamp(rank: u128) -> u32 {
    (rank >> 95) as u32
}

/// The slot ordinal of a value's rank.
fn rank_ordinal(rank: u128) -> usize {
    (rank & ((1 << ORDINAL_BITS) - 1)) as usize
}

/// How many victims can at most be needed to free `deficit` bytes when the
/// smallest slot holds `min_slot` bytes and `room` more pointers fit the
/// unified index. A removed victim frees at least `min_slot`; a converted
/// one at least `min_slot − UNIFIED_ENTRY_BYTES`, and at most `room`
/// victims are converted, so the first `n` free at least `min(n, room)`
/// of the latter plus the rest of the former. The walk stops at the
/// watermark, so it never reaches past the smallest `n` at which that
/// reaches `deficit`.
fn victim_bound(deficit: u64, min_slot: u64, room: u64) -> usize {
    let converted = min_slot.saturating_sub(UNIFIED_ENTRY_BYTES);
    let n = if deficit == 0 {
        0
    } else if u128::from(room) * u128::from(converted) >= u128::from(deficit) {
        deficit.div_ceil(converted)
    } else if min_slot == 0 {
        u64::MAX
    } else {
        let rest = deficit - room * converted;
        room.saturating_add(rest.div_ceil(min_slot))
    };
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// Leaves the `k` smallest ranks in `ranks`, sorted: a linear-time
/// selection, then a sort of only what it kept.
fn keep_coldest(ranks: &mut Vec<u128>, k: usize) {
    if k == 0 {
        ranks.clear();
        return;
    }
    if k < ranks.len() {
        ranks.select_nth_unstable(k);
        ranks.truncate(k);
    }
    ranks.sort_unstable();
}

/// Result of one key lookup against the flat cache.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CacheAnswer {
    /// Value resident in HBM at this pool location.
    Hit {
        /// Pool size class.
        class: u16,
        /// Slot within the class.
        slot: u32,
    },
    /// Location known (tagged DRAM pointer): CPU indexing can be skipped.
    UnifiedHit,
    /// Unknown key: full CPU-DRAM query needed.
    Miss,
}

impl CacheAnswer {
    /// Classifies what the index holds for a key.
    fn of(found: Option<PackedLoc>) -> CacheAnswer {
        match found.map(PackedLoc::unpack) {
            Some(Loc::Hbm { class, slot }) => CacheAnswer::Hit { class, slot },
            Some(Loc::Dram { .. }) => CacheAnswer::UnifiedHit,
            None => CacheAnswer::Miss,
        }
    }
}

/// Which GPU index structure backs the flat cache (the paper: "an
/// arbitrary existing GPU hash index (e.g., MegaKV, SlabHash)").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IndexBackend {
    /// Chained warp-wide slabs (the paper's implementation choice).
    #[default]
    SlabHash,
    /// Bucketed cuckoo with two bounded probes per lookup.
    MegaKv,
}

/// Eviction/admission configuration.
#[derive(Clone, Copy, Debug)]
pub struct FlatCacheConfig {
    /// Utilization above which an eviction pass triggers.
    pub evict_high_watermark: f64,
    /// Eviction target utilization.
    pub evict_low_watermark: f64,
    /// Probability that a missed embedding is admitted (the paper's
    /// probability-based filter: features seen fewer than `1/p` times tend
    /// to bypass the cache).
    pub admission_probability: f64,
    /// GPU index structure to use.
    pub index: IndexBackend,
}

impl Default for FlatCacheConfig {
    fn default() -> FlatCacheConfig {
        FlatCacheConfig {
            evict_high_watermark: 0.95,
            evict_low_watermark: 0.85,
            admission_probability: 0.5,
            index: IndexBackend::SlabHash,
        }
    }
}

/// One pool slot's metadata, kept beside the slot: what verifies its
/// bytes, which update they carry, which tenant pays for them, and the
/// index entry that reaches them, mirrored so the eviction pass ranks
/// values without walking the index. The default record is a slot with
/// none of these.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct SlotMeta {
    /// Online-update version of the bytes (0 = the frozen table value).
    version: u64,
    /// The flat key the index maps to this slot, while `resident`.
    key: u64,
    /// [`fleche_simd::checksum`] of the bytes last written, while
    /// `checksummed`.
    checksum: u32,
    /// The stamp of the index entry, while `resident`.
    stamp: u32,
    checksummed: bool,
    /// Whether an index entry maps `key` to this slot.
    resident: bool,
    /// The tenant charged for the slot; an unowned slot is never charged.
    owner: Option<u8>,
}

const _: () = assert!(std::mem::size_of::<SlotMeta>() <= 32);

impl SlotMeta {
    /// The recorded checksum; `None` passes verification.
    fn checksum(&self) -> Option<u32> {
        self.checksummed.then_some(self.checksum)
    }
}

/// One record per pool slot, in per-class arrays indexed by slot and sized
/// from the pool when built: the metadata beside a slot is one predictable
/// load, not a hash probe. Locations outside the pool read as the default
/// record and ignore writes.
struct SlotArray<T> {
    classes: Vec<Vec<T>>,
}

impl<T: Copy + Default> SlotArray<T> {
    fn new(pool: &SlabPool) -> SlotArray<T> {
        SlotArray {
            classes: (0..pool.class_count() as u16)
                .map(|class| vec![T::default(); pool.slot_count(class) as usize])
                .collect(),
        }
    }

    fn cell(&self, class: u16, slot: u32) -> Option<&T> {
        self.classes
            .get(class as usize)
            .and_then(|c| c.get(slot as usize))
    }

    fn get(&self, class: u16, slot: u32) -> T {
        self.cell(class, slot).copied().unwrap_or_default()
    }

    /// Hints the CPU to fetch the record of `(class, slot)` ahead of a
    /// [`SlotArray::get`]; a no-op outside the pool.
    fn prefetch(&self, class: u16, slot: u32) {
        if let Some(cell) = self.cell(class, slot) {
            fleche_simd::prefetch_read(cell);
        }
    }

    /// The record of `(class, slot)`, to update in place; `None` outside
    /// the pool.
    fn get_mut(&mut self, class: u16, slot: u32) -> Option<&mut T> {
        self.classes
            .get_mut(class as usize)
            .and_then(|c| c.get_mut(slot as usize))
    }

    /// Every record, to update in place.
    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.classes.iter_mut().flatten()
    }

    /// The `(class, slot)` of the `ordinal`th record in class-major, slot
    /// order; past the last record, a location outside the pool.
    fn locate(&self, mut ordinal: usize) -> (u16, u32) {
        for (class, records) in self.classes.iter().enumerate() {
            if ordinal < records.len() {
                return (class as u16, ordinal as u32);
            }
            ordinal -= records.len();
        }
        (u16::MAX, u32::MAX)
    }
}

/// The flat cache.
pub struct FlatCache {
    index: Box<dyn GpuIndex>,
    pool: SlabPool,
    epochs: EpochManager<(u16, u32)>,
    config: FlatCacheConfig,
    /// Pool class per table (tables of equal dim share a class).
    class_of_table: Vec<u16>,
    /// Dim per table.
    dim_of_table: Vec<u32>,
    /// Number of unified-index entries currently stored.
    unified_count: u64,
    /// Capacity target for unified entries (set by the tuner).
    unified_target: u64,
    rng: StdRng,
    evict_passes: u64,
    /// Every slot's [`SlotMeta`]. Each write of a slot's bytes records
    /// their checksum and version ([`Self::record_write`]); the fill then
    /// charges the slot's owner. Each index insert of a slot, and each
    /// probe hit on it, records its key and stamp
    /// ([`Self::record_resident`]). A retired slot keeps its checksum and
    /// version through its grace period, while its bytes are still
    /// readable, and loses its owner and residency; quarantine and wipe
    /// drop the whole record.
    meta: SlotArray<SlotMeta>,
    /// Whether [`FlatCache::verify_hits`] checks the recorded checksums.
    verify: bool,
    /// Raw keys of the batch being probed, reused across batches.
    probe_keys: Vec<u64>,
    /// The eviction pass's value ranks ([`evict_rank`]), 16 bytes per
    /// slot record, reused across passes.
    evict_ranks: Vec<u128>,
    /// The pointer ranks of a pass that trims pointers, reused likewise.
    evict_pointers: Vec<u128>,
    /// The keys a pass removes (pointers, then values), reused likewise.
    evict_keys: Vec<u64>,
    /// Per-tenant partitioning, off (no tenants) by default.
    tenants: TenantPartition,
}

/// One update the batch-boundary apply ([`FlatCache::apply_updates`])
/// writes straight into its key's pool slot: the flat key it targets, the
/// version it advances the key to, and its value, written in place.
pub trait PendingUpdate {
    /// Size-aware coded flat key of the embedding to update.
    fn key(&self) -> FlatKey;
    /// Version this update advances the key to.
    fn version(&self) -> u64;
    /// Floats in the value; a slot of another dimension is not written.
    fn value_len(&self) -> usize;
    /// Writes the value into `row`, which holds `value_len` floats.
    fn write_value(&self, row: &mut [f32]);
}

/// A trainer push whose new value is already materialized.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotUpdate {
    /// Size-aware coded flat key of the embedding to update.
    pub key: FlatKey,
    /// Version this update advances the key to.
    pub version: u64,
    /// The full new value (must match the key's class dimension).
    pub value: Vec<f32>,
}

impl PendingUpdate for SlotUpdate {
    fn key(&self) -> FlatKey {
        self.key
    }

    fn version(&self) -> u64 {
        self.version
    }

    fn value_len(&self) -> usize {
        self.value.len()
    }

    fn write_value(&self, row: &mut [f32]) {
        row.copy_from_slice(&self.value);
    }
}

/// What one [`FlatCache::apply_updates`] pass accomplished.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UpdateApplyReport {
    /// Updates written into resident slots (version advanced).
    pub applied: u64,
    /// Updates skipped because the resident slot already held the same or
    /// a newer version (duplicated/reordered pushes are idempotent).
    pub superseded: u64,
    /// Updates whose key was not HBM-resident (not cached, unified
    /// pointer, retired slot, or dimension mismatch) — the next miss-fill
    /// fetches the fresh value instead.
    pub absent: u64,
    /// Pool locations written — the system layer declares these to the
    /// race checker as the update-apply kernel's writes.
    pub slots: Vec<(u16, u32)>,
}

/// One row of the miss fill: what [`FlatCache::upsert_batch`] may cache.
#[derive(Clone, Copy, Debug)]
pub struct Fill<'a> {
    /// The key's `(table, id)`, which a unified-index pointer records.
    pub id: (u16, u64),
    /// The key's flat key.
    pub key: FlatKey,
    /// The row fetched for the key.
    pub row: &'a [f32],
    /// The update version the row carries (0 = the frozen table value).
    pub version: u64,
    /// False when the fetch failed or was served stale: never cached.
    pub fetched: bool,
}

/// What one checkpoint capture read: it prices the snapshot kernel.
#[derive(Clone, Debug, Default)]
pub struct Captured {
    /// Pool locations copied, declared to the race checker as reads.
    pub slots: Vec<(u16, u32)>,
    /// Index bytes the capture's scan streams.
    pub scan_bytes: u64,
}

/// The contract: the batched operations the workflow performs, after
/// HierarchicalKV's (`find`, `insert_and_evict`, `assign`, `erase`,
/// `export`) — the one place the cache's semantics are written, and all the
/// system layer calls (DESIGN.md §4.2): probe, verify, fill, assign, erase,
/// export / import / wipe, the epoch pin, release and reclaim, and sizes.
impl FlatCache {
    /// The probe — HierarchicalKV's `find`: [`FlatCache::lookup_batch`]
    /// into a caller-owned buffer (cleared first), so a serving loop reuses
    /// one across batches. Every [`CacheAnswer::Hit`] also writes `stamp`
    /// into its slot record, which mirrors the index entry, and hints the
    /// CPU to fetch that pool row: the verify, the lag check and the gather
    /// that follow find the record and the row in cache instead of each
    /// waiting on memory in turn.
    pub fn lookup_batch_into(
        &mut self,
        keys: &[FlatKey],
        stamp: u32,
        out: &mut Vec<(CacheAnswer, ProbeStats)>,
    ) {
        out.clear();
        out.reserve(keys.len());
        let keys = keys.iter().map(|k| k.0);
        self.walk(keys, Some(stamp), |found, stats| {
            out.push((CacheAnswer::of(found), stats));
        });
    }

    /// Online-update version of the value in `(class, slot)`; 0 means the
    /// frozen table value (or a slot never stamped).
    pub fn slot_version(&self, class: u16, slot: u32) -> u64 {
        self.meta.get(class, slot).version
    }

    /// The verify: checks each hit's bytes against the checksum recorded at
    /// write time. Every slot passes while checksums are disabled, and so
    /// does a slot with no record (quarantined, wiped, or outside the
    /// pool); an unreadable slot fails. One pass in place: per slot, the
    /// record, the row, its checksum and the compare —
    /// [`FlatCache::lookup_batch_into`] has already asked for the record
    /// and the row of every hit.
    pub fn verify_hits(&self, slots: &[(u16, u32)]) -> Vec<bool> {
        if !self.verify {
            return vec![true; slots.len()];
        }
        slots
            .iter()
            .map(
                |&(class, slot)| match self.meta.get(class, slot).checksum() {
                    None => true, // no record: passes
                    Some(expected) => self
                        .pool
                        .read_during_grace(class, slot)
                        .is_ok_and(|v| fleche_simd::checksum(v) == expected),
                },
            )
            .collect()
    }

    /// The fill — HierarchicalKV's `insert_and_evict`. Per fill, in order:
    /// an unfetched row is skipped without an admission roll; otherwise
    /// [`FlatCache::admit`] rolls, an admitted row becomes a value stamped
    /// with its version (its slot appended to `admitted`), and a rejected
    /// one a DRAM pointer if `unified` (the codec, while the unified index
    /// is on) is given. Then, over the high watermark, one eviction pass
    /// ([`FlatCache::evict_pass_with`]) converts victims through `unified`.
    /// Returns what prices the replace-index and evict-scan kernels: the
    /// inserts' statistics and, if a pass ran, the index bytes its scan
    /// streams and its own statistics.
    pub fn upsert_batch<'a, C: FlatKeyCodec>(
        &mut self,
        fills: impl IntoIterator<Item = Fill<'a>>,
        stamp: u32,
        unified: Option<&C>,
        admitted: &mut Vec<(u16, u32)>,
    ) -> (ProbeStats, Option<(u64, ProbeStats)>) {
        let mut insert = ProbeStats::new();
        for fill in fills.into_iter().filter(|fill| fill.fetched) {
            let (table, feature) = fill.id;
            if self.admit() {
                let class = self.class_of_table[table as usize];
                let (loc, s) = self.insert_at_class(class, fill.key, fill.row, stamp, fill.version);
                insert.merge(&s);
                admitted.extend(loc);
            } else if unified.is_some() {
                insert.merge(&self.insert_dram_ptr(table, feature, fill.key, stamp));
            }
        }
        let evicted = self.needs_eviction().then(|| {
            let scan_bytes = self.index.device_bytes();
            let decode = |k| unified.and_then(|codec| codec.decode(FlatKey(k)));
            (scan_bytes, self.evict_pass_with(decode))
        });
        (insert, evicted)
    }

    /// The assign — HierarchicalKV's `assign`: applies trainer pushes to
    /// resident slots, the update pipeline's batch-boundary visibility
    /// point. Call it at a batch boundary (no in-flight kernel reading the
    /// pool): values are overwritten in place, and the system layer
    /// declares every written slot to the race checker. A slot is written
    /// only by a *strictly newer* version, so duplicated or reordered
    /// pushes are idempotent and versions never move backwards; checksums
    /// are recomputed; keys not HBM-resident (or of another dimension) are
    /// counted absent and left to the next miss-fill. One stamp-free index
    /// walk resolves every key (nothing here moves an entry), then each
    /// update is written straight into its slot.
    pub fn apply_updates<U: PendingUpdate>(&mut self, updates: &[U]) -> UpdateApplyReport {
        let mut locs = Vec::with_capacity(updates.len());
        let keys = updates.iter().map(|u| u.key().0);
        self.walk(keys, None, |found, _| {
            locs.push(found.map(PackedLoc::unpack))
        });
        let mut report = UpdateApplyReport::default();
        for (u, loc) in updates.iter().zip(locs) {
            let Some(Loc::Hbm { class, slot }) = loc else {
                report.absent += 1;
                continue;
            };
            let len = u.value_len();
            if self.pool.is_retired(class, slot) || self.pool.dim_of(class) != Some(len as u32) {
                report.absent += 1;
                continue;
            }
            if self.slot_version(class, slot) >= u.version() {
                report.superseded += 1;
                continue;
            }
            let Ok(row) = self.pool.row_mut(class, slot, len) else {
                report.absent += 1;
                continue;
            };
            u.write_value(row);
            let checksum = fleche_simd::checksum(row);
            self.record_write(class, slot, checksum, u.version());
            report.applied += 1;
            report.slots.push((class, slot));
        }
        report
    }

    /// The erase of a corrupt value: removes its entry from the index,
    /// retires its slot so the bad bytes are never served again and drops
    /// the slot's record. The caller refetches the key from the miss
    /// backend.
    pub fn quarantine(&mut self, key: FlatKey, class: u16, slot: u32) {
        self.index.remove(key.0);
        self.retire_slot(class, slot, false);
        if let Some(meta) = self.meta.get_mut(class, slot) {
            *meta = SlotMeta::default();
        }
    }

    /// The erase of stale pointers: removes the unified-index pointers of
    /// `keys`, whose embeddings the CPU-DRAM layer evicted (giant-model
    /// mode); cached values stay. Returns how many it removed.
    pub fn invalidate_dram_ptrs(&mut self, keys: impl IntoIterator<Item = FlatKey>) -> u64 {
        let before = self.unified_count;
        for key in keys {
            if let Some(loc) = self.index.peek(key.0).filter(|loc| loc.is_dram()) {
                self.index.remove(key.0);
                self.release(loc, false);
            }
        }
        before - self.unified_count
    }

    /// The export — HierarchicalKV's `export`: captures every HBM-resident
    /// value as a fresh chain (a full base at checkpoint epoch `epoch`, no
    /// deltas yet), plus what the capture read. Call at a batch boundary
    /// (after the reclaim, no copy kernel in flight): the image then holds
    /// exactly the live, reachable entries. Retired slots are skipped even
    /// if an index entry still reaches one, and so are DRAM pointers (cheap
    /// location hints, not warm state). Entries are sorted by flat key, so
    /// two checkpoints of one state are bit-identical on any index backend.
    pub fn checkpoint(&self, epoch: u64) -> (CheckpointChain, Captured) {
        let (entries, read) = self.capture_live(|_, _| true);
        (CheckpointChain::new(epoch, &entries), read)
    }

    /// Appends an incremental delta to `chain`: exactly the live entries
    /// whose update version advanced past what the chain's base recorded
    /// for their key (keys the base does not hold are at version 0).
    /// Returns what the capture read. Entries are key-sorted, so two delta
    /// captures of the same state are bit-identical.
    pub fn delta_checkpoint(&self, chain: &mut CheckpointChain) -> Captured {
        let (entries, read) = self.capture_live(|key, (class, slot)| {
            self.slot_version(class, slot) > chain.base_version_of(key)
        });
        chain.push_delta(&entries);
        read
    }

    /// The import: replays a checkpoint chain (a full checkpoint is a chain
    /// of one) through the normal insert workflow. [`CheckpointChain::verify`]
    /// checks and decodes *every* image first: a corrupt, mis-linked or
    /// base-less chain returns `Err` with the cache untouched, so the caller
    /// falls back to a cold warm-up without risking garbage in the pool.
    /// Base first, then deltas in sequence, so replay lands on the latest
    /// checkpointed version; per-key version monotonicity makes a
    /// re-applied chain idempotent.
    pub fn restore(&mut self, chain: &CheckpointChain) -> Result<RestoreReport, SnapshotError> {
        let mut report = RestoreReport::default();
        for entries in chain.verify()? {
            report.absorb(self.restore_entries(entries));
        }
        Ok(report)
    }

    /// The wipe: drops every entry and value, as a device loss does: the
    /// index is cleared, every pool slot freed and zeroed, the epoch
    /// machinery re-armed. Call at a batch boundary with no pinned readers
    /// — a wiped pool has no grace period to protect in-flight kernels.
    ///
    /// `on_wipe(class, slot)` is called for every live slot before it is
    /// dropped. The race checker hooks this to record the wipe as a
    /// host-side write per slot — without the declaration, a replay would
    /// be blind to the whole teardown.
    pub fn wipe_with(&mut self, mut on_wipe: impl FnMut(u16, u32)) {
        debug_assert_eq!(self.epochs.readers(), 0, "wipe with pinned readers");
        for class in 0..self.pool.class_count() as u16 {
            for slot in self.pool.live_slots(class) {
                on_wipe(class, slot);
            }
        }
        self.index.clear();
        self.pool.reset();
        self.epochs = EpochManager::new();
        self.unified_count = 0;
        self.meta
            .iter_mut()
            .for_each(|meta| *meta = SlotMeta::default());
        self.tenants.clear();
    }

    /// The epoch pin: registers an in-flight reader (a launched decoupled
    /// copy kernel holding pool addresses).
    pub fn pin_reader(&mut self) -> EpochGuard {
        self.epochs.pin()
    }

    /// The epoch release: a reader's kernel completed.
    pub fn release_reader(&mut self, guard: EpochGuard) {
        self.epochs.unpin(guard);
    }

    /// The reclaim: [`FlatCache::end_batch`], calling `on_free(class, slot)`
    /// for every slot physically reclaimed. The happens-before race checker
    /// hooks this to record reclamation as a host-side write to the slot.
    pub fn end_batch_with(&mut self, mut on_free: impl FnMut(u16, u32)) -> usize {
        self.epochs.advance();
        let pool = &mut self.pool;
        self.epochs.try_reclaim(|(class, slot)| {
            // A retired slot was live when retired; tolerate (and count) a
            // double-free rather than bring the server down.
            let freed = pool.free(class, slot);
            debug_assert!(freed.is_ok(), "retired slot was live when retired");
            on_free(class, slot);
        })
    }

    /// Live index entries (cached values + unified pointers).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Unified-index entries currently held.
    pub fn unified_count(&self) -> u64 {
        self.unified_count
    }

    /// Live value slots across all pool classes (sizes the corruption
    /// injector's victim pick).
    pub fn live_value_count(&self) -> u64 {
        self.pool.live_count()
    }

    /// Pool utilization including the displacement pressure of unified
    /// entries (their index slabs occupy memory that could hold values).
    pub fn effective_utilization(&self) -> f64 {
        self.footprint_bytes() as f64 / self.pool.capacity_bytes().max(1) as f64
    }
}

/// Setup, the fill's per-key steps and counters, frozen as the benchmark
/// (`bench/src/twin.rs`, `closed.rs`, `probe.rs`) calls them; the system
/// layer reaches the per-key steps only through [`FlatCache::upsert_batch`].
impl FlatCache {
    /// Builds a flat cache with `cache_bytes` of value capacity for the
    /// dataset's tables, partitioned into size classes by dimension
    /// (proportional to each dimension's share of total table bytes).
    pub fn new(spec: &DatasetSpec, cache_bytes: u64, config: FlatCacheConfig) -> FlatCache {
        // Distinct dims, and byte share per dim.
        let mut dims: Vec<u32> = spec.tables.iter().map(|t| t.dim).collect();
        dims.sort_unstable();
        dims.dedup();
        let total_bytes: u64 = spec.total_param_bytes().max(1);
        let classes: Vec<ClassSpec> = dims
            .iter()
            .map(|&dim| {
                let dim_bytes: u64 = spec
                    .tables
                    .iter()
                    .filter(|t| t.dim == dim)
                    .map(|t| t.param_bytes())
                    .sum();
                let share = dim_bytes as f64 / total_bytes as f64;
                let bytes = (cache_bytes as f64 * share) as u64;
                ClassSpec {
                    dim,
                    slots: ((bytes / (dim as u64 * 4)).max(1)) as u32,
                }
            })
            .collect();
        let pool = SlabPool::new(&classes);
        let expected_entries: u64 = classes.iter().map(|c| c.slots as u64).sum();
        let class_of_table = spec
            .tables
            .iter()
            .map(|t| {
                // Every table dim was registered into `dims` above; if that
                // invariant ever breaks, class 0 keeps serving (wrong-sized
                // rows are caught by checksums) instead of panicking.
                let class = dims.iter().position(|&d| d == t.dim).unwrap_or(0);
                debug_assert_eq!(dims.get(class), Some(&t.dim), "dim registered above");
                class as u16
            })
            .collect();
        let index: Box<dyn GpuIndex> = match config.index {
            IndexBackend::SlabHash => Box::new(SlabHash::for_capacity(expected_entries as usize)),
            // Cuckoo tables need headroom beyond the value-slot count for
            // the unified-index pointers they may also hold.
            IndexBackend::MegaKv => Box::new(MegaKv::for_capacity(
                (expected_entries as usize).saturating_mul(2),
            )),
        };
        FlatCache {
            index,
            meta: SlotArray::new(&pool),
            pool,
            epochs: EpochManager::new(),
            config,
            class_of_table,
            dim_of_table: spec.tables.iter().map(|t| t.dim).collect(),
            unified_count: 0,
            unified_target: 0,
            rng: StdRng::seed_from_u64(spec.seed ^ 0xF1EC_4E00),
            evict_passes: 0,
            verify: false,
            probe_keys: Vec::new(),
            evict_ranks: Vec::new(),
            evict_pointers: Vec::new(),
            evict_keys: Vec::new(),
            tenants: TenantPartition::default(),
        }
    }

    /// Turns on checksum verification in [`FlatCache::verify_hits`]. Every
    /// write already records [`fleche_simd::checksum`] of the value, which
    /// changes under any change confined to one f32 word, every single-bit
    /// flip included, so enabling mid-life reads no slot and raises no
    /// false alarm.
    pub fn enable_checksums(&mut self) {
        self.verify = true;
    }

    /// Looks up a batch of flat keys via the index's batched probe walk
    /// (on the slab-hash backend a prefetch pipeline that overlaps the
    /// keys' memory waits). Answers and per-key [`ProbeStats`] come back
    /// in input order.
    pub fn lookup_batch(&mut self, keys: &[FlatKey], stamp: u32) -> Vec<(CacheAnswer, ProbeStats)> {
        let mut out = Vec::new();
        self.lookup_batch_into(keys, stamp, &mut out);
        out
    }

    /// Reads the embedding behind a [`CacheAnswer::Hit`]. Valid during the
    /// epoch grace period even if concurrently retired.
    ///
    /// # Panics
    ///
    /// Panics if the location is out of bounds (an internal bug).
    pub fn read_hit(&self, class: u16, slot: u32) -> &[f32] {
        self.pool
            .read_during_grace(class, slot)
            // Documented panic: an out-of-bounds hit location means the
            // index handed out a slot the pool never had — memory-safety
            // grade corruption, not a servable fault.
            // analyzer: allow(no-panic-hot-path)
            .expect("hit location must be in bounds")
    }

    /// Rolls the admission filter for one missed key. Under tenant
    /// partitioning, a tenant at its byte quota is denied outright —
    /// its misses bypass the cache rather than displacing another
    /// tenant's working set — before the probabilistic roll.
    pub fn admit(&mut self) -> bool {
        self.tenants.may_admit() && self.rng.gen::<f64>() < self.config.admission_probability
    }

    /// Inserts an embedding for `(table, feature)` under flat key `key`.
    /// Returns `None` (plus stats) if the pool class is full even after an
    /// eviction attempt — the key simply bypasses the cache this round.
    pub fn insert_value(
        &mut self,
        table: u16,
        key: FlatKey,
        value: &[f32],
        stamp: u32,
    ) -> (Option<(u16, u32)>, ProbeStats) {
        self.insert_at_class(self.class_of_table[table as usize], key, value, stamp, 0)
    }

    /// Inserts a unified-index entry (tagged DRAM pointer) for a key whose
    /// value stays in DRAM. No-ops when at the capacity target or the key
    /// already exists.
    pub fn insert_dram_ptr(
        &mut self,
        table: u16,
        feature: u64,
        key: FlatKey,
        stamp: u32,
    ) -> ProbeStats {
        if self.unified_count >= self.unified_target || self.index.peek(key.0).is_some() {
            return ProbeStats::new();
        }
        let (outcome, stats) = self
            .index
            .insert(key.0, Loc::Dram { table, feature }.pack(), stamp);
        match outcome {
            IndexInsert::Rejected => return stats,
            IndexInsert::Displaced { victim } => self.release(victim.loc, true),
            IndexInsert::Inserted | IndexInsert::Updated { .. } => {}
        }
        self.unified_count += 1;
        stats
    }

    /// True when utilization exceeds the high watermark and an eviction
    /// pass should run.
    pub fn needs_eviction(&self) -> bool {
        self.effective_utilization() > self.config.evict_high_watermark
    }

    /// Runs one eviction pass over the coldest entries, in two phases in
    /// the pinned victim order — the band first (under tenant partitioning,
    /// over-quota tenants' values before everyone else's), then coldest
    /// stamp, then flat key. Keys are unique, so the order is total: which
    /// of the many entries one batch stamped alike dies is defined, not up
    /// to a sort implementation. First the `unified_count − unified_target`
    /// coldest unified pointers (if the tuner lowered the target) are
    /// dropped; then values are evicted until utilization falls to the low
    /// watermark. Evicted value slots are *retired*, not freed —
    /// reclamation happens in [`FlatCache::end_batch`] once no reader epoch
    /// can still see them.
    ///
    /// `decode` recovers `(table, feature)` from a flat key; when it
    /// succeeds and the unified index has room, the evicted entry is
    /// *converted* into a tagged DRAM pointer instead of removed — the
    /// paper's "replacing the cache of cold embeddings with CPU-DRAM
    /// pointers". Evicted-but-located keys are exactly the warm band most
    /// likely to miss again, which is what makes the unified index earn
    /// its memory. The phases are independent: `unified_count` always
    /// equals the pointers the index holds, so a pass that trims pointers
    /// leaves the count at the target and converts none.
    ///
    /// The pass neither walks nor sorts the index: the slot records mirror
    /// every resident value's key, stamp and owner, and value ranks come
    /// from them. The index is scanned only when pointers must be trimmed,
    /// for their ranks; otherwise the scan kernel's price comes from the
    /// index's geometry
    /// ([`GpuIndex::scan_stats`]). A removed victim frees at least the
    /// smallest slot, a converted one that less the pointer it becomes,
    /// and at most the room left in the unified index is converted, so a
    /// bound `k` on the victims follows from the deficit alone
    /// (`victim_bound`): the walk never reaches past the `k` coldest
    /// ranks, so one walk over the records ranks every resident value and
    /// `keep_coldest` keeps the `k` coldest in order, the selection the
    /// pointer trim uses. Each rank carries its slot's ordinal, so the
    /// walk decides and retires every victim from its record and sends
    /// the removals to the index as one pipelined batch
    /// ([`GpuIndex::remove_batch`]). EXPERIMENTS.md, "Eviction ranking —
    /// histogram vs plain selection", times the pass on the host against
    /// the stamp-age histogram it replaced.
    ///
    /// Returns scan instrumentation (the cost of the scan kernel).
    pub fn evict_pass_with(&mut self, decode: impl Fn(u64) -> Option<(u16, u64)>) -> ProbeStats {
        self.evict_passes += 1;
        let trim = self.unified_count.saturating_sub(self.unified_target) as usize;
        let mut pointers = std::mem::take(&mut self.evict_pointers);
        pointers.clear();
        let mut stats = if trim > 0 {
            self.index.scan_with(&mut |run| {
                let dram = run.iter().filter(|e| e.loc.is_dram());
                pointers.extend(dram.map(|e| evict_rank(true, e.stamp, e.key, 0)));
            })
        } else {
            self.index.scan_stats()
        };
        let target_bytes = self.low_watermark_bytes();
        // Retired slots stay allocated until the grace period ends, so
        // track the *projected* footprint as we evict.
        let mut projected = self.footprint_bytes();
        keep_coldest(&mut pointers, trim);
        let mut removals = std::mem::take(&mut self.evict_keys);
        removals.clear();
        removals.extend(pointers.iter().map(|&rank| rank_key(rank)));
        self.index
            .remove_batch(&removals, &mut |_, s| stats.merge(&s));
        self.unified_count -= removals.len() as u64;
        projected = projected.saturating_sub(removals.len() as u64 * UNIFIED_ENTRY_BYTES);
        self.evict_pointers = pointers;
        let min_slot = (0..self.pool.class_count() as u16)
            .map(|class| self.slot_bytes(class))
            .min()
            .unwrap_or(0);
        let room = self.unified_target.saturating_sub(self.unified_count);
        let deficit = projected.saturating_sub(target_bytes);
        let values = self.coldest_values(victim_bound(deficit, min_slot, room));
        // Each victim's fate follows from its record and the running
        // counts alone, so the walk decides and retires in order first,
        // then applies the index updates: conversions one by one, and the
        // removals as one pipelined batch. Index updates of distinct keys
        // commute, and so do the statistics they merge.
        removals.clear();
        for &rank in &values {
            if projected <= target_bytes {
                break;
            }
            let (key, stamp) = (rank_key(rank), rank_stamp(rank));
            let pointer = if self.unified_count < self.unified_target {
                decode(key)
            } else {
                None
            };
            // Convert: keep the key, swap its location for a DRAM pointer,
            // retire only the value slot. Otherwise remove the entry.
            match pointer {
                Some((table, feature)) => {
                    let dram = Loc::Dram { table, feature }.pack();
                    let (outcome, s) = self.index.insert(key, dram, stamp);
                    debug_assert!(
                        matches!(outcome, IndexInsert::Updated { previous } if !previous.is_dram()),
                        "a victim is a resident value"
                    );
                    stats.merge(&s);
                }
                None => removals.push(key),
            }
            let (class, slot) = self.meta.locate(rank_ordinal(rank));
            self.retire_slot(class, slot, true);
            projected = projected.saturating_sub(self.slot_bytes(class));
            if pointer.is_some() {
                self.unified_count += 1;
                projected += UNIFIED_ENTRY_BYTES;
            }
        }
        self.index.remove_batch(&removals, &mut |removed, s| {
            debug_assert!(
                removed.is_some_and(|loc| !loc.is_dram()),
                "a victim is a resident value"
            );
            stats.merge(&s);
        });
        self.evict_keys = removals;
        self.evict_ranks = values;
        stats
    }

    /// Ends a batch: advances the epoch and physically frees every retired
    /// slot no live reader can reach. Returns how many slots were freed.
    pub fn end_batch(&mut self) -> usize {
        self.end_batch_with(|_, _| {})
    }

    /// Sets the unified-index capacity target (from the tuner). A target
    /// below the current count takes effect at the next eviction pass.
    pub fn set_unified_target(&mut self, target: u64) {
        self.unified_target = target;
    }

    /// The current unified-index capacity target.
    pub fn unified_target(&self) -> u64 {
        self.unified_target
    }

    /// Eviction passes run so far.
    pub fn evict_passes(&self) -> u64 {
        self.evict_passes
    }
}

/// Crate-internal: what the system layer forwards or prices with, and the
/// helpers the operations above share.
impl FlatCache {
    /// See [`crate::FlecheSystem::enable_tenant_partitioning`].
    pub(crate) fn enable_tenant_partitioning(&mut self, quotas: &[f64]) {
        self.tenants = TenantPartition::new(&self.pool, quotas);
        // Entries resident before the call stay unowned.
        self.meta.iter_mut().for_each(|meta| meta.owner = None);
    }

    /// Declares the tenant owning subsequent inserts. No-op (and
    /// harmless) while partitioning is off.
    pub(crate) fn set_active_tenant(&mut self, tenant: usize) {
        self.tenants.set_active(tenant);
    }

    /// Capacity accounting for `tenant` (zeros while partitioning is
    /// off or for an out-of-range tenant).
    pub(crate) fn tenant_cache_stats(&self, tenant: usize) -> TenantCacheStats {
        self.tenants.stats(tenant)
    }

    /// Fault-injection hook: flips bit `bit` of float `word` of the `nth`
    /// live pool slot (in class-major, slot order), *without* refreshing the
    /// slot's checksum — exactly what a soft HBM error looks like. Returns
    /// the victim location, or `None` when fewer than `nth + 1` slots are
    /// live.
    pub(crate) fn corrupt_nth_live(&mut self, nth: u64, word: u32, bit: u32) -> Option<(u16, u32)> {
        let mut n = nth;
        for class in 0..self.pool.class_count() as u16 {
            let live = self.pool.live_slots(class);
            if (n as usize) < live.len() {
                let slot = live[n as usize];
                // `live_slots` just enumerated it, so the flip can only
                // fail if the pool is corrupted itself; report a miss
                // rather than panic inside the fault injector.
                self.pool.corrupt_bit(class, slot, word, bit).ok()?;
                return Some((class, slot));
            }
            n -= live.len() as u64;
        }
        None
    }

    /// Embedding dimension of every table, indexed by table.
    pub(crate) fn table_dims(&self) -> &[u32] {
        &self.dim_of_table
    }

    /// Bucket chains in the GPU index (for lock-contention modeling of the
    /// coupled query kernel).
    pub(crate) fn bucket_count(&self) -> usize {
        self.index.bucket_count()
    }

    /// One batched index walk over `keys`, stamping what it finds with
    /// `stamp` (if given; a resident value's record takes the stamp too)
    /// and hinting the CPU to fetch each resident value's record and row;
    /// `found` gets each key's entry.
    fn walk(
        &mut self,
        keys: impl Iterator<Item = u64>,
        stamp: Option<u32>,
        mut found: impl FnMut(Option<PackedLoc>, ProbeStats),
    ) {
        self.probe_keys.clear();
        self.probe_keys.extend(keys);
        let (pool, meta) = (&self.pool, &mut self.meta);
        self.index
            .lookup_batch(&self.probe_keys, stamp, &mut |loc, stats| {
                if let Some(Loc::Hbm { class, slot }) = loc.map(PackedLoc::unpack) {
                    // A hit's record takes the stamp the index just gave
                    // it; without a stamp, the record is only hinted.
                    match (stamp, meta.get_mut(class, slot)) {
                        (Some(stamp), Some(record)) => record.stamp = stamp,
                        _ => meta.prefetch(class, slot),
                    }
                    prefetch_row(pool, class, slot);
                }
                found(loc, stats);
            });
    }

    /// Value bytes of one slot in `class`.
    fn slot_bytes(&self, class: u16) -> u64 {
        self.pool.dim_of(class).unwrap_or(0) as u64 * 4
    }

    /// The ranks ([`evict_rank`]) of the `k` coldest resident values,
    /// sorted, in the reused rank buffer — from one sequential walk over
    /// the slot records, never the index. Every resident value is ranked
    /// and [`keep_coldest`] keeps the `k` coldest, as for pointers.
    fn coldest_values(&mut self, k: usize) -> Vec<u128> {
        let band = self.tenants.band();
        let in_quota = |meta: &SlotMeta| band.as_ref().is_none_or(|in_quota| in_quota(meta.owner));
        let mut ranks = std::mem::take(&mut self.evict_ranks);
        ranks.clear();
        ranks.resize(self.meta.classes.iter().map(Vec::len).sum(), 0);
        // Each record's rank is written and kept only for a resident value:
        // free slots lie scattered, and a branch on residency mispredicts.
        let mut kept = 0;
        for (ordinal, meta) in self.meta.classes.iter().flatten().enumerate() {
            if let Some(rank) = ranks.get_mut(kept) {
                *rank = evict_rank(in_quota(meta), meta.stamp, meta.key, ordinal as u32);
            }
            kept += usize::from(meta.resident);
        }
        ranks.truncate(kept);
        keep_coldest(&mut ranks, k);
        ranks
    }

    /// Retires a slot whose entry left the index: hands it to the epoch
    /// manager (freed once no reader can still hold its address), clears
    /// its record's residency and releases it from its owner's occupancy.
    /// `evicted` counts it in the owner's eviction tally.
    fn retire_slot(&mut self, class: u16, slot: u32, evicted: bool) {
        self.epochs.retire((class, slot));
        self.pool.note_retired(class, slot);
        let owner = self.meta.get_mut(class, slot).and_then(|meta| {
            meta.resident = false;
            meta.owner.take()
        });
        self.tenants.release(owner, self.slot_bytes(class), evicted);
    }

    /// Records that the index now maps `key` to `(class, slot)` with
    /// `stamp`: called right after every index insert of a slot.
    fn record_resident(&mut self, class: u16, slot: u32, key: u64, stamp: u32) {
        if let Some(meta) = self.meta.get_mut(class, slot) {
            (meta.key, meta.stamp, meta.resident) = (key, stamp, true);
        }
    }

    /// Writes `value` into a live pool slot and records the write
    /// ([`Self::record_write`]), hashing it while the copy has it in cache
    /// ([`SlabPool::write_with_checksum`]).
    fn write_slot(
        &mut self,
        class: u16,
        slot: u32,
        value: &[f32],
        version: u64,
    ) -> Result<ProbeStats, PoolError> {
        let (checksum, stats) = self.pool.write_with_checksum(class, slot, value)?;
        self.record_write(class, slot, checksum, version);
        Ok(stats)
    }

    /// Records that `(class, slot)` now holds bytes hashing to `checksum`
    /// at `version` (the writer knows which version it wrote — e.g. a
    /// miss-fill that served the parameter server's latest). Every write
    /// of a slot's bytes ends here, so a reused slot inherits no checksum
    /// or version; the owner stays until [`Self::charge`] moves it.
    fn record_write(&mut self, class: u16, slot: u32, checksum: u32, version: u64) {
        if let Some(meta) = self.meta.get_mut(class, slot) {
            (meta.checksum, meta.checksummed, meta.version) = (checksum, true, version);
        }
    }

    /// Charges a slot just written to the active tenant
    /// ([`TenantPartition::charge`]) and records its owner.
    fn charge(&mut self, class: u16, slot: u32) {
        let bytes = self.slot_bytes(class);
        if let Some(meta) = self.meta.get_mut(class, slot) {
            meta.owner = self.tenants.charge(meta.owner, bytes);
        }
    }

    /// The insert workflow under an explicit pool class, stamping the slot
    /// with `version` (a reused slot never inherits an old one). The fills
    /// resolve the class from the table; [`Self::restore`] replays snapshot
    /// entries (which record their class) through this same path, so
    /// recovery runs the admission-free subset of the normal workflow.
    fn insert_at_class(
        &mut self,
        class: u16,
        key: FlatKey,
        value: &[f32],
        stamp: u32,
        version: u64,
    ) -> (Option<(u16, u32)>, ProbeStats) {
        let mut stats = ProbeStats::new();
        // If the key is already present (collision or re-insert), refresh
        // in place when it holds an HBM slot.
        if let Some(loc) = self.index.peek(key.0) {
            if let Loc::Hbm { class: c, slot } = loc.unpack() {
                if self.write_slot(c, slot, value, version).is_ok() {
                    let (_, s) = self.index.insert(key.0, loc, stamp);
                    self.record_resident(c, slot, key.0, stamp);
                    stats.merge(&s);
                    self.charge(c, slot);
                    return (Some((c, slot)), stats);
                }
            }
            // A unified pointer, or a slot the refresh cannot reuse (its
            // class holds another dimension), falls through to allocation:
            // the index insert below overwrites it, and only that releases
            // it — a full class leaves the entry (and its storage) in place.
        }
        let slot = match self.pool.alloc(class) {
            Ok((slot, s)) => {
                stats.merge(&s);
                slot
            }
            Err(_) => return (None, stats),
        };
        // A freshly allocated slot is always writable; if the pool
        // disagrees, undo the allocation and bypass the cache this round.
        let s = match self.write_slot(class, slot, value, version) {
            Ok(s) => s,
            Err(_) => {
                debug_assert!(false, "freshly allocated slot must be writable");
                let _ = self.pool.free(class, slot);
                return (None, stats);
            }
        };
        stats.merge(&s);
        let (outcome, s2) = self
            .index
            .insert(key.0, Loc::Hbm { class, slot }.pack(), stamp);
        // Recorded before the outcome is handled: a kick-out that pushes
        // the new key itself back off the index retires the slot again.
        self.record_resident(class, slot, key.0, stamp);
        stats.merge(&s2);
        match outcome {
            // A cuckoo kick-out pushed a resident entry off the index:
            // treat its storage like an eviction.
            IndexInsert::Displaced { victim } => self.release(victim.loc, true),
            IndexInsert::Rejected => {
                // The index could not place the key: undo the allocation
                // and report a bypass. The free cannot fail for a slot
                // allocated two steps up; a leaked slot beats a panic.
                if let Some(meta) = self.meta.get_mut(class, slot) {
                    meta.resident = false;
                }
                let freed = self.pool.free(class, slot);
                debug_assert!(freed.is_ok(), "just-allocated slot must free");
                return (None, stats);
            }
            // The key held a unified pointer, or a slot of another class
            // that the in-place refresh above could not reuse.
            IndexInsert::Updated { previous } => self.release(previous, false),
            IndexInsert::Inserted => {}
        }
        self.charge(class, slot);
        (Some((class, slot)), stats)
    }

    /// Retires the storage behind an index entry that was displaced
    /// (cuckoo kick-out overflow; `evicted`) or overwritten: a slot goes
    /// to [`Self::retire_slot`], a unified pointer leaves the count.
    fn release(&mut self, loc: PackedLoc, evicted: bool) {
        match loc.unpack() {
            Loc::Hbm { class, slot } => self.retire_slot(class, slot, evicted),
            Loc::Dram { .. } => {
                self.unified_count = self.unified_count.saturating_sub(1);
            }
        }
    }

    /// Device bytes values and unified pointers hold, retired-but-unfreed
    /// slots included.
    fn footprint_bytes(&self) -> u64 {
        self.pool.allocated_bytes() + self.unified_count * UNIFIED_ENTRY_BYTES
    }

    /// The footprint an eviction pass brings the cache down to.
    fn low_watermark_bytes(&self) -> u64 {
        let cap = self.pool.capacity_bytes().max(1) as f64;
        (self.config.evict_low_watermark * cap) as u64
    }

    /// Shared capture walk: every live (non-retired) HBM entry passing
    /// `include(key, location)`, key-sorted for bit-identical images.
    fn capture_live(
        &self,
        include: impl Fn(u64, (u16, u32)) -> bool,
    ) -> (Vec<SnapshotEntry>, Captured) {
        let mut captured: Vec<(SnapshotEntry, (u16, u32))> = Vec::new();
        self.index.scan_with(&mut |run| {
            for e in run {
                let Loc::Hbm { class, slot } = e.loc.unpack() else {
                    continue;
                };
                if self.pool.is_retired(class, slot) || !include(e.key, (class, slot)) {
                    continue;
                }
                if let Ok(value) = self.pool.read(class, slot) {
                    let entry = SnapshotEntry {
                        key: e.key,
                        class,
                        stamp: e.stamp,
                        version: self.slot_version(class, slot),
                        value: value.to_vec(),
                    };
                    captured.push((entry, (class, slot)));
                }
            }
        });
        captured.sort_unstable_by_key(|(e, _)| e.key);
        let (entries, slots) = captured.into_iter().unzip();
        let scan_bytes = self.index.device_bytes();
        (entries, Captured { slots, scan_bytes })
    }

    /// One image's replay: hottest-first (stamp descending, key ascending
    /// for determinism), so if capacity shrank since the checkpoint the
    /// hottest band survives; per-key version-monotonic. An entry whose
    /// key is already resident at a strictly newer version is skipped
    /// (`superseded`) — never a version regression; entries whose
    /// dimension no longer matches their class (changed dataset geometry)
    /// or that find the pool full bypass and are counted, not errors.
    fn restore_entries(&mut self, mut entries: Vec<SnapshotEntry>) -> RestoreReport {
        entries.sort_unstable_by(|a, b| b.stamp.cmp(&a.stamp).then(a.key.cmp(&b.key)));
        let mut report = RestoreReport::default();
        for e in &entries {
            report.max_stamp = report.max_stamp.max(e.stamp);
            if self.pool.dim_of(e.class) != Some(e.value.len() as u32) {
                report.bypassed += 1;
                continue;
            }
            if let Some(Loc::Hbm { class, slot }) = self.index.peek(e.key).map(PackedLoc::unpack) {
                if self.slot_version(class, slot) > e.version {
                    report.superseded += 1;
                    continue;
                }
            }
            let key = FlatKey(e.key);
            match self
                .insert_at_class(e.class, key, &e.value, e.stamp, e.version)
                .0
            {
                Some(loc) => {
                    report.restored += 1;
                    report.max_version = report.max_version.max(e.version);
                    report.slots.push(loc);
                }
                None => report.bypassed += 1,
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::SnapshotKind;
    use fleche_coding::{FlatKeyCodec, SizeAwareCodec};
    use fleche_index::ScanEntry;
    use fleche_workload::spec;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::BTreeMap;

    fn mk() -> (FlatCache, SizeAwareCodec, DatasetSpec) {
        let ds = spec::synthetic(4, 1_000, 8, -1.2);
        let corpora: Vec<u64> = ds.tables.iter().map(|t| t.corpus).collect();
        let codec = SizeAwareCodec::new(24, &corpora);
        let cache = FlatCache::new(&ds, 8 * 4 * 200, FlatCacheConfig::default());
        (cache, codec, ds)
    }

    fn val(tag: f32) -> Vec<f32> {
        (0..8).map(|i| tag + i as f32).collect()
    }

    /// Stamps `(class, slot)` with `version`, as a versioned write would.
    fn set_version(c: &mut FlatCache, class: u16, slot: u32, version: u64) {
        if let Some(meta) = c.meta.get_mut(class, slot) {
            meta.version = version;
        }
    }

    #[test]
    fn insert_lookup_read_cycle() {
        let (mut c, codec, _) = mk();
        let k = codec.encode(1, 7);
        let (loc, _) = c.insert_value(1, k, &val(3.0), 1);
        let (class, slot) = loc.expect("pool has room");
        let (ans, stats) = c.lookup_batch(&[k], 2)[0];
        assert_eq!(ans, CacheAnswer::Hit { class, slot });
        assert_eq!(stats.hits, 1);
        assert_eq!(c.read_hit(class, slot), val(3.0).as_slice());
    }

    #[test]
    fn fused_write_records_two_pass_checksum() {
        // Every checksummed write path (fresh insert, in-place refresh,
        // update apply) goes through the fused copy+hash; the recorded
        // checksum must equal the standalone two-pass hash of the stored
        // bytes, so verification and quarantine behave exactly as before.
        let (mut c, codec, _) = mk();
        c.enable_checksums();
        let k = codec.encode(2, 11);
        let (loc, _) = c.insert_value(2, k, &val(5.0), 1);
        let (class, slot) = loc.expect("pool has room");
        assert_eq!(c.verify_hits(&[(class, slot)]), [true]);
        // In-place refresh of the same key.
        let (loc2, _) = c.insert_value(2, k, &val(9.0), 2);
        assert_eq!(loc2, Some((class, slot)));
        assert_eq!(c.verify_hits(&[(class, slot)]), [true]);
        assert_eq!(c.read_hit(class, slot), val(9.0).as_slice());
        // Update apply.
        set_version(&mut c, class, slot, 1);
        let report = c.apply_updates(&[SlotUpdate {
            key: k,
            value: val(13.0),
            version: 7,
        }]);
        assert_eq!(report.applied, 1);
        assert_eq!(c.verify_hits(&[(class, slot)]), [true]);
        let recorded = c.meta.get(class, slot).checksum();
        assert_eq!(recorded, Some(fleche_simd::checksum(&val(13.0))));
    }

    #[test]
    fn tables_share_one_backend() {
        let (mut c, codec, ds) = mk();
        // Fill mostly from table 0; table 3 can still insert — capacity is
        // global, not per table.
        let mut inserted = 0;
        for f in 0..150u64 {
            if c.insert_value(0, codec.encode(0, f), &val(f as f32), 1)
                .0
                .is_some()
            {
                inserted += 1;
            }
        }
        assert!(inserted > 100, "one table may consume most of the pool");
        let k3 = codec.encode(3, 5);
        let (loc, _) = c.insert_value(3, k3, &val(9.0), 2);
        assert!(loc.is_some());
        let _ = ds;
    }

    #[test]
    fn miss_on_unknown_key() {
        let (mut c, codec, _) = mk();
        let (ans, stats) = c.lookup_batch(&[codec.encode(2, 42)], 1)[0];
        assert_eq!(ans, CacheAnswer::Miss);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn unified_entries_respect_target() {
        let (mut c, codec, _) = mk();
        assert_eq!(c.unified_count(), 0);
        // Target 0: inserts are no-ops.
        c.insert_dram_ptr(0, 1, codec.encode(0, 1), 1);
        assert_eq!(c.unified_count(), 0);
        c.set_unified_target(2);
        c.insert_dram_ptr(0, 1, codec.encode(0, 1), 1);
        c.insert_dram_ptr(0, 2, codec.encode(0, 2), 1);
        c.insert_dram_ptr(0, 3, codec.encode(0, 3), 1);
        assert_eq!(c.unified_count(), 2, "third exceeds target");
        let (ans, _) = c.lookup_batch(&[codec.encode(0, 1)], 2)[0];
        assert_eq!(ans, CacheAnswer::UnifiedHit);
    }

    #[test]
    fn unified_upgrades_to_value() {
        let (mut c, codec, _) = mk();
        c.set_unified_target(10);
        let k = codec.encode(0, 7);
        c.insert_dram_ptr(0, 7, k, 1);
        assert_eq!(c.lookup_batch(&[k], 2)[0].0, CacheAnswer::UnifiedHit);
        let (loc, _) = c.insert_value(0, k, &val(5.0), 3);
        assert!(loc.is_some());
        assert!(matches!(
            c.lookup_batch(&[k], 4)[0].0,
            CacheAnswer::Hit { .. }
        ));
        assert_eq!(c.unified_count(), 0, "pointer was upgraded");
    }

    #[test]
    fn full_pool_bypasses_instead_of_failing() {
        let ds = spec::synthetic(1, 1_000, 8, -1.2);
        let mut c = FlatCache::new(&ds, 8 * 4 * 4, FlatCacheConfig::default());
        let codec = SizeAwareCodec::new(20, &[1_000]);
        let mut ok = 0;
        let mut bypass = 0;
        for f in 0..10u64 {
            match c.insert_value(0, codec.encode(0, f), &val(f as f32), 1).0 {
                Some(_) => ok += 1,
                None => bypass += 1,
            }
        }
        assert_eq!(ok, 4);
        assert_eq!(bypass, 6);
    }

    #[test]
    fn eviction_frees_cold_entries_after_grace() {
        let ds = spec::synthetic(1, 1_000, 8, -1.2);
        let mut c = FlatCache::new(
            &ds,
            8 * 4 * 10,
            FlatCacheConfig {
                evict_high_watermark: 0.8,
                evict_low_watermark: 0.4,
                admission_probability: 1.0,
                index: IndexBackend::default(),
            },
        );
        let codec = SizeAwareCodec::new(20, &[1_000]);
        for f in 0..10u64 {
            c.insert_value(0, codec.encode(0, f), &val(f as f32), f as u32);
        }
        assert!(c.needs_eviction());
        c.evict_pass_with(|_| None);
        // Slots retired but not yet reclaimed.
        assert!(c.len() <= 10);
        let freed = {
            c.end_batch(); // advance epoch; retirement epoch == current-1
            c.end_batch()
        };
        let _ = freed;
        // After grace, utilization is at or below the low watermark.
        assert!(
            c.effective_utilization() <= 0.4 + 1e-9,
            "utilization {}",
            c.effective_utilization()
        );
        // The survivors are the hottest (largest stamps).
        let (ans, _) = c.lookup_batch(&[codec.encode(0, 9)], 100)[0];
        assert!(matches!(ans, CacheAnswer::Hit { .. }));
        let (ans, _) = c.lookup_batch(&[codec.encode(0, 0)], 100)[0];
        assert_eq!(ans, CacheAnswer::Miss);
    }

    #[test]
    fn pinned_reader_delays_reclamation() {
        let ds = spec::synthetic(1, 100, 8, -1.2);
        let mut c = FlatCache::new(
            &ds,
            8 * 4 * 4,
            FlatCacheConfig {
                evict_high_watermark: 0.5,
                evict_low_watermark: 0.1,
                admission_probability: 1.0,
                index: IndexBackend::default(),
            },
        );
        let codec = SizeAwareCodec::new(20, &[100]);
        let k = codec.encode(0, 1);
        let (loc, _) = c.insert_value(0, k, &val(1.0), 1);
        let (class, slot) = loc.expect("room");
        let guard = c.pin_reader();
        c.evict_pass_with(|_| None);
        c.end_batch();
        c.end_batch();
        // Reader still pinned: the retired slot must remain readable.
        assert_eq!(c.read_hit(class, slot), val(1.0).as_slice());
        c.release_reader(guard);
        let freed = c.end_batch();
        assert!(freed >= 1, "slot reclaimed after release");
    }

    #[test]
    fn eviction_trims_unified_entries_over_target() {
        let (mut c, codec, _) = mk();
        c.set_unified_target(5);
        for f in 0..5u64 {
            c.insert_dram_ptr(0, f, codec.encode(0, f), f as u32);
        }
        assert_eq!(c.unified_count(), 5);
        c.set_unified_target(2);
        c.evict_pass_with(|_| None);
        assert_eq!(c.unified_count(), 2);
    }

    /// DRAM pointers the index holds, counted by scanning it.
    fn pointers_in_index(c: &FlatCache) -> u64 {
        c.index.scan().0.iter().filter(|e| e.loc.is_dram()).count() as u64
    }

    #[test]
    fn pointer_trim_drops_the_coldest_first() {
        let (mut c, codec, _) = mk();
        c.set_unified_target(8);
        for f in 0..8u64 {
            c.insert_dram_ptr(0, f, codec.encode(0, f), 10 + f as u32);
        }
        c.set_unified_target(4);
        c.evict_pass_with(|_| None);
        assert_eq!(c.unified_count(), 4);
        for f in 0..8u64 {
            let expected = if f >= 4 {
                CacheAnswer::UnifiedHit
            } else {
                CacheAnswer::Miss
            };
            assert_eq!(
                c.lookup_batch(&[codec.encode(0, f)], 100)[0].0,
                expected,
                "pointer {f}"
            );
        }
    }

    #[test]
    fn pointer_upgrade_into_a_full_class_keeps_the_count() {
        let ds = spec::synthetic(1, 1_000, 8, -1.2);
        let mut c = FlatCache::new(&ds, 8 * 4 * 2, FlatCacheConfig::default());
        let codec = SizeAwareCodec::new(20, &[1_000]);
        c.set_unified_target(4);
        for f in 0..2u64 {
            assert!(c
                .insert_value(0, codec.encode(0, f), &val(1.0), 1)
                .0
                .is_some());
        }
        let k = codec.encode(0, 10);
        c.insert_dram_ptr(0, 10, k, 1);
        assert_eq!(c.insert_value(0, k, &val(2.0), 2).0, None, "class full");
        assert_eq!(
            c.lookup_batch(&[k], 3)[0].0,
            CacheAnswer::UnifiedHit,
            "pointer stays"
        );
        assert_eq!(c.unified_count(), pointers_in_index(&c));
        assert_eq!(c.unified_count(), 1);
    }

    #[test]
    fn admission_filter_is_probabilistic() {
        let ds = spec::synthetic(1, 100, 8, -1.2);
        let mut c = FlatCache::new(
            &ds,
            1 << 16,
            FlatCacheConfig {
                admission_probability: 0.3,
                ..FlatCacheConfig::default()
            },
        );
        let admitted = (0..10_000).filter(|_| c.admit()).count();
        assert!((2_500..3_500).contains(&admitted), "admitted {admitted}");
    }

    #[test]
    fn checksum_catches_injected_bitflip() {
        let (mut c, codec, _) = mk();
        c.enable_checksums();
        let k = codec.encode(0, 3);
        let (loc, _) = c.insert_value(0, k, &val(2.0), 1);
        let (class, slot) = loc.expect("room");
        assert_eq!(
            c.verify_hits(&[(class, slot)]),
            [true],
            "fresh write verifies"
        );
        let victim = c.corrupt_nth_live(0, 2, 23).expect("one live slot");
        assert_eq!(victim, (class, slot));
        assert_eq!(
            c.verify_hits(&[(class, slot)]),
            [false],
            "flipped bit must be detected"
        );
        // Quarantine removes the entry; the key misses and a re-insert
        // serves clean bytes again.
        c.quarantine(k, class, slot);
        assert_eq!(c.verify_hits(&[(class, slot)]), [true], "record dropped");
        assert_eq!(c.lookup_batch(&[k], 2)[0].0, CacheAnswer::Miss);
        c.end_batch();
        c.end_batch();
        let (loc2, _) = c.insert_value(0, k, &val(2.0), 3);
        let (c2, s2) = loc2.expect("slot reclaimed");
        assert_eq!(c.verify_hits(&[(c2, s2)]), [true]);
        assert_eq!(c.read_hit(c2, s2), val(2.0).as_slice());
    }

    #[test]
    fn checksums_recorded_at_write_verify_once_enabled() {
        let (mut c, codec, _) = mk();
        let k = codec.encode(0, 1);
        let (loc, _) = c.insert_value(0, k, &val(7.0), 1);
        let (class, slot) = loc.expect("room");
        c.enable_checksums();
        assert_eq!(
            c.verify_hits(&[(class, slot)]),
            [true],
            "recorded at its write, verified once enabled"
        );
        c.corrupt_nth_live(0, 0, 12).unwrap();
        assert_eq!(c.verify_hits(&[(class, slot)]), [false]);
    }

    #[test]
    fn enabling_checksums_mid_grace_reads_no_slot() {
        let ds = spec::synthetic(1, 1_000, 8, -1.2);
        let mut c = FlatCache::new(
            &ds,
            8 * 4 * 10,
            FlatCacheConfig {
                evict_high_watermark: 0.8,
                evict_low_watermark: 0.4,
                admission_probability: 1.0,
                index: IndexBackend::default(),
            },
        );
        let codec = SizeAwareCodec::new(20, &[1_000]);
        let mut f = 0u64;
        while !c.needs_eviction() {
            c.insert_value(0, codec.encode(0, f), &val(f as f32), f as u32);
            f += 1;
        }
        c.evict_pass_with(|_| None);
        // Evicted slots are retired, not yet reclaimed. Enabling reads no
        // slot: every survivor's checksum was recorded at its write.
        c.enable_checksums();
        for f in 0..f {
            if let (CacheAnswer::Hit { class, slot }, _) =
                c.lookup_batch(&[codec.encode(0, f)], 100)[0]
            {
                assert_eq!(c.verify_hits(&[(class, slot)]), [true], "survivor {f}");
            }
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_slot_is_quarantined() {
        let (mut c, codec, _) = mk();
        c.enable_checksums();
        let k = codec.encode(0, 3);
        for word in 0..8u32 {
            for bit in 0..32u32 {
                let (loc, _) = c.insert_value(0, k, &val(2.0), 1);
                let (class, slot) = loc.expect("room");
                c.pool.corrupt_bit(class, slot, word, bit).expect("live");
                assert_eq!(
                    c.verify_hits(&[(class, slot)]),
                    [false],
                    "word {word} bit {bit}"
                );
                c.quarantine(k, class, slot);
                assert_eq!(c.lookup_batch(&[k], 2)[0].0, CacheAnswer::Miss);
                c.end_batch();
                c.end_batch();
            }
        }
        assert_eq!(c.live_value_count(), 0, "every quarantined slot reclaimed");
    }

    #[test]
    fn corrupt_nth_live_out_of_range_is_none() {
        let (mut c, codec, _) = mk();
        assert_eq!(c.corrupt_nth_live(0, 0, 0), None, "empty cache");
        c.insert_value(0, codec.encode(0, 1), &val(1.0), 1);
        assert_eq!(c.live_value_count(), 1);
        assert!(c.corrupt_nth_live(0, 0, 0).is_some());
        assert_eq!(c.corrupt_nth_live(1, 0, 0), None);
    }

    #[test]
    fn snapshot_round_trips_into_fresh_cache() {
        let (mut c, codec, ds) = mk();
        for f in 0..20u64 {
            c.insert_value(0, codec.encode(0, f), &val(f as f32), f as u32);
        }
        c.end_batch();
        let (snap, read) = c.checkpoint(0);
        assert_eq!(read.slots.len() as u64, c.live_value_count());
        assert!(snap.deltas().is_empty(), "a full image is a chain of one");
        let mut fresh = FlatCache::new(&ds, 8 * 4 * 200, FlatCacheConfig::default());
        let report = fresh.restore(&snap).expect("clean image restores");
        assert_eq!(report.restored, c.live_value_count());
        assert_eq!(report.bypassed, 0);
        assert_eq!(report.max_stamp, 19);
        assert_eq!(report.slots.len() as u64, report.restored);
        // Checkpoints of identical logical state are bit-identical, even
        // though the restored cache assigned different physical slots.
        // (Checked before the lookups below, which bump LRU stamps.)
        assert_eq!(snap, fresh.checkpoint(0).0);
        for f in 0..20u64 {
            let k = codec.encode(0, f);
            let (ans, _) = fresh.lookup_batch(&[k], 100)[0];
            let CacheAnswer::Hit { class, slot } = ans else {
                panic!("restored key {f} must hit");
            };
            assert_eq!(fresh.read_hit(class, slot), val(f as f32).as_slice());
        }
    }

    #[test]
    fn corrupt_snapshot_is_rejected_and_cache_untouched() {
        let (mut c, codec, _) = mk();
        for f in 0..8u64 {
            c.insert_value(0, codec.encode(0, f), &val(f as f32), f as u32);
        }
        c.end_batch();
        let (mut snap, _) = c.checkpoint(0);
        assert!(snap.corrupt_byte(snap.byte_len() / 2));
        let before = c.len();
        assert!(c.restore(&snap).is_err(), "rotted image must be refused");
        assert_eq!(c.len(), before, "failed restore must not mutate");
    }

    #[test]
    fn snapshot_excludes_dram_pointers_and_is_key_sorted() {
        let (mut c, codec, _) = mk();
        c.set_unified_target(4);
        for f in 0..4u64 {
            c.insert_dram_ptr(0, 100 + f, codec.encode(0, 100 + f), 1);
        }
        for f in 0..10u64 {
            c.insert_value(0, codec.encode(0, f), &val(f as f32), f as u32);
        }
        let entries = c.checkpoint(0).0.base().decode().expect("valid image");
        assert_eq!(entries.len(), 10, "only HBM values are captured");
        assert!(
            entries.windows(2).all(|w| w[0].key < w[1].key),
            "image sorted by flat key"
        );
    }

    #[test]
    fn snapshot_mid_grace_excludes_evicted_entries() {
        let ds = spec::synthetic(1, 1_000, 8, -1.2);
        let mut c = FlatCache::new(
            &ds,
            8 * 4 * 10,
            FlatCacheConfig {
                evict_high_watermark: 0.8,
                evict_low_watermark: 0.4,
                admission_probability: 1.0,
                index: IndexBackend::default(),
            },
        );
        let codec = SizeAwareCodec::new(20, &[1_000]);
        for f in 0..10u64 {
            c.insert_value(0, codec.encode(0, f), &val(f as f32), f as u32);
        }
        c.evict_pass_with(|_| None);
        // Mid-grace: evicted bytes are still physically present in retired
        // slots, but the image must hold only the surviving entries.
        let survivors = c.len() as u64;
        assert!(survivors < 10, "eviction removed something");
        let (chain, _) = c.checkpoint(0);
        let snap = chain.base();
        assert_eq!(snap.entry_count_hint(), survivors);
        assert_eq!(snap.decode().expect("valid").len() as u64, survivors);
    }

    #[test]
    fn restore_into_smaller_pool_keeps_hottest_band() {
        let ds = spec::synthetic(1, 1_000, 8, -1.2);
        let mut big = FlatCache::new(
            &ds,
            8 * 4 * 16,
            FlatCacheConfig {
                admission_probability: 1.0,
                ..FlatCacheConfig::default()
            },
        );
        let codec = SizeAwareCodec::new(20, &[1_000]);
        for f in 0..16u64 {
            big.insert_value(0, codec.encode(0, f), &val(f as f32), f as u32);
        }
        let (snap, _) = big.checkpoint(0);
        let mut small = FlatCache::new(&ds, 8 * 4 * 4, FlatCacheConfig::default());
        let report = small.restore(&snap).expect("valid image");
        assert_eq!(report.restored, 4);
        assert_eq!(report.bypassed, 12);
        for f in 12..16u64 {
            assert!(
                matches!(
                    small.lookup_batch(&[codec.encode(0, f)], 100)[0].0,
                    CacheAnswer::Hit { .. }
                ),
                "hottest stamps must survive the shrink"
            );
        }
    }

    #[test]
    fn wipe_returns_cache_to_fresh_state() {
        let (mut c, codec, _) = mk();
        c.enable_checksums();
        c.set_unified_target(2);
        c.insert_dram_ptr(0, 50, codec.encode(0, 50), 1);
        for f in 0..6u64 {
            c.insert_value(0, codec.encode(0, f), &val(f as f32), f as u32);
        }
        c.wipe_with(|_, _| {});
        assert!(c.is_empty());
        assert_eq!(c.live_value_count(), 0);
        assert_eq!(c.unified_count(), 0);
        assert_eq!(
            c.lookup_batch(&[codec.encode(0, 3)], 9)[0].0,
            CacheAnswer::Miss
        );
        // And it serves cleanly again afterwards.
        let (loc, _) = c.insert_value(0, codec.encode(0, 3), &val(3.0), 10);
        let (class, slot) = loc.expect("fresh pool has room");
        assert_eq!(c.verify_hits(&[(class, slot)]), [true]);
        assert_eq!(c.read_hit(class, slot), val(3.0).as_slice());
    }

    #[test]
    fn apply_updates_is_monotonic_and_recomputes_checksums() {
        let (mut c, codec, _) = mk();
        c.enable_checksums();
        let k = codec.encode(0, 3);
        let (loc, _) = c.insert_value(0, k, &val(1.0), 1);
        let (class, slot) = loc.expect("room");
        assert_eq!(c.slot_version(class, slot), 0);

        let up = |version: u64, tag: f32| SlotUpdate {
            key: k,
            version,
            value: val(tag),
        };
        let report = c.apply_updates(&[up(2, 20.0)]);
        assert_eq!(report.applied, 1);
        assert_eq!(report.slots, vec![(class, slot)]);
        assert_eq!(c.slot_version(class, slot), 2);
        assert_eq!(c.read_hit(class, slot), val(20.0).as_slice());
        assert_eq!(
            c.verify_hits(&[(class, slot)]),
            [true],
            "checksum recomputed on apply"
        );

        // A duplicate and a reordered (older) push are both no-ops.
        let report = c.apply_updates(&[up(2, 99.0), up(1, 98.0)]);
        assert_eq!(report.superseded, 2);
        assert_eq!(report.applied, 0);
        assert_eq!(c.read_hit(class, slot), val(20.0).as_slice());
        assert_eq!(c.slot_version(class, slot), 2);

        // An uncached key is absent, not an error.
        let report = c.apply_updates(&[SlotUpdate {
            key: codec.encode(1, 500),
            version: 1,
            value: val(7.0),
        }]);
        assert_eq!(report.absent, 1);
    }

    /// Everything an apply may write to one slot: its location, the row's
    /// bits, its checksum record and its version.
    type SlotState = ((u16, u32), Vec<u32>, Option<u32>, u64);

    /// [`SlotState`] of every live slot, in (class, slot) order.
    fn slot_state(c: &FlatCache) -> Vec<SlotState> {
        (0..c.pool.class_count() as u16)
            .flat_map(|class| {
                c.pool
                    .live_slots(class)
                    .into_iter()
                    .map(move |s| (class, s))
            })
            .map(|(class, slot)| {
                let row = c.pool.read_during_grace(class, slot).expect("live slot");
                let bits = row.iter().map(|v| v.to_bits()).collect();
                let sum = c.meta.get(class, slot).checksum();
                ((class, slot), bits, sum, c.slot_version(class, slot))
            })
            .collect()
    }

    fn index_stamps(c: &FlatCache) -> Vec<(u64, u32)> {
        let mut stamps: Vec<(u64, u32)> =
            c.index.scan().0.iter().map(|e| (e.key, e.stamp)).collect();
        stamps.sort_unstable();
        stamps
    }

    #[test]
    fn batched_apply_equals_one_push_at_a_time() {
        // Four resident keys at version 1; the fourth's slot is retired
        // while its index entry stays, which the apply must not write.
        let build = || {
            let (mut c, codec, _) = mk();
            c.enable_checksums();
            let keys: Vec<FlatKey> = (0..4u64).map(|f| codec.encode(2, 40 + f)).collect();
            for (i, &k) in keys.iter().enumerate() {
                let (loc, _) = c.insert_value(2, k, &val(i as f32), 10 + i as u32);
                let (class, slot) = loc.expect("room");
                set_version(&mut c, class, slot, 1);
            }
            if let (CacheAnswer::Hit { class, slot }, _) = c.lookup_batch(&[keys[3]], 20)[0] {
                c.retire_slot(class, slot, false);
            }
            (c, codec, keys)
        };
        let (mut batched, codec, keys) = build();
        let up = |key: FlatKey, version: u64, value: Vec<f32>| SlotUpdate {
            key,
            version,
            value,
        };
        let pending = vec![
            up(keys[0], 3, val(30.0)),             // v+1 ...
            up(keys[0], 2, val(20.0)),             // ... then v: superseded
            up(keys[1], 2, val(21.0)),             // v ...
            up(keys[1], 3, val(31.0)),             // ... then v+1: both applied
            up(codec.encode(2, 900), 5, val(5.0)), // absent key
            up(keys[3], 1, val(6.0)),              // retired slot, not newer
            up(keys[2], 5, vec![7.0; 4]),          // dim mismatch
            up(keys[2], 1, val(8.0)),              // equal version: superseded
        ];
        let stamps = index_stamps(&batched);
        let report = batched.apply_updates(&pending);

        let (mut serial, _, _) = build();
        let mut one_by_one = UpdateApplyReport::default();
        for u in &pending {
            let r = serial.apply_updates(std::slice::from_ref(u));
            one_by_one.applied += r.applied;
            one_by_one.superseded += r.superseded;
            one_by_one.absent += r.absent;
            one_by_one.slots.extend(r.slots);
        }

        assert_eq!(report, one_by_one);
        assert_eq!(
            (report.applied, report.superseded, report.absent),
            (3, 2, 3)
        );
        assert_eq!(slot_state(&batched), slot_state(&serial));
        assert_eq!(index_stamps(&batched), stamps, "the apply bumps no stamp");
        assert_eq!(index_stamps(&serial), stamps);
    }

    #[test]
    fn reused_slot_does_not_inherit_version() {
        let (mut c, codec, _) = mk();
        let k = codec.encode(0, 3);
        let (loc, _) = c.insert_value(0, k, &val(1.0), 1);
        let (class, slot) = loc.expect("room");
        c.apply_updates(&[SlotUpdate {
            key: k,
            version: 5,
            value: val(5.0),
        }]);
        assert_eq!(c.slot_version(class, slot), 5);
        // Re-fetch through the normal insert workflow (e.g. after a
        // quarantine-and-refill): the version resets until the writer
        // stamps what it actually fetched.
        c.insert_value(0, k, &val(1.0), 2);
        assert_eq!(c.slot_version(class, slot), 0);
        set_version(&mut c, class, slot, 7);
        assert_eq!(c.slot_version(class, slot), 7);
    }

    #[test]
    fn delta_capture_holds_only_advanced_keys() {
        let (mut c, codec, _) = mk();
        for f in 0..10u64 {
            c.insert_value(0, codec.encode(0, f), &val(f as f32), f as u32);
        }
        c.end_batch();
        let (base, _) = c.checkpoint(3);
        assert_eq!(base.base().epoch(), 3);
        // Nothing advanced yet: the delta is empty.
        let mut chain = base.clone();
        let read0 = c.delta_checkpoint(&mut chain);
        assert_eq!(chain.latest().entry_count_hint(), 0);
        assert!(read0.slots.is_empty());
        // Advance two keys.
        for (f, v) in [(2u64, 1u64), (7, 4)] {
            c.apply_updates(&[SlotUpdate {
                key: codec.encode(0, f),
                version: v,
                value: val(100.0 + f as f32),
            }]);
        }
        let mut chain = base.clone();
        let read1 = c.delta_checkpoint(&mut chain);
        let d1 = chain.latest();
        assert_eq!(d1.kind(), Some(SnapshotKind::Delta));
        assert_eq!(d1.epoch(), 3);
        assert_eq!(d1.delta_seq(), 1);
        let entries = d1.decode().expect("clean delta");
        assert_eq!(entries.len(), 2);
        assert_eq!(read1.slots.len(), 2);
        assert!(entries.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn restore_chain_recovers_to_latest_version() {
        let (mut c, codec, ds) = mk();
        for f in 0..10u64 {
            c.insert_value(0, codec.encode(0, f), &val(f as f32), f as u32);
        }
        c.end_batch();
        let (mut chain, _) = c.checkpoint(1);
        c.apply_updates(&[SlotUpdate {
            key: codec.encode(0, 2),
            version: 3,
            value: val(50.0),
        }]);
        c.delta_checkpoint(&mut chain);
        c.apply_updates(&[SlotUpdate {
            key: codec.encode(0, 2),
            version: 4,
            value: val(60.0),
        }]);
        c.delta_checkpoint(&mut chain);
        let (base, d1, d2) = (
            chain.base().clone(),
            chain.deltas()[0].clone(),
            chain.deltas()[1].clone(),
        );

        let mut fresh = FlatCache::new(&ds, 8 * 4 * 200, FlatCacheConfig::default());
        let report = fresh.restore(&chain).expect("verified chain restores");
        assert_eq!(report.max_version, 4, "recovered to latest, not base");
        let (ans, _) = fresh.lookup_batch(&[codec.encode(0, 2)], 100)[0];
        let CacheAnswer::Hit { class, slot } = ans else {
            panic!("updated key must hit after chain restore");
        };
        assert_eq!(fresh.read_hit(class, slot), val(60.0).as_slice());
        assert_eq!(fresh.slot_version(class, slot), 4);
        // Re-applying the whole chain is idempotent: the base's version-0
        // entry and d1's version-3 entry are both superseded by the
        // resident version 4 — never a regression.
        let again = fresh.restore(&chain).expect("re-restore is clean");
        assert!(again.superseded >= 2);
        let (ans, _) = fresh.lookup_batch(&[codec.encode(0, 2)], 100)[0];
        let CacheAnswer::Hit { class, slot } = ans else {
            panic!("updated key must still hit");
        };
        assert_eq!(fresh.read_hit(class, slot), val(60.0).as_slice());
        assert_eq!(fresh.slot_version(class, slot), 4);

        // Broken chains are refused before any mutation.
        let mut untouched = FlatCache::new(&ds, 8 * 4 * 200, FlatCacheConfig::default());
        untouched.set_unified_target(2);
        untouched.insert_dram_ptr(0, 500, codec.encode(0, 500), 1);
        untouched.insert_value(0, codec.encode(0, 900), &val(9.0), 1);
        let before = untouched.checkpoint(0).0;
        let gapped = CheckpointChain::from_images(base.clone(), vec![d2.clone()]);
        assert_eq!(
            untouched.restore(&gapped),
            Err(SnapshotError::SequenceGap {
                expected: 1,
                found: 2
            })
        );
        let mut rotten = d1.clone();
        assert!(rotten.corrupt_byte(rotten.byte_len() / 2));
        let rotted = CheckpointChain::from_images(base, vec![rotten, d2]);
        assert!(untouched.restore(&rotted).is_err());
        // A lone delta is not a base: refused whole, never replayed as a
        // "warm start" holding only the keys that happened to change.
        let lone_delta = CheckpointChain::from_images(d1, Vec::new());
        assert_eq!(
            untouched.restore(&lone_delta),
            Err(SnapshotError::KindMismatch {
                expected: SnapshotKind::Full,
                found: SnapshotKind::Delta
            })
        );
        assert_eq!(untouched.len(), 2, "failed chain must not mutate");
        assert_eq!(untouched.live_value_count(), 1);
        assert_eq!(untouched.unified_count(), 1);
        assert_eq!(untouched.checkpoint(0).0, before);
    }

    #[test]
    fn snapshot_carries_versions_through_restore() {
        let (mut c, codec, ds) = mk();
        let k = codec.encode(0, 1);
        c.insert_value(0, k, &val(1.0), 1);
        c.apply_updates(&[SlotUpdate {
            key: k,
            version: 9,
            value: val(9.0),
        }]);
        let (snap, _) = c.checkpoint(0);
        let mut fresh = FlatCache::new(&ds, 8 * 4 * 200, FlatCacheConfig::default());
        fresh.restore(&snap).expect("clean");
        let (ans, _) = fresh.lookup_batch(&[k], 10)[0];
        let CacheAnswer::Hit { class, slot } = ans else {
            panic!("restored key must hit");
        };
        assert_eq!(fresh.slot_version(class, slot), 9);
        // And a full re-restore of the same image is idempotent.
        let again = fresh.restore(&snap).expect("clean");
        assert_eq!(again.restored, 1, "equal version rewrites same bytes");
        assert_eq!(fresh.slot_version(class, slot), 9);
    }

    #[test]
    fn tenant_quota_denies_admission_at_capacity() {
        let ds = spec::synthetic(1, 1_000, 8, -1.2);
        let mut c = FlatCache::new(
            &ds,
            8 * 4 * 10,
            FlatCacheConfig {
                admission_probability: 1.0,
                ..FlatCacheConfig::default()
            },
        );
        let codec = SizeAwareCodec::new(20, &[1_000]);
        c.enable_tenant_partitioning(&[0.3, 0.5]);
        // Tenant 0's partition is 3 slots; fill it.
        c.set_active_tenant(0);
        for f in 0..3u64 {
            assert!(c.admit(), "under quota must pass the filter");
            c.insert_value(0, codec.encode(0, f), &val(f as f32), 1);
        }
        let s0 = c.tenant_cache_stats(0);
        assert_eq!(s0.occupancy_bytes, 3 * 8 * 4);
        assert_eq!(s0.quota_bytes, 96);
        assert!(!c.admit(), "at quota the tenant is denied");
        assert_eq!(c.tenant_cache_stats(0).denied, 1);
        // A different tenant still admits into its own partition.
        c.set_active_tenant(1);
        assert!(c.admit());
        assert_eq!(c.tenant_cache_stats(1).denied, 0);
    }

    #[test]
    fn eviction_reclaims_from_the_over_quota_tenant_first() {
        let ds = spec::synthetic(1, 1_000, 8, -1.2);
        let mut c = FlatCache::new(
            &ds,
            8 * 4 * 10,
            FlatCacheConfig {
                evict_high_watermark: 0.8,
                evict_low_watermark: 0.4,
                admission_probability: 1.0,
                index: IndexBackend::default(),
            },
        );
        let codec = SizeAwareCodec::new(20, &[1_000]);
        c.enable_tenant_partitioning(&[0.3, 0.5]);
        // Tenant 1 holds 4 slots (inside its 5-slot quota), inserted with
        // the COLDEST stamps — plain LRU would evict these first.
        c.set_active_tenant(1);
        for f in 0..4u64 {
            c.insert_value(0, codec.encode(0, 100 + f), &val(f as f32), f as u32);
        }
        // Tenant 0 floods 6 slots (its quota is 3) with the hottest stamps.
        c.set_active_tenant(0);
        for f in 0..6u64 {
            c.insert_value(0, codec.encode(0, f), &val(f as f32), 50 + f as u32);
        }
        assert!(c.needs_eviction());
        c.evict_pass_with(|_| None);
        // The over-quota tenant's entries go first despite their heat:
        // every one of tenant 1's cold entries survives the flood.
        for f in 0..4u64 {
            assert!(
                matches!(
                    c.lookup_batch(&[codec.encode(0, 100 + f)], 200)[0].0,
                    CacheAnswer::Hit { .. }
                ),
                "in-quota tenant's entry {f} must survive a neighbor's flood"
            );
        }
        assert!(c.tenant_cache_stats(0).evictions > 0);
        assert_eq!(c.tenant_cache_stats(1).evictions, 0);
    }

    #[test]
    fn tenant_ownership_transfers_on_refresh() {
        let (mut c, codec, _) = mk();
        c.enable_tenant_partitioning(&[0.4, 0.4]);
        let k = codec.encode(0, 7);
        c.set_active_tenant(0);
        c.insert_value(0, k, &val(1.0), 1);
        assert_eq!(c.tenant_cache_stats(0).occupancy_bytes, 32);
        assert_eq!(c.tenant_cache_stats(1).occupancy_bytes, 0);
        // The same key refreshed under tenant 1 moves the charge.
        c.set_active_tenant(1);
        c.insert_value(0, k, &val(2.0), 2);
        assert_eq!(c.tenant_cache_stats(0).occupancy_bytes, 0);
        assert_eq!(c.tenant_cache_stats(1).occupancy_bytes, 32);
        // Wipe zeroes occupancy but keeps the partition and its counters.
        c.wipe_with(|_, _| {});
        assert_eq!(c.tenant_cache_stats(1).occupancy_bytes, 0);
        assert!(c.tenant_cache_stats(1).quota_bytes > 0);
    }

    #[test]
    fn slot_without_a_checksum_record_passes() {
        let (mut c, codec, _) = mk();
        c.enable_checksums();
        let k = codec.encode(0, 3);
        let (loc, _) = c.insert_value(0, k, &val(2.0), 1);
        let (class, slot) = loc.expect("room");
        c.corrupt_nth_live(0, 1, 7).expect("one live slot");
        assert_eq!(
            c.verify_hits(&[(class, slot)]),
            [false],
            "recorded and corrupt: fails"
        );
        // Quarantine drops the record; the retired slot (still readable in
        // its grace period) then has nothing to be checked against.
        c.quarantine(k, class, slot);
        assert_eq!(c.verify_hits(&[(class, slot)]), [true]);
        // A location the pool never had has no record either.
        assert_eq!(c.verify_hits(&[(9, 9), (class, u32::MAX)]), [true; 2]);
    }

    #[test]
    fn version_record_is_dropped_with_the_slot() {
        let (mut c, codec, _) = mk();
        let k = codec.encode(0, 3);
        let (loc, _) = c.insert_value(0, k, &val(1.0), 1);
        let (class, slot) = loc.expect("room");
        assert_eq!(c.slot_version(class, slot), 0, "an unversioned write");
        assert_eq!(c.slot_version(9, 9), 0, "outside the pool reads as frozen");
        c.record_write(class, slot, 0, 4);
        assert_eq!(c.slot_version(class, slot), 4);
        // Writes outside the pool are ignored, not a panic.
        c.record_write(9, 9, 0, 7);
        assert_eq!(c.slot_version(9, 9), 0);
        // Quarantine and wipe both drop the version with the slot.
        c.quarantine(k, class, slot);
        assert_eq!(c.slot_version(class, slot), 0);
        c.record_write(class, slot, 0, 5);
        c.wipe_with(|_, _| {});
        assert_eq!(c.slot_version(class, slot), 0);
    }

    #[test]
    fn slots_resident_before_partitioning_stay_unowned() {
        let ds = spec::synthetic(1, 1_000, 8, -1.2);
        let mut c = FlatCache::new(
            &ds,
            8 * 4 * 10,
            FlatCacheConfig {
                evict_high_watermark: 0.8,
                evict_low_watermark: 0.4,
                admission_probability: 1.0,
                index: IndexBackend::default(),
            },
        );
        let codec = SizeAwareCodec::new(20, &[1_000]);
        for f in 0..6u64 {
            c.insert_value(0, codec.encode(0, f), &val(f as f32), f as u32);
        }
        c.enable_tenant_partitioning(&[0.5, 0.5]);
        c.set_active_tenant(1);
        for f in 6..9u64 {
            c.insert_value(0, codec.encode(0, f), &val(f as f32), 100);
        }
        assert_eq!(c.tenant_cache_stats(1).occupancy_bytes, 3 * 32);
        assert!(c.needs_eviction());
        c.evict_pass_with(|_| None);
        // Five of the six pre-existing entries were coldest and went; none
        // is charged to, or counted as evicted from, any tenant.
        assert_eq!(c.len(), 4);
        for tenant in 0..2 {
            assert_eq!(c.tenant_cache_stats(tenant).evictions, 0);
        }
        assert_eq!(c.tenant_cache_stats(0).occupancy_bytes, 0);
        assert_eq!(c.tenant_cache_stats(1).occupancy_bytes, 3 * 32);
    }

    #[test]
    fn batch_lookup_equals_per_key_lookup_in_input_order() {
        for index in [IndexBackend::SlabHash, IndexBackend::MegaKv] {
            let ds = spec::synthetic(4, 1_000, 8, -1.2);
            let corpora: Vec<u64> = ds.tables.iter().map(|t| t.corpus).collect();
            let codec = SizeAwareCodec::new(24, &corpora);
            let config = FlatCacheConfig {
                index,
                ..FlatCacheConfig::default()
            };
            let mut a = FlatCache::new(&ds, 8 * 4 * 200, config);
            let mut b = FlatCache::new(&ds, 8 * 4 * 200, config);
            for c in [&mut a, &mut b] {
                c.set_unified_target(8);
                for f in 0..60u64 {
                    c.insert_value(
                        (f % 4) as u16,
                        codec.encode((f % 4) as u16, f),
                        &val(1.0),
                        1,
                    );
                }
                for f in 100..104u64 {
                    c.insert_dram_ptr(1, f, codec.encode(1, f), 1);
                }
            }
            // Hits, unified hits, misses and a duplicate, across tables.
            let keys: Vec<FlatKey> = [(0, 0), (1, 101), (3, 999), (2, 2), (0, 0), (1, 5), (2, 777)]
                .iter()
                .map(|&(t, f)| codec.encode(t, f))
                .collect();
            let batch = a.lookup_batch(&keys, 9);
            let per_key: Vec<_> = keys.iter().map(|&k| b.lookup_batch(&[k], 9)[0]).collect();
            assert_eq!(batch, per_key, "{index:?}");
            let mut reused = vec![(CacheAnswer::Miss, ProbeStats::new()); 3];
            a.lookup_batch_into(&keys, 9, &mut reused);
            assert_eq!(reused, per_key, "buffer is cleared first ({index:?})");
        }
    }

    #[test]
    fn tenancy_off_reports_zeros_and_ignores_declarations() {
        let (mut c, codec, _) = mk();
        assert!(c.tenants.band().is_none(), "no tenants: partitioning off");
        c.set_active_tenant(3);
        c.insert_value(0, codec.encode(0, 1), &val(1.0), 1);
        assert_eq!(c.tenant_cache_stats(0), TenantCacheStats::default());
        assert_eq!(c.tenant_cache_stats(3), TenantCacheStats::default());
    }

    #[test]
    fn mixed_dims_get_separate_classes() {
        let mut ds = spec::synthetic(2, 1_000, 16, -1.2);
        ds.tables[1].dim = 64;
        let c = FlatCache::new(&ds, 1 << 20, FlatCacheConfig::default());
        assert_ne!(c.class_of_table[0], c.class_of_table[1]);
        assert_eq!(c.table_dims()[0], 16);
        assert_eq!(c.table_dims()[1], 64);
    }

    #[test]
    fn restoring_a_key_under_another_class_retires_its_old_slot() {
        // A checkpoint read back after the dataset's geometry changed can
        // name a valid class other than the one the key lives in.
        let mut ds = spec::synthetic(2, 1_000, 16, -1.2);
        ds.tables[1].dim = 64;
        let mut c = FlatCache::new(&ds, 1 << 20, FlatCacheConfig::default());
        let key = FlatKey(7);
        c.insert_value(0, key, &[1.0; 16], 1)
            .0
            .expect("pool has room");
        let entry = SnapshotEntry {
            key: key.0,
            class: c.class_of_table[1],
            stamp: 2,
            version: 0,
            value: vec![2.0; 64],
        };
        let report = c
            .restore(&CheckpointChain::new(1, &[entry]))
            .expect("verified chain restores");
        assert_eq!(report.restored, 1);
        c.end_batch();
        assert_eq!(c.len(), 1);
        assert_eq!(c.live_value_count(), 1, "the old slot is freed");
    }

    /// A [`GpuIndex`] that counts its [`GpuIndex::scan_with`] calls.
    #[derive(Debug)]
    struct CountingScans {
        inner: Box<dyn GpuIndex>,
        scans: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl GpuIndex for CountingScans {
        fn lookup(&mut self, key: u64, touch: Option<u32>) -> (Option<PackedLoc>, ProbeStats) {
            self.inner.lookup(key, touch)
        }
        fn peek(&self, key: u64) -> Option<PackedLoc> {
            self.inner.peek(key)
        }
        fn insert(&mut self, key: u64, loc: PackedLoc, stamp: u32) -> (IndexInsert, ProbeStats) {
            self.inner.insert(key, loc, stamp)
        }
        fn remove(&mut self, key: u64) -> (Option<PackedLoc>, ProbeStats) {
            self.inner.remove(key)
        }
        fn clear(&mut self) {
            self.inner.clear();
        }
        fn scan_with(&self, visit: &mut dyn FnMut(&[ScanEntry])) -> ProbeStats {
            self.scans
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.scan_with(visit)
        }
        fn scan_stats(&self) -> ProbeStats {
            self.inner.scan_stats()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn device_bytes(&self) -> u64 {
            self.inner.device_bytes()
        }
        fn bucket_count(&self) -> usize {
            self.inner.bucket_count()
        }
    }

    #[test]
    fn a_pass_scans_the_index_only_to_trim_pointers() {
        for index in [IndexBackend::SlabHash, IndexBackend::MegaKv] {
            let ds = spec::synthetic(1, 1_000, 8, -1.2);
            let config = FlatCacheConfig {
                evict_high_watermark: 0.8,
                evict_low_watermark: 0.4,
                admission_probability: 1.0,
                index,
            };
            let mut c = FlatCache::new(&ds, 8 * 4 * 40, config);
            let scans = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let inner = std::mem::replace(&mut c.index, Box::new(SlabHash::new(1)));
            c.index = Box::new(CountingScans {
                inner,
                scans: scans.clone(),
            });
            let codec = SizeAwareCodec::new(20, &[1_000]);
            c.set_unified_target(8);
            for f in 0..8u64 {
                c.insert_dram_ptr(0, 500 + f, codec.encode(0, 500 + f), 1);
            }
            for f in 0..40u64 {
                c.insert_value(0, codec.encode(0, f), &val(f as f32), 2 + f as u32);
            }
            assert!(c.needs_eviction());
            let before = c.len();
            let stats = c.evict_pass_with(|_| None);
            assert!(c.len() < before, "{index:?}: the pass evicted");
            assert_eq!(
                scans.load(std::sync::atomic::Ordering::Relaxed),
                0,
                "{index:?}"
            );
            assert!(stats.slabs_visited >= c.index.scan_stats().slabs_visited);
            c.set_unified_target(3);
            c.evict_pass_with(|_| None);
            assert_eq!(c.unified_count(), 3, "{index:?}");
            assert_eq!(
                scans.load(std::sync::atomic::Ordering::Relaxed),
                1,
                "{index:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ranking from the slot records equals a full sort of the
        /// index's value ranks, whatever the spread of stamps, the bands
        /// and `k`, on this pass and on the next, which must carry no
        /// state over from this one through the reused rank buffer.
        #[test]
        fn coldest_values_equal_a_full_sort(
            values in prop::collection::vec((0u64..400, 0u32..4_000_000, 0usize..2), 1..120),
            quotas in any::<bool>(),
            k in 0usize..140,
        ) {
            let ds = spec::synthetic(1, 400, 8, -1.2);
            let mut c = FlatCache::new(&ds, 8 * 4 * 100, FlatCacheConfig::default());
            if quotas {
                c.enable_tenant_partitioning(&[0.1, 0.5]);
            }
            for &(f, stamp, tenant) in &values {
                c.set_active_tenant(tenant);
                c.insert_value(0, FlatKey(f), &val(1.0), stamp);
            }
            // The reference ranks the index's values, as the scan did.
            let band = c.tenants.band();
            let mut want = Vec::new();
            for e in c.index.scan().0 {
                if let Loc::Hbm { class, slot } = e.loc.unpack() {
                    let owner = c.meta.get(class, slot).owner;
                    let in_quota = band.as_ref().is_none_or(|in_quota| in_quota(owner));
                    let before: usize = c.meta.classes[..class as usize].iter().map(Vec::len).sum();
                    let ordinal = before as u32 + slot;
                    prop_assert_eq!(c.meta.locate(ordinal as usize), (class, slot));
                    want.push(evict_rank(in_quota, e.stamp, e.key, ordinal));
                }
            }
            drop(band);
            want.sort_unstable();
            want.truncate(k);
            for pass in 0..2 {
                let got = c.coldest_values(k);
                prop_assert_eq!(&got, &want, "pass {}", pass);
                c.evict_ranks = got;
            }
        }
    }

    /// The eviction pass before victims were selected, kept as the
    /// reference the real pass must equal: the whole index scanned into a
    /// vector, all of it sorted in the pinned order, then walked.
    fn reference_evict_pass(
        c: &mut FlatCache,
        decode: impl Fn(u64) -> Option<(u16, u64)>,
    ) -> ProbeStats {
        c.evict_passes += 1;
        let (entries, mut stats) = c.index.scan();
        let target_bytes = c.low_watermark_bytes();
        let mut projected = c.footprint_bytes();
        if c.unified_count > c.unified_target {
            let mut pointers: Vec<&ScanEntry> =
                entries.iter().filter(|e| e.loc.is_dram()).collect();
            pointers.sort_unstable_by_key(|e| (e.stamp, e.key));
            let excess = (c.unified_count - c.unified_target) as usize;
            for e in pointers.into_iter().take(excess) {
                let (_, s) = c.index.remove(e.key);
                stats.merge(&s);
                c.unified_count -= 1;
                projected = projected.saturating_sub(UNIFIED_ENTRY_BYTES);
            }
        }
        let mut values: Vec<(bool, u32, u64, u16, u32)> = {
            let band = c.tenants.band();
            entries
                .iter()
                .filter_map(|e| match e.loc.unpack() {
                    Loc::Hbm { class, slot } => {
                        let owner = c.meta.get(class, slot).owner;
                        let in_quota = band.as_ref().is_none_or(|in_quota| in_quota(owner));
                        Some((in_quota, e.stamp, e.key, class, slot))
                    }
                    Loc::Dram { .. } => None,
                })
                .collect()
        };
        values.sort_unstable();
        for (_, stamp, key, class, slot) in values {
            if projected <= target_bytes {
                break;
            }
            let bytes = c.slot_bytes(class);
            if c.unified_count < c.unified_target {
                if let Some((table, feature)) = decode(key) {
                    let (outcome, s) =
                        c.index
                            .insert(key, Loc::Dram { table, feature }.pack(), stamp);
                    assert!(matches!(outcome, IndexInsert::Updated { .. }));
                    stats.merge(&s);
                    c.retire_slot(class, slot, true);
                    c.unified_count += 1;
                    projected = projected.saturating_sub(bytes);
                    projected += UNIFIED_ENTRY_BYTES;
                    continue;
                }
            }
            let (_, s) = c.index.remove(key);
            stats.merge(&s);
            c.retire_slot(class, slot, true);
            projected = projected.saturating_sub(bytes);
        }
        stats
    }

    /// One step of the differential op stream.
    #[derive(Clone, Debug)]
    enum Op {
        /// Insert `(table, feature)` at the current stamp.
        Insert(u16, u64),
        /// Look up `n` consecutive features of a table at the current
        /// stamp, bumping many keys to one stamp.
        Touch(u16, u64, u64),
        /// Insert a unified pointer for `(table, feature)`.
        Pointer(u16, u64),
        /// Move the unified target (up, down, or to 0).
        Target(u64),
        /// Make `tenant` the owner of later inserts.
        Tenant(usize),
        /// Advance the stamp and end the batch (reclaims retired slots
        /// no pinned reader can reach).
        Tick,
        /// Pin a reader: slots retired from now stay in grace.
        Pin,
        /// Release the oldest pinned reader.
        Release,
        /// Run a pass whether or not the watermark asks for one.
        Evict,
        /// Quarantine the `n`th resident value in key order.
        Quarantine(usize),
        /// Push `n` consecutive features of a table at a newer version.
        Apply(u16, u64, u64),
        /// Checkpoint, then restore into a fresh cache that replaces this
        /// one (pinned readers go with the old cache).
        Restore,
        /// Release every reader, then drop everything, as a device loss
        /// does.
        Wipe,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Inserts are listed twice so they come up twice as often: they
        // are what fills the pool to the watermark.
        prop_oneof![
            (0u16..2, 0u64..400).prop_map(|(t, f)| Op::Insert(t, f)),
            (0u16..2, 0u64..400).prop_map(|(t, f)| Op::Insert(t, f)),
            (0u16..2, 0u64..400, 1u64..60).prop_map(|(t, f, n)| Op::Touch(t, f, n)),
            (0u16..2, 0u64..400).prop_map(|(t, f)| Op::Pointer(t, f)),
            prop::sample::select(vec![0u64, 3, 10, 40, 200]).prop_map(Op::Target),
            (0usize..2).prop_map(Op::Tenant),
            Just(Op::Tick),
            Just(Op::Pin),
            Just(Op::Release),
            Just(Op::Evict),
            any::<usize>().prop_map(Op::Quarantine),
            (0u16..2, 0u64..400, 1u64..20).prop_map(|(t, f, n)| Op::Apply(t, f, n)),
            Just(Op::Restore),
            Just(Op::Wipe),
        ]
    }

    /// Everything a pass may change, in a comparable form: index contents
    /// (key → location, stamp), the pointer count, retired slots, the
    /// footprint and per-tenant accounting.
    type PassState = (
        Vec<(u64, PackedLoc, u32)>,
        u64,
        Vec<(u16, u32)>,
        usize,
        u64,
        Vec<TenantCacheStats>,
    );

    fn pass_state(c: &FlatCache) -> PassState {
        let mut entries: Vec<_> = c
            .index
            .scan()
            .0
            .iter()
            .map(|e| (e.key, e.loc, e.stamp))
            .collect();
        entries.sort_unstable_by_key(|e| e.0);
        let retired = (0..c.pool.class_count() as u16)
            .flat_map(|class| {
                (0..c.pool.slot_count(class))
                    .filter(move |&slot| c.pool.is_retired(class, slot))
                    .map(move |slot| (class, slot))
            })
            .collect();
        (
            entries,
            c.unified_count,
            retired,
            c.epochs.retired_len(),
            c.pool.allocated_bytes(),
            (0..2).map(|t| c.tenant_cache_stats(t)).collect(),
        )
    }

    /// The slot records marked resident are exactly the index's values:
    /// the same `(class, slot)`s, each with its entry's key and stamp.
    fn check_records(c: &FlatCache) -> Result<(), TestCaseError> {
        let mut indexed: Vec<(u16, u32, u64, u32)> = c
            .index
            .scan()
            .0
            .iter()
            .filter_map(|e| match e.loc.unpack() {
                Loc::Hbm { class, slot } => Some((class, slot, e.key, e.stamp)),
                Loc::Dram { .. } => None,
            })
            .collect();
        indexed.sort_unstable();
        let mut recorded = Vec::new();
        for (class, records) in c.meta.classes.iter().enumerate() {
            for (slot, meta) in records.iter().enumerate() {
                if meta.resident {
                    recorded.push((class as u16, slot as u32, meta.key, meta.stamp));
                }
            }
        }
        prop_assert_eq!(recorded, indexed, "resident records mirror the index");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The selecting pass leaves exactly what the full sort leaves —
        /// same victims, conversions, retirements, tenant tallies and
        /// scan-kernel stats — on both index backends, with and without
        /// quotas, through probes, quarantines, update applies, restores
        /// and wipes; `unified_count` never drifts from the pointers the
        /// index holds, and the resident slot records never drift from
        /// its values.
        #[test]
        fn evict_pass_equals_the_full_sort_reference(
            ops in prop::collection::vec(op(), 1..300),
            mega_kv in any::<bool>(),
            quotas in any::<bool>(),
            slots in 12u64..80,
        ) {
            let mut ds = spec::synthetic(2, 400, 8, -1.2);
            ds.tables[1].dim = 16;
            let codec = SizeAwareCodec::new(20, &[400, 400]);
            let config = FlatCacheConfig {
                evict_high_watermark: 0.8,
                evict_low_watermark: 0.5,
                admission_probability: 1.0,
                index: if mega_kv { IndexBackend::MegaKv } else { IndexBackend::SlabHash },
            };
            // Every third key stays undecodable, so passes both convert
            // and remove.
            let decode = |k: u64| (!k.is_multiple_of(3)).then(|| codec.decode(FlatKey(k))).flatten();
            let (mut target, mut tenant, mut version) = (10u64, 0usize, 0u64);
            let fresh = |target: u64, tenant: usize| {
                let mut c = FlatCache::new(&ds, slots * 48, config);
                c.set_unified_target(target);
                if quotas {
                    c.enable_tenant_partitioning(&[0.3, 0.5]);
                    c.set_active_tenant(tenant);
                }
                c
            };
            let mut fast = fresh(target, tenant);
            let mut slow = fresh(target, tenant);
            let mut guards = (Vec::new(), Vec::new());
            let mut stamp = 1u32;
            let mut out = Vec::new();
            for op in ops {
                let mut pass = matches!(op, Op::Evict);
                match op {
                    Op::Target(n) => target = n,
                    Op::Tenant(t) => tenant = t,
                    Op::Apply(..) => version += 1,
                    _ => {}
                }
                // Both caches hold the same entries, so the `n`th resident
                // value is one key for both.
                let resident: Vec<u64> = {
                    let mut keys: Vec<u64> = fast
                        .index
                        .scan()
                        .0
                        .iter()
                        .filter(|e| !e.loc.is_dram())
                        .map(|e| e.key)
                        .collect();
                    keys.sort_unstable();
                    keys
                };
                for (c, guards) in [(&mut fast, &mut guards.0), (&mut slow, &mut guards.1)] {
                    match op {
                        Op::Insert(t, f) => {
                            let value = vec![f as f32; c.table_dims()[t as usize] as usize];
                            c.insert_value(t, codec.encode(t, f), &value, stamp);
                            pass |= c.needs_eviction();
                        }
                        Op::Touch(t, f, n) => {
                            let keys: Vec<FlatKey> =
                                (f..f + n).map(|f| codec.encode(t, f % 400)).collect();
                            c.lookup_batch_into(&keys, stamp, &mut out);
                        }
                        Op::Pointer(t, f) => {
                            c.insert_dram_ptr(t, f, codec.encode(t, f), stamp);
                        }
                        Op::Target(n) => c.set_unified_target(n),
                        Op::Tenant(t) => c.set_active_tenant(t),
                        Op::Tick => {
                            c.end_batch();
                        }
                        Op::Pin => guards.push(c.pin_reader()),
                        Op::Release => {
                            if !guards.is_empty() {
                                c.release_reader(guards.remove(0));
                            }
                        }
                        Op::Evict => {}
                        Op::Quarantine(n) => {
                            let Some(&key) = resident.get(n % resident.len().max(1)) else {
                                continue;
                            };
                            if let Some(Loc::Hbm { class, slot }) = c.index.peek(key).map(PackedLoc::unpack) {
                                c.quarantine(FlatKey(key), class, slot);
                            }
                        }
                        Op::Apply(t, f, n) => {
                            let updates: Vec<SlotUpdate> = (f..f + n)
                                .map(|f| SlotUpdate {
                                    key: codec.encode(t, f % 400),
                                    version,
                                    value: vec![version as f32; c.table_dims()[t as usize] as usize],
                                })
                                .collect();
                            c.apply_updates(&updates);
                        }
                        Op::Restore => {
                            let (chain, _) = c.checkpoint(0);
                            guards.clear();
                            *c = fresh(target, tenant);
                            c.restore(&chain).expect("clean chain restores");
                            pass |= c.needs_eviction();
                        }
                        Op::Wipe => {
                            for guard in guards.drain(..) {
                                c.release_reader(guard);
                            }
                            c.wipe_with(|_, _| {});
                        }
                    }
                }
                if matches!(op, Op::Tick) {
                    stamp += 1;
                }
                if pass {
                    let got = fast.evict_pass_with(decode);
                    let want = reference_evict_pass(&mut slow, decode);
                    prop_assert_eq!(got, want, "scan-kernel stats");
                    prop_assert_eq!(pass_state(&fast), pass_state(&slow));
                }
                for c in [&fast, &slow] {
                    prop_assert_eq!(c.unified_count(), pointers_in_index(c), "after {:?}", op);
                    check_records(c)?;
                }
            }
        }
    }

    /// One step of the slot-record op stream.
    #[derive(Clone, Debug)]
    enum MetaOp {
        /// Fill `(table, feature)` with a row tagged `tag` at `version`:
        /// an insert, or a refresh of a resident key.
        Fill(u16, u64, u16, u64),
        /// Apply a burst of trainer pushes `(table, feature, version, tag)`.
        Apply(Vec<(u16, u64, u64, u16)>),
        /// Corrupt the `n`th resident key's row, then quarantine it.
        Quarantine(usize),
        /// An eviction pass, then two batch ends (the grace period).
        Evict,
        /// Make `tenant` the owner of later writes.
        Tenant(usize),
        /// Checkpoint, then restore into a fresh cache that replaces this one.
        Restore,
        /// Drop everything, as a device loss does.
        Wipe,
    }

    fn meta_op() -> impl Strategy<Value = MetaOp> {
        let push = (0u16..2, 0u64..40, 0u64..8, any::<u16>());
        // Fills are listed three times: they are what fills the pool.
        let fill = || (0u16..2, 0u64..40, any::<u16>(), 0u64..4);
        prop_oneof![
            fill().prop_map(|(t, f, tag, v)| MetaOp::Fill(t, f, tag, v)),
            fill().prop_map(|(t, f, tag, v)| MetaOp::Fill(t, f, tag, v)),
            fill().prop_map(|(t, f, tag, v)| MetaOp::Fill(t, f, tag, v)),
            prop::collection::vec(push, 1..8).prop_map(MetaOp::Apply),
            any::<usize>().prop_map(MetaOp::Quarantine),
            Just(MetaOp::Evict),
            (0usize..2).prop_map(MetaOp::Tenant),
            Just(MetaOp::Restore),
            Just(MetaOp::Wipe),
        ]
    }

    /// What the model holds for one resident key: its row, the version of
    /// that row and the tenant charged for it.
    #[derive(Clone, Debug)]
    struct MetaModel {
        value: Vec<f32>,
        version: u64,
        owner: usize,
    }

    /// A cache of two classes (dims 8 and 16), checksums on, two tenants.
    fn meta_cache(ds: &DatasetSpec, slots: u64, tenant: usize) -> FlatCache {
        let config = FlatCacheConfig {
            evict_high_watermark: 0.8,
            evict_low_watermark: 0.5,
            admission_probability: 1.0,
            index: IndexBackend::SlabHash,
        };
        let mut c = FlatCache::new(ds, slots * 48, config);
        c.enable_checksums();
        c.enable_tenant_partitioning(&[0.5, 0.5]);
        c.set_active_tenant(tenant);
        c
    }

    /// Drops the model keys an eviction pass took out of the cache.
    fn drop_evicted(c: &mut FlatCache, model: &mut BTreeMap<u64, MetaModel>, stamp: u32) {
        model.retain(|&k, _| {
            let answer = c.lookup_batch(&[FlatKey(k)], stamp)[0].0;
            matches!(answer, CacheAnswer::Hit { .. })
        });
    }

    /// Every model key hits, verifies, and reads back its row and version;
    /// the cache holds nothing else; each tenant's occupancy is the bytes
    /// of the slots it owns.
    fn check_meta(
        c: &mut FlatCache,
        model: &BTreeMap<u64, MetaModel>,
        stamp: u32,
    ) -> Result<(), TestCaseError> {
        let mut owned = [0u64; 2];
        for (&k, m) in model {
            let CacheAnswer::Hit { class, slot } = c.lookup_batch(&[FlatKey(k)], stamp)[0].0 else {
                return Err(TestCaseError::fail(format!("resident key {k} must hit")));
            };
            prop_assert_eq!(c.verify_hits(&[(class, slot)]), [true], "key {}", k);
            prop_assert_eq!(c.slot_version(class, slot), m.version, "key {}", k);
            prop_assert_eq!(c.read_hit(class, slot), m.value.as_slice(), "key {}", k);
            owned[m.owner] += m.value.len() as u64 * 4;
        }
        prop_assert_eq!(c.len(), model.len());
        for (t, &bytes) in owned.iter().enumerate() {
            prop_assert_eq!(
                c.tenant_cache_stats(t).occupancy_bytes,
                bytes,
                "tenant {}",
                t
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every slot's checksum, version and owner follow a model of the
        /// resident keys through fills, refreshes, update bursts,
        /// quarantines, eviction passes, tenant switches, checkpoint
        /// restores and wipes: a reused, quarantined or wiped slot carries
        /// only what its new write gave it.
        #[test]
        fn slot_records_follow_the_model(
            ops in prop::collection::vec(meta_op(), 1..200),
            slots in 8u64..40,
        ) {
            let mut ds = spec::synthetic(2, 400, 8, -1.2);
            ds.tables[1].dim = 16;
            let codec = SizeAwareCodec::new(20, &[400, 400]);
            let row = |t: u16, tag: u16| -> Vec<f32> {
                let dim = ds.tables[t as usize].dim;
                (0..dim).map(|i| f32::from(tag) + i as f32).collect()
            };
            let mut c = meta_cache(&ds, slots, 0);
            let mut model: BTreeMap<u64, MetaModel> = BTreeMap::new();
            let mut tenant = 0;
            for (stamp, op) in ops.into_iter().enumerate() {
                let stamp = stamp as u32 + 1;
                match op {
                    MetaOp::Fill(t, f, tag, version) => {
                        let key = codec.encode(t, f);
                        let value = row(t, tag);
                        let fill = Fill { id: (t, f), key, row: &value, version, fetched: true };
                        let mut admitted = Vec::new();
                        let (_, evicted) =
                            c.upsert_batch([fill], stamp, None::<&SizeAwareCodec>, &mut admitted);
                        if !admitted.is_empty() {
                            model.insert(key.0, MetaModel { value, version, owner: tenant });
                        }
                        if evicted.is_some() {
                            drop_evicted(&mut c, &mut model, stamp);
                        }
                    }
                    MetaOp::Apply(pushes) => {
                        let updates: Vec<SlotUpdate> = pushes
                            .iter()
                            .map(|&(t, f, version, tag)| SlotUpdate {
                                key: codec.encode(t, f),
                                version,
                                value: row(t, tag),
                            })
                            .collect();
                        let mut applied = 0;
                        for u in &updates {
                            if let Some(m) = model.get_mut(&u.key.0) {
                                if u.version > m.version {
                                    (m.value, m.version) = (u.value.clone(), u.version);
                                    applied += 1;
                                }
                            }
                        }
                        prop_assert_eq!(c.apply_updates(&updates).applied, applied);
                    }
                    MetaOp::Quarantine(n) => {
                        let Some(&k) = model.keys().nth(n % model.len().max(1)) else {
                            continue;
                        };
                        let CacheAnswer::Hit { class, slot } = c.lookup_batch(&[FlatKey(k)], stamp)[0].0
                        else {
                            return Err(TestCaseError::fail(format!("resident key {k} must hit")));
                        };
                        c.pool.corrupt_bit(class, slot, 0, 3).expect("live slot");
                        prop_assert_eq!(c.verify_hits(&[(class, slot)]), [false]);
                        c.quarantine(FlatKey(k), class, slot);
                        model.remove(&k);
                        prop_assert_eq!(c.verify_hits(&[(class, slot)]), [true], "record dropped");
                        prop_assert_eq!(c.slot_version(class, slot), 0);
                    }
                    MetaOp::Evict => {
                        c.evict_pass_with(|_| None);
                        c.end_batch();
                        c.end_batch();
                        drop_evicted(&mut c, &mut model, stamp);
                    }
                    MetaOp::Tenant(t) => {
                        c.set_active_tenant(t);
                        tenant = t;
                    }
                    MetaOp::Restore => {
                        let (chain, _) = c.checkpoint(0);
                        c = meta_cache(&ds, slots, tenant);
                        let report = c.restore(&chain).expect("clean chain restores");
                        prop_assert_eq!(report.restored, model.len() as u64);
                        model.values_mut().for_each(|m| m.owner = tenant);
                    }
                    MetaOp::Wipe => {
                        let held: Vec<(u16, u32)> = model
                            .keys()
                            .filter_map(|&k| match c.lookup_batch(&[FlatKey(k)], stamp)[0].0 {
                                CacheAnswer::Hit { class, slot } => Some((class, slot)),
                                _ => None,
                            })
                            .collect();
                        c.wipe_with(|_, _| {});
                        model.clear();
                        for &(class, slot) in &held {
                            prop_assert_eq!(c.verify_hits(&[(class, slot)]), [true]);
                            prop_assert_eq!(c.slot_version(class, slot), 0);
                        }
                    }
                }
                check_meta(&mut c, &model, stamp)?;
                check_records(&c)?;
            }
        }
    }
}
