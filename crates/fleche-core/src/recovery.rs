//! Crash recovery: the checkpoint chain — a full flat-cache image plus
//! its ordered incremental deltas — and its validation.
//!
//! A [`CheckpointChain`] is the unit of restore: it is replayed whole or
//! rejected whole. A chain of length one (a base and no deltas) is a
//! plain full checkpoint; there is no separate single-image path. Each
//! image is a [`CacheSnapshot`], a self-describing byte image captured at
//! a batch boundary so it is *epoch-consistent*: no retired slot and no
//! in-flight replace-copy is ever included (see
//! `FlatCache::checkpoint`). The image carries the size-aware coded flat
//! keys, the pool class, the LRU stamp, the online-update version and the
//! raw value bits of each entry, framed by a header and an FNV-1a
//! checksum trailer.
//!
//! Images come in two kinds:
//!
//! * **Full** ([`SnapshotKind::Full`]) — every HBM-resident value, the
//!   chain's base. Its header `epoch` names the checkpoint epoch.
//! * **Delta** ([`SnapshotKind::Delta`]) — only the entries whose update
//!   version advanced since the base epoch. Its header `epoch` names the
//!   *base* it patches and `seq` its 1-based position in the chain.
//!
//! What is valid to restore from is decided in one place,
//! [`CheckpointChain::verify`]: the base must be a full image, and each
//! delta must pass its whole-image checksum, name the base's epoch and
//! carry the next sequence number ([`SnapshotError::KindMismatch`] /
//! [`SnapshotError::BaseMismatch`] / [`SnapshotError::SequenceGap`]). The
//! walk decodes *every* image before anything touches the cache, so a
//! rotted or mis-linked chain can only ever produce a clean fallback —
//! never a cache seeded with garbage bytes or with only the keys a lone
//! delta happened to carry. Decoding is fully bounds-checked and never
//! panics on hostile input.
//!
//! Byte layout (all little-endian):
//!
//! ```text
//! [magic u32] [version u16] [kind u16] [entry_count u64] [epoch u64] [seq u64]
//! repeated entry_count times:
//!   [flat_key u64] [class u16] [stamp u32] [version u64] [dim u32] [dim x f32 bits]
//! [fnv1a-32 over all preceding bytes, u32]
//! ```

/// Format magic: `"FLSN"` (FLeche SNapshot) as little-endian bytes.
const MAGIC: u32 = u32::from_le_bytes(*b"FLSN");
/// Current format version (v2 added the kind/epoch/seq header fields and
/// the per-entry update version).
const VERSION: u16 = 2;
/// Header bytes: magic + version + kind + entry count + epoch + seq.
const HEADER_BYTES: usize = 4 + 2 + 2 + 8 + 8 + 8;
/// Fixed bytes per entry before its value floats.
const ENTRY_FIXED_BYTES: usize = 8 + 2 + 4 + 8 + 4;
/// Checksum trailer bytes.
const TRAILER_BYTES: usize = 4;
/// Header `kind` value for a full image.
const KIND_FULL: u16 = 0;
/// Header `kind` value for an incremental delta.
const KIND_DELTA: u16 = 1;

/// FNV-1a over raw bytes — the whole-image integrity check. Both FNV
/// steps (xor, multiply by the odd prime) are bijective on u32, so any
/// single corrupted byte always changes the digest.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn u16_at(b: &[u8], off: usize) -> u16 {
    let mut a = [0u8; 2];
    a.copy_from_slice(&b[off..off + 2]);
    u16::from_le_bytes(a)
}

fn u32_at(b: &[u8], off: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[off..off + 4]);
    u32::from_le_bytes(a)
}

fn u64_at(b: &[u8], off: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[off..off + 8]);
    u64::from_le_bytes(a)
}

/// What a snapshot image contains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotKind {
    /// Every HBM-resident value (a base checkpoint).
    Full,
    /// Only entries whose update version advanced since the base epoch.
    Delta,
}

impl std::fmt::Display for SnapshotKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotKind::Full => write!(f, "full"),
            SnapshotKind::Delta => write!(f, "delta"),
        }
    }
}

/// Why a snapshot image was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Shorter than the minimum header + trailer.
    TooShort,
    /// Magic bytes do not spell a Fleche snapshot.
    BadMagic,
    /// A version this build does not read.
    UnsupportedVersion(u16),
    /// A kind tag this build does not know.
    UnknownKind(u16),
    /// The image's bytes do not hash to its trailer.
    ChecksumMismatch {
        /// Digest stored in the trailer.
        stored: u32,
        /// Digest of the bytes actually present.
        actual: u32,
    },
    /// The entry stream ended mid-entry.
    Truncated {
        /// Index of the entry that could not be read in full.
        entry: u64,
    },
    /// Bytes left over after the declared entry count.
    TrailingBytes,
    /// A full image was supplied where a delta was required, or vice
    /// versa.
    KindMismatch {
        /// Kind the operation required.
        expected: SnapshotKind,
        /// Kind the image declared.
        found: SnapshotKind,
    },
    /// A delta patches a different base epoch than the one restored.
    BaseMismatch {
        /// Epoch of the restored base.
        expected: u64,
        /// Base epoch the delta declares.
        found: u64,
    },
    /// A delta arrived out of order in its chain.
    SequenceGap {
        /// Sequence number the chain required next.
        expected: u64,
        /// Sequence number the delta declares.
        found: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "image shorter than header + trailer"),
            SnapshotError::BadMagic => write!(f, "bad magic (not a Fleche snapshot)"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            SnapshotError::UnknownKind(k) => write!(f, "unknown image kind {k}"),
            SnapshotError::ChecksumMismatch { stored, actual } => {
                write!(
                    f,
                    "checksum mismatch: trailer {stored:#010x}, bytes hash {actual:#010x}"
                )
            }
            SnapshotError::Truncated { entry } => write!(f, "entry {entry} truncated"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after last entry"),
            SnapshotError::KindMismatch { expected, found } => {
                write!(f, "expected a {expected} image, found a {found} image")
            }
            SnapshotError::BaseMismatch { expected, found } => {
                write!(
                    f,
                    "delta patches base epoch {found}, restored base is epoch {expected}"
                )
            }
            SnapshotError::SequenceGap { expected, found } => {
                write!(f, "delta sequence {found} arrived where {expected} was due")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One decoded snapshot entry.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotEntry {
    /// Size-aware coded flat key.
    pub key: u64,
    /// Pool size class the value lived in (classes are derived from the
    /// dataset's dimension geometry, which checkpoints assume stable
    /// across a restart; a mismatched class simply bypasses on restore).
    pub class: u16,
    /// LRU stamp at capture time (restore replays hottest-first).
    pub stamp: u32,
    /// Online-update version of the value (0 = the frozen table value).
    /// Restore and delta application only ever move a key's version
    /// forward, so replaying duplicated or reordered images is idempotent.
    pub version: u64,
    /// The embedding's exact f32 values.
    pub value: Vec<f32>,
}

/// A serialized, checksummed flat-cache image (full or delta).
#[derive(Clone, Debug, PartialEq)]
pub struct CacheSnapshot {
    bytes: Vec<u8>,
}

impl CacheSnapshot {
    /// Serializes `entries` into a checksummed *full* image at epoch 0
    /// (tests and format-level call sites; [`CheckpointChain`] stamps its
    /// own images through [`CacheSnapshot::from_entries_with`]).
    pub fn from_entries(entries: &[SnapshotEntry]) -> CacheSnapshot {
        CacheSnapshot::from_entries_with(SnapshotKind::Full, 0, 0, entries)
    }

    /// Serializes `entries` into a checksummed image of the given kind.
    /// For a full image `epoch` names the checkpoint epoch and `seq`
    /// should be 0; for a delta `epoch` names the base it patches and
    /// `seq` its 1-based position in the chain.
    pub fn from_entries_with(
        kind: SnapshotKind,
        epoch: u64,
        seq: u64,
        entries: &[SnapshotEntry],
    ) -> CacheSnapshot {
        let payload: usize = entries
            .iter()
            .map(|e| ENTRY_FIXED_BYTES + e.value.len() * 4)
            .sum();
        let mut bytes = Vec::with_capacity(HEADER_BYTES + payload + TRAILER_BYTES);
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        let kind_tag = match kind {
            SnapshotKind::Full => KIND_FULL,
            SnapshotKind::Delta => KIND_DELTA,
        };
        bytes.extend_from_slice(&kind_tag.to_le_bytes());
        bytes.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&epoch.to_le_bytes());
        bytes.extend_from_slice(&seq.to_le_bytes());
        for e in entries {
            bytes.extend_from_slice(&e.key.to_le_bytes());
            bytes.extend_from_slice(&e.class.to_le_bytes());
            bytes.extend_from_slice(&e.stamp.to_le_bytes());
            bytes.extend_from_slice(&e.version.to_le_bytes());
            bytes.extend_from_slice(&(e.value.len() as u32).to_le_bytes());
            for v in &e.value {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        let digest = fnv1a(&bytes);
        bytes.extend_from_slice(&digest.to_le_bytes());
        CacheSnapshot { bytes }
    }

    /// Wraps raw bytes read back from storage (no validation here;
    /// [`CacheSnapshot::decode`] validates).
    pub fn from_bytes(bytes: Vec<u8>) -> CacheSnapshot {
        CacheSnapshot { bytes }
    }

    /// The serialized image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Image size in bytes (what a checkpoint D2H copy moves).
    pub fn byte_len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Entry count claimed by the header; 0 for images too short to have
    /// one. Display-only — `decode` re-derives and validates it.
    pub fn entry_count_hint(&self) -> u64 {
        if self.bytes.len() < HEADER_BYTES {
            0
        } else {
            u64_at(&self.bytes, 8)
        }
    }

    /// Kind claimed by the header; `None` for images too short to have
    /// one or with an unknown tag. Display-only — `decode` validates.
    pub fn kind(&self) -> Option<SnapshotKind> {
        if self.bytes.len() < HEADER_BYTES {
            return None;
        }
        match u16_at(&self.bytes, 6) {
            KIND_FULL => Some(SnapshotKind::Full),
            KIND_DELTA => Some(SnapshotKind::Delta),
            _ => None,
        }
    }

    /// Checkpoint epoch claimed by the header (for a delta: the base
    /// epoch it patches); 0 for images too short to have one.
    pub fn epoch(&self) -> u64 {
        if self.bytes.len() < HEADER_BYTES {
            0
        } else {
            u64_at(&self.bytes, 16)
        }
    }

    /// Delta sequence number claimed by the header (0 for full images).
    pub fn delta_seq(&self) -> u64 {
        if self.bytes.len() < HEADER_BYTES {
            0
        } else {
            u64_at(&self.bytes, 24)
        }
    }

    /// Fault-injection hook: inverts the byte at `offset`, as storage rot
    /// between checkpoint write and restore read-back would. Returns false
    /// (and does nothing) when `offset` is out of range.
    pub fn corrupt_byte(&mut self, offset: u64) -> bool {
        match self.bytes.get_mut(offset as usize) {
            Some(b) => {
                *b = !*b;
                true
            }
            None => false,
        }
    }

    /// Validates the image and decodes its entries. Order of checks:
    /// length, magic, version, kind, whole-image checksum, then structure
    /// — so no entry bytes are ever interpreted from an image that fails
    /// integrity. Never panics on malformed input.
    pub fn decode(&self) -> Result<Vec<SnapshotEntry>, SnapshotError> {
        let b = &self.bytes;
        if b.len() < HEADER_BYTES + TRAILER_BYTES {
            return Err(SnapshotError::TooShort);
        }
        if u32_at(b, 0) != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16_at(b, 4);
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let kind = u16_at(b, 6);
        if kind != KIND_FULL && kind != KIND_DELTA {
            return Err(SnapshotError::UnknownKind(kind));
        }
        let body_end = b.len() - TRAILER_BYTES;
        let stored = u32_at(b, body_end);
        let actual = fnv1a(&b[..body_end]);
        if stored != actual {
            return Err(SnapshotError::ChecksumMismatch { stored, actual });
        }
        let count = u64_at(b, 8);
        let mut out = Vec::new();
        let mut off = HEADER_BYTES;
        for entry in 0..count {
            if body_end - off < ENTRY_FIXED_BYTES {
                return Err(SnapshotError::Truncated { entry });
            }
            let key = u64_at(b, off);
            let class = u16_at(b, off + 8);
            let stamp = u32_at(b, off + 10);
            let version = u64_at(b, off + 14);
            let dim = u32_at(b, off + 22) as usize;
            off += ENTRY_FIXED_BYTES;
            if (body_end - off) / 4 < dim {
                return Err(SnapshotError::Truncated { entry });
            }
            let mut value = Vec::with_capacity(dim);
            for i in 0..dim {
                value.push(f32::from_bits(u32_at(b, off + i * 4)));
            }
            off += dim * 4;
            out.push(SnapshotEntry {
                key,
                class,
                stamp,
                version,
                value,
            });
        }
        if off != body_end {
            return Err(SnapshotError::TrailingBytes);
        }
        Ok(out)
    }

    /// Full decode, then the kind check: one link of
    /// [`CheckpointChain::verify`].
    fn decode_as(&self, expected: SnapshotKind) -> Result<Vec<SnapshotEntry>, SnapshotError> {
        let entries = self.decode()?;
        match self.kind() {
            Some(found) if found == expected => Ok(entries),
            Some(found) => Err(SnapshotError::KindMismatch { expected, found }),
            // decode() above already rejected short/unknown headers.
            None => Err(SnapshotError::TooShort),
        }
    }
}

/// The unit of restore: a full base image plus the ordered deltas cut
/// against it. A chain of length one is a plain full checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointChain {
    base: CacheSnapshot,
    deltas: Vec<CacheSnapshot>,
    /// The base's `(flat key, version)` list, key-sorted — what a delta
    /// capture compares a live entry's version against.
    base_versions: Vec<(u64, u64)>,
}

impl CheckpointChain {
    /// Starts a chain: `entries` (key-sorted, as a capture yields them)
    /// become the full base image at checkpoint epoch `epoch`.
    pub fn new(epoch: u64, entries: &[SnapshotEntry]) -> CheckpointChain {
        debug_assert!(entries.windows(2).all(|w| w[0].key < w[1].key));
        CheckpointChain {
            base: CacheSnapshot::from_entries_with(SnapshotKind::Full, epoch, 0, entries),
            deltas: Vec::new(),
            base_versions: entries.iter().map(|e| (e.key, e.version)).collect(),
        }
    }

    /// Wraps images read back from storage (no validation here;
    /// [`CheckpointChain::verify`] validates). A base that does not decode
    /// contributes no versions — the chain cannot restore anyway.
    pub fn from_images(base: CacheSnapshot, deltas: Vec<CacheSnapshot>) -> CheckpointChain {
        let mut base_versions: Vec<(u64, u64)> = base
            .decode()
            .map(|entries| entries.iter().map(|e| (e.key, e.version)).collect())
            .unwrap_or_default();
        base_versions.sort_unstable();
        CheckpointChain {
            base,
            deltas,
            base_versions,
        }
    }

    /// Appends the next delta: `entries` stamped with the base's epoch and
    /// the next sequence number.
    pub fn push_delta(&mut self, entries: &[SnapshotEntry]) {
        let seq = self.deltas.len() as u64 + 1;
        self.deltas.push(CacheSnapshot::from_entries_with(
            SnapshotKind::Delta,
            self.base.epoch(),
            seq,
            entries,
        ));
    }

    /// The base image.
    pub fn base(&self) -> &CacheSnapshot {
        &self.base
    }

    /// The deltas, in sequence order.
    pub fn deltas(&self) -> &[CacheSnapshot] {
        &self.deltas
    }

    /// The image cut last (the base, for a chain of length one).
    pub fn latest(&self) -> &CacheSnapshot {
        self.deltas.last().unwrap_or(&self.base)
    }

    /// Total bytes over every image (what a restore verifies and copies).
    pub fn byte_len(&self) -> u64 {
        self.base.byte_len() + self.deltas.iter().map(CacheSnapshot::byte_len).sum::<u64>()
    }

    /// Version the base recorded for `key` (0 for keys it does not hold).
    pub fn base_version_of(&self, key: u64) -> u64 {
        match self.base_versions.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.base_versions[i].1,
            Err(_) => 0,
        }
    }

    /// Newest update version in the base — what a restore would recover
    /// to with no deltas. `None` for an empty (or undecodable) base.
    pub fn base_max_version(&self) -> Option<u64> {
        self.base_versions.iter().map(|&(_, v)| v).max()
    }

    /// Fault-injection hook: inverts the byte at `offset` of the chain's
    /// images laid end to end (base first). Returns false (and does
    /// nothing) when `offset` is out of range.
    pub fn corrupt_byte(&mut self, mut offset: u64) -> bool {
        for image in std::iter::once(&mut self.base).chain(&mut self.deltas) {
            if offset < image.byte_len() {
                return image.corrupt_byte(offset);
            }
            offset -= image.byte_len();
        }
        false
    }

    /// The single verify-before-mutate walk: decodes every image, base
    /// first, and returns their entries in replay order — or the first
    /// [`SnapshotError`], before the caller has touched anything. The base
    /// must be a full image; each delta must pass its checksum, name the
    /// base's epoch and carry the next contiguous sequence number.
    pub fn verify(&self) -> Result<Vec<Vec<SnapshotEntry>>, SnapshotError> {
        let mut images = Vec::with_capacity(1 + self.deltas.len());
        images.push(self.base.decode_as(SnapshotKind::Full)?);
        for (i, delta) in self.deltas.iter().enumerate() {
            let entries = delta.decode_as(SnapshotKind::Delta)?;
            if delta.epoch() != self.base.epoch() {
                return Err(SnapshotError::BaseMismatch {
                    expected: self.base.epoch(),
                    found: delta.epoch(),
                });
            }
            let expected = i as u64 + 1;
            if delta.delta_seq() != expected {
                return Err(SnapshotError::SequenceGap {
                    expected,
                    found: delta.delta_seq(),
                });
            }
            images.push(entries);
        }
        Ok(images)
    }
}

/// What a [`crate::FlatCache::restore`] of a chain accomplished.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RestoreReport {
    /// Entries re-inserted into the cache.
    pub restored: u64,
    /// Entries that bypassed (pool full, class geometry changed).
    pub bypassed: u64,
    /// Entries skipped because the cache already held the same or a newer
    /// update version for the key (idempotent delta replay).
    pub superseded: u64,
    /// Largest LRU stamp seen in the image; the owning system fast-
    /// forwards its logical clock past this so restored entries age
    /// correctly instead of looking permanently hot.
    pub max_stamp: u32,
    /// Largest update version actually written — the "recovered-to"
    /// version drill B's timeline reports.
    pub max_version: u64,
    /// Pool locations the replay wrote — the system layer declares these
    /// to the race checker as the restore kernel's writes.
    pub slots: Vec<(u16, u32)>,
}

impl RestoreReport {
    /// Folds another image's replay outcome into this one (a chain
    /// accumulates a single report).
    pub fn absorb(&mut self, other: RestoreReport) {
        self.restored += other.restored;
        self.bypassed += other.bypassed;
        self.superseded += other.superseded;
        self.max_stamp = self.max_stamp.max(other.max_stamp);
        self.max_version = self.max_version.max(other.max_version);
        self.slots.extend(other.slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries() -> Vec<SnapshotEntry> {
        vec![
            SnapshotEntry {
                key: 0x0000_0A11,
                class: 0,
                stamp: 3,
                version: 0,
                value: vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE],
            },
            SnapshotEntry {
                key: 0xFFEE_0001,
                class: 1,
                stamp: 9,
                version: 17,
                value: vec![42.0; 8],
            },
            SnapshotEntry {
                key: 7,
                class: 0,
                stamp: 1,
                version: 2,
                value: Vec::new(), // zero-dim entries are legal in the format
            },
        ]
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let e = entries();
        let snap = CacheSnapshot::from_entries(&e);
        assert_eq!(snap.entry_count_hint(), 3);
        assert_eq!(snap.kind(), Some(SnapshotKind::Full));
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.delta_seq(), 0);
        let back = snap.decode().expect("clean image decodes");
        assert_eq!(back, e);
        // Via the raw-bytes path too (simulated storage round trip).
        let reread = CacheSnapshot::from_bytes(snap.as_bytes().to_vec());
        assert_eq!(reread.decode().expect("reread decodes"), e);
    }

    #[test]
    fn delta_round_trip_carries_linkage() {
        let mut e = entries();
        e.sort_unstable_by_key(|x| x.key);
        let mut chain = CheckpointChain::new(5, &e);
        chain.push_delta(&e[..1]);
        chain.push_delta(&e);
        assert_eq!(chain.base().epoch(), 5);
        let delta = chain.latest();
        assert_eq!(delta.kind(), Some(SnapshotKind::Delta));
        assert_eq!(delta.epoch(), 5);
        assert_eq!(delta.delta_seq(), 2);
        assert_eq!(delta.decode().expect("clean delta"), e);
        assert_eq!(
            chain.verify().expect("valid chain"),
            vec![e.clone(), e[..1].to_vec(), e.clone()]
        );
        assert_eq!(
            chain.byte_len(),
            chain.base().byte_len() + chain.deltas().iter().map(|d| d.byte_len()).sum::<u64>()
        );
        // The base's versions answer delta capture and the drill oracle.
        assert_eq!(chain.base_version_of(0xFFEE_0001), 17);
        assert_eq!(chain.base_version_of(0xDEAD), 0, "absent keys are at 0");
        assert_eq!(chain.base_max_version(), Some(17));
        // A storage round trip rebuilds the same chain from its images.
        let reread = CheckpointChain::from_images(chain.base().clone(), chain.deltas().to_vec());
        assert_eq!(reread.base_version_of(0xFFEE_0001), 17);
        assert_eq!(reread.verify(), chain.verify());
    }

    #[test]
    fn delta_linkage_is_enforced() {
        let full = CacheSnapshot::from_entries_with(SnapshotKind::Full, 5, 0, &entries());
        let delta = |epoch, seq| {
            CacheSnapshot::from_entries_with(SnapshotKind::Delta, epoch, seq, &entries())
        };
        let verify = |base: &CacheSnapshot, deltas| {
            CheckpointChain::from_images(base.clone(), deltas).verify()
        };
        assert!(verify(&full, vec![delta(5, 1), delta(5, 2)]).is_ok());
        assert_eq!(
            verify(&full, vec![delta(6, 1)]),
            Err(SnapshotError::BaseMismatch {
                expected: 5,
                found: 6
            })
        );
        assert_eq!(
            verify(&full, vec![delta(5, 2)]),
            Err(SnapshotError::SequenceGap {
                expected: 1,
                found: 2
            })
        );
        assert_eq!(
            verify(&full, vec![full.clone()]),
            Err(SnapshotError::KindMismatch {
                expected: SnapshotKind::Delta,
                found: SnapshotKind::Full
            })
        );
        // A delta is never a base, however clean its own bytes are.
        assert_eq!(
            verify(&delta(5, 1), Vec::new()),
            Err(SnapshotError::KindMismatch {
                expected: SnapshotKind::Full,
                found: SnapshotKind::Delta
            })
        );
    }

    #[test]
    fn chain_corruption_addresses_every_image() {
        let mut chain = CheckpointChain::new(2, &entries()[..2]);
        chain.push_delta(&entries()[..2]);
        let clean = chain.clone();
        let base_len = chain.base().byte_len();
        assert!(chain.corrupt_byte(base_len + 3), "lands in the delta");
        assert_eq!(chain.base(), clean.base());
        assert_ne!(chain.deltas(), clean.deltas());
        assert!(chain.verify().is_err());
        assert!(!chain.corrupt_byte(clean.byte_len()), "out of range");
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let snap = CacheSnapshot::from_entries(&[]);
        assert_eq!(snap.decode().expect("empty is fine"), Vec::new());
        assert_eq!(snap.byte_len() as usize, HEADER_BYTES + TRAILER_BYTES);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        for snap in [
            CacheSnapshot::from_entries(&entries()),
            CacheSnapshot::from_entries_with(SnapshotKind::Delta, 3, 1, &entries()),
        ] {
            for off in 0..snap.byte_len() {
                let mut bad = snap.clone();
                assert!(bad.corrupt_byte(off));
                assert!(
                    bad.decode().is_err(),
                    "flip at offset {off} must be rejected"
                );
            }
            let mut oob = snap.clone();
            assert!(!oob.corrupt_byte(snap.byte_len()));
            assert!(oob.decode().is_ok(), "out-of-range flip is a no-op");
        }
    }

    #[test]
    fn structural_lies_are_rejected_even_with_valid_checksum() {
        // Forge images whose checksum is freshly computed (so only the
        // structural checks can catch them).
        let reseal = |mut body: Vec<u8>| {
            let digest = fnv1a(&body);
            body.extend_from_slice(&digest.to_le_bytes());
            CacheSnapshot::from_bytes(body)
        };
        let good = CacheSnapshot::from_entries(&entries());
        let body = &good.as_bytes()[..good.as_bytes().len() - TRAILER_BYTES];

        // Claim one more entry than the stream holds.
        let mut over = body.to_vec();
        over[8..16].copy_from_slice(&4u64.to_le_bytes());
        assert!(matches!(
            reseal(over).decode(),
            Err(SnapshotError::Truncated { entry: 3 })
        ));

        // Claim one fewer: trailing bytes.
        let mut under = body.to_vec();
        under[8..16].copy_from_slice(&2u64.to_le_bytes());
        assert_eq!(reseal(under).decode(), Err(SnapshotError::TrailingBytes));

        // A dim far past the buffer must not allocate or panic.
        let mut fat_dim = body.to_vec();
        let dim_off = HEADER_BYTES + 22;
        fat_dim[dim_off..dim_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            reseal(fat_dim).decode(),
            Err(SnapshotError::Truncated { entry: 0 })
        ));

        // Wrong version.
        let mut vers = body.to_vec();
        vers[4..6].copy_from_slice(&9u16.to_le_bytes());
        assert_eq!(
            reseal(vers).decode(),
            Err(SnapshotError::UnsupportedVersion(9))
        );

        // Unknown kind tag.
        let mut kinded = body.to_vec();
        kinded[6..8].copy_from_slice(&7u16.to_le_bytes());
        assert_eq!(reseal(kinded).decode(), Err(SnapshotError::UnknownKind(7)));

        // Too short to hold anything.
        assert_eq!(
            CacheSnapshot::from_bytes(vec![1, 2, 3]).decode(),
            Err(SnapshotError::TooShort)
        );
    }

    #[test]
    fn absorb_accumulates_chain_reports() {
        let mut a = RestoreReport {
            restored: 2,
            bypassed: 1,
            superseded: 0,
            max_stamp: 5,
            max_version: 1,
            slots: vec![(0, 1)],
        };
        a.absorb(RestoreReport {
            restored: 3,
            bypassed: 0,
            superseded: 2,
            max_stamp: 4,
            max_version: 9,
            slots: vec![(1, 7)],
        });
        assert_eq!(a.restored, 5);
        assert_eq!(a.bypassed, 1);
        assert_eq!(a.superseded, 2);
        assert_eq!(a.max_stamp, 5);
        assert_eq!(a.max_version, 9);
        assert_eq!(a.slots, vec![(0, 1), (1, 7)]);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        assert_ne!(fnv1a(&[1, 2]), fnv1a(&[2, 1]));
        assert_ne!(fnv1a(&[0]), fnv1a(&[0, 0]));
    }
}
