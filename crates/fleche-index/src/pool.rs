//! The slab memory pool storing embedding payloads.
//!
//! Flat cache separates keys from values: the index maps flat keys to
//! locations, and this pool owns the bytes. Fragmentation is avoided by
//! pre-defining slab *size classes*, one per embedding dimension (all
//! embeddings of a table share one known size), and the whole pool is
//! pre-allocated at boot so the `cudaMalloc` latency never appears on the
//! query path — both points straight from the paper's §3.1.

use crate::instrument::ProbeStats;

/// Error type for pool operations.
#[derive(Debug, PartialEq, Eq)]
pub enum PoolError {
    /// No size class with this dimension was registered at construction.
    UnknownClass {
        /// The class index requested.
        class: u16,
    },
    /// The class has no free slots left.
    ClassFull {
        /// The class index that was full.
        class: u16,
    },
    /// A slot reference did not name a live allocation.
    InvalidSlot {
        /// The class index.
        class: u16,
        /// The offending slot.
        slot: u32,
    },
    /// Value length does not match the class dimension.
    DimensionMismatch {
        /// Expected dimension (floats).
        expected: u32,
        /// Provided value length.
        got: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::UnknownClass { class } => write!(f, "unknown size class {class}"),
            PoolError::ClassFull { class } => write!(f, "size class {class} is full"),
            PoolError::InvalidSlot { class, slot } => {
                write!(f, "slot {slot} in class {class} is not allocated")
            }
            PoolError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} floats, got {got}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

#[derive(Debug)]
struct SizeClass {
    dim: u32,
    /// Payload storage: `capacity_slots * dim` floats.
    data: Vec<f32>,
    /// Stack of free slot numbers.
    free: Vec<u32>,
    /// Liveness bitmap (one bool per slot) guarding double-free.
    live: Vec<bool>,
    /// Retirement bitmap: set between logical retirement (eviction,
    /// quarantine) and physical reclamation. A retired slot may only be
    /// read through the grace-period path.
    retired: Vec<bool>,
    capacity_slots: u32,
}

/// The pre-allocated, size-class-partitioned value store.
#[derive(Debug)]
pub struct SlabPool {
    classes: Vec<SizeClass>,
}

/// Description of one size class for construction.
#[derive(Clone, Copy, Debug)]
pub struct ClassSpec {
    /// Embedding dimension (floats per value).
    pub dim: u32,
    /// Number of value slots to pre-allocate.
    pub slots: u32,
}

impl SlabPool {
    /// Pre-allocates the pool. One class per entry of `specs`; class `i` of
    /// the returned pool corresponds to `specs[i]`.
    pub fn new(specs: &[ClassSpec]) -> SlabPool {
        let classes = specs
            .iter()
            .map(|s| SizeClass {
                dim: s.dim,
                data: vec![0.0; s.slots as usize * s.dim as usize],
                free: (0..s.slots).rev().collect(),
                live: vec![false; s.slots as usize],
                retired: vec![false; s.slots as usize],
                capacity_slots: s.slots,
            })
            .collect();
        SlabPool { classes }
    }

    /// Number of size classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Dimension of class `class`.
    pub fn dim_of(&self, class: u16) -> Option<u32> {
        self.classes.get(class as usize).map(|c| c.dim)
    }

    /// Slots pre-allocated in `class` (0 for an unknown class).
    pub fn slot_count(&self, class: u16) -> u32 {
        self.classes
            .get(class as usize)
            .map_or(0, |c| c.capacity_slots)
    }

    /// Index of the class with dimension `dim`, if registered.
    pub fn class_for_dim(&self, dim: u32) -> Option<u16> {
        self.classes
            .iter()
            .position(|c| c.dim == dim)
            .map(|i| i as u16)
    }

    /// Total payload capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.capacity_slots as u64 * c.dim as u64 * 4)
            .sum()
    }

    /// Bytes currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| (c.capacity_slots - c.free.len() as u32) as u64 * c.dim as u64 * 4)
            .sum()
    }

    /// Allocated fraction of capacity, in `[0, 1]`; the eviction trigger
    /// compares this against its high-watermark.
    pub fn utilization(&self) -> f64 {
        let cap = self.capacity_bytes();
        if cap == 0 {
            0.0
        } else {
            self.allocated_bytes() as f64 / cap as f64
        }
    }

    /// Claims a slot in `class`. One atomic on the free-list head.
    pub fn alloc(&mut self, class: u16) -> Result<(u32, ProbeStats), PoolError> {
        let c = self
            .classes
            .get_mut(class as usize)
            .ok_or(PoolError::UnknownClass { class })?;
        let slot = c.free.pop().ok_or(PoolError::ClassFull { class })?;
        debug_assert!(
            !c.live[slot as usize] && !c.retired[slot as usize],
            "free-list slot must be neither live nor retired"
        );
        c.live[slot as usize] = true;
        c.retired[slot as usize] = false;
        let stats = ProbeStats {
            atomics: 1,
            bytes_touched: 8,
            ..ProbeStats::new()
        };
        Ok((slot, stats))
    }

    /// Returns a slot to the free list.
    pub fn free(&mut self, class: u16, slot: u32) -> Result<ProbeStats, PoolError> {
        let c = self
            .classes
            .get_mut(class as usize)
            .ok_or(PoolError::UnknownClass { class })?;
        if slot >= c.capacity_slots || !c.live[slot as usize] {
            return Err(PoolError::InvalidSlot { class, slot });
        }
        c.live[slot as usize] = false;
        c.retired[slot as usize] = false;
        c.free.push(slot);
        Ok(ProbeStats {
            atomics: 1,
            bytes_touched: 8,
            ..ProbeStats::new()
        })
    }

    /// Writes an embedding into a live slot.
    pub fn write(&mut self, class: u16, slot: u32, value: &[f32]) -> Result<ProbeStats, PoolError> {
        self.row_mut(class, slot, value.len())?
            .copy_from_slice(value);
        Ok(ProbeStats {
            bytes_touched: value.len() as u64 * 4,
            ..ProbeStats::new()
        })
    }

    /// The row of a live slot, to be written in place with a value of
    /// `len` floats: the checks of [`SlabPool::write`], without the copy.
    pub fn row_mut(&mut self, class: u16, slot: u32, len: usize) -> Result<&mut [f32], PoolError> {
        let c = self
            .classes
            .get_mut(class as usize)
            .ok_or(PoolError::UnknownClass { class })?;
        if slot >= c.capacity_slots || !c.live[slot as usize] {
            return Err(PoolError::InvalidSlot { class, slot });
        }
        if len != c.dim as usize {
            return Err(PoolError::DimensionMismatch {
                expected: c.dim,
                got: len,
            });
        }
        let off = slot as usize * len;
        Ok(&mut c.data[off..off + len])
    }

    /// [`SlabPool::write`], also returning the slot checksum
    /// ([`fleche_simd::checksum`] of `value`), hashed from the source row
    /// while the copy has it in cache.
    pub fn write_with_checksum(
        &mut self,
        class: u16,
        slot: u32,
        value: &[f32],
    ) -> Result<(u32, ProbeStats), PoolError> {
        let stats = self.write(class, slot, value)?;
        Ok((fleche_simd::checksum(value), stats))
    }

    /// Reads the embedding stored in a live slot.
    pub fn read(&self, class: u16, slot: u32) -> Result<&[f32], PoolError> {
        let c = self
            .classes
            .get(class as usize)
            .ok_or(PoolError::UnknownClass { class })?;
        if slot >= c.capacity_slots || !c.live[slot as usize] {
            return Err(PoolError::InvalidSlot { class, slot });
        }
        debug_assert!(
            !c.retired[slot as usize],
            "read of a retired slab (class {class}, slot {slot}): grace-period \
             readers must use read_during_grace"
        );
        let off = slot as usize * c.dim as usize;
        Ok(&c.data[off..off + c.dim as usize])
    }

    /// Marks a live slot as logically retired (awaiting epoch
    /// reclamation). Plain [`SlabPool::read`] debug-asserts against
    /// retired slots from then on; [`SlabPool::read_during_grace`] stays
    /// valid. Cleared by the eventual [`SlabPool::free`] (or a re-alloc).
    pub fn note_retired(&mut self, class: u16, slot: u32) {
        if let Some(c) = self.classes.get_mut(class as usize) {
            if (slot as usize) < c.retired.len() {
                debug_assert!(c.live[slot as usize], "retiring a non-live slot");
                c.retired[slot as usize] = true;
            }
        }
    }

    /// True when `slot` is retired but not yet reclaimed.
    pub fn is_retired(&self, class: u16, slot: u32) -> bool {
        self.classes
            .get(class as usize)
            .and_then(|c| c.retired.get(slot as usize))
            .copied()
            .unwrap_or(false)
    }

    /// Live slots of `class` in slot order. Fault-injection harnesses use
    /// this to pick corruption victims deterministically; it is O(capacity),
    /// not a query-path operation.
    pub fn live_slots(&self, class: u16) -> Vec<u32> {
        self.classes.get(class as usize).map_or(Vec::new(), |c| {
            c.live
                .iter()
                .enumerate()
                .filter_map(|(i, &l)| l.then_some(i as u32))
                .collect()
        })
    }

    /// Total live slots across all classes.
    pub fn live_count(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| (c.capacity_slots - c.free.len() as u32) as u64)
            .sum()
    }

    /// Flips one bit of one float of a live slot, simulating a soft memory
    /// error in HBM. Returns the value before corruption. `word` indexes the
    /// floats of the slot (mod dim), `bit` indexes the f32's bits (mod 32).
    ///
    /// This is a *fault-injection* hook: nothing on the normal path calls
    /// it, and checksummed readers are expected to detect its effect.
    pub fn corrupt_bit(
        &mut self,
        class: u16,
        slot: u32,
        word: u32,
        bit: u32,
    ) -> Result<f32, PoolError> {
        let c = self
            .classes
            .get_mut(class as usize)
            .ok_or(PoolError::UnknownClass { class })?;
        if slot >= c.capacity_slots || !c.live[slot as usize] {
            return Err(PoolError::InvalidSlot { class, slot });
        }
        let off = slot as usize * c.dim as usize + (word % c.dim) as usize;
        let before = c.data[off];
        c.data[off] = f32::from_bits(before.to_bits() ^ (1u32 << (bit % 32)));
        Ok(before)
    }

    /// Returns every class to its freshly-built state: all slots free, no
    /// live or retired entries, payload bytes zeroed. Models a device loss
    /// wiping HBM — the pre-allocated slabs survive as capacity (no
    /// `cudaMalloc` on the recovery path), their contents do not.
    pub fn reset(&mut self) {
        for c in &mut self.classes {
            c.data.fill(0.0);
            c.free = (0..c.capacity_slots).rev().collect();
            c.live.fill(false);
            c.retired.fill(false);
        }
    }

    /// Reads a slot that may have been logically retired but not yet
    /// reclaimed (the epoch grace period makes this safe); only bounds are
    /// checked. Decoupled copy kernels use this path.
    pub fn read_during_grace(&self, class: u16, slot: u32) -> Result<&[f32], PoolError> {
        let c = self
            .classes
            .get(class as usize)
            .ok_or(PoolError::UnknownClass { class })?;
        if slot >= c.capacity_slots {
            return Err(PoolError::InvalidSlot { class, slot });
        }
        let off = slot as usize * c.dim as usize;
        Ok(&c.data[off..off + c.dim as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> SlabPool {
        SlabPool::new(&[
            ClassSpec { dim: 4, slots: 8 },
            ClassSpec { dim: 8, slots: 4 },
        ])
    }

    #[test]
    fn alloc_write_read_free_cycle() {
        let mut p = pool();
        let (slot, _) = p.alloc(0).unwrap();
        p.write(0, slot, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(p.read(0, slot).unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        p.free(0, slot).unwrap();
        assert_eq!(
            p.read(0, slot),
            Err(PoolError::InvalidSlot { class: 0, slot })
        );
    }

    #[test]
    fn fused_write_matches_two_pass_checksum() {
        let mut p = pool();
        let (slot, _) = p.alloc(0).unwrap();
        for value in [
            [1.0f32, 2.0, 3.0, 4.0],
            [0.0, -0.0, f32::NAN, f32::INFINITY],
            [1e-38, -1e38, 0.5, -0.5],
        ] {
            let (h, stats) = p.write_with_checksum(0, slot, &value).unwrap();
            assert_eq!(h, fleche_simd::checksum(&value));
            assert_eq!(stats.bytes_touched, 16);
            let bits: Vec<u32> = p
                .read(0, slot)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u32> = value.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, want, "checksummed write must store identical bytes");
        }
        assert_eq!(
            p.write_with_checksum(0, slot, &[1.0]),
            Err(PoolError::DimensionMismatch {
                expected: 4,
                got: 1
            })
        );
        p.free(0, slot).unwrap();
        assert_eq!(
            p.write_with_checksum(0, slot, &[0.0; 4]),
            Err(PoolError::InvalidSlot { class: 0, slot })
        );
    }

    #[test]
    fn capacity_and_utilization_accounting() {
        let mut p = pool();
        assert_eq!(p.capacity_bytes(), 8 * 4 * 4 + 4 * 8 * 4);
        assert_eq!(p.utilization(), 0.0);
        let (s0, _) = p.alloc(0).unwrap();
        let (_s1, _) = p.alloc(1).unwrap();
        assert_eq!(p.allocated_bytes(), 4 * 4 + 8 * 4);
        assert!(p.utilization() > 0.0 && p.utilization() < 1.0);
        p.free(0, s0).unwrap();
        assert_eq!(p.allocated_bytes(), 8 * 4);
    }

    #[test]
    fn class_exhaustion_is_reported() {
        let mut p = SlabPool::new(&[ClassSpec { dim: 2, slots: 2 }]);
        p.alloc(0).unwrap();
        p.alloc(0).unwrap();
        assert_eq!(p.alloc(0).unwrap_err(), PoolError::ClassFull { class: 0 });
    }

    #[test]
    fn double_free_is_rejected() {
        let mut p = pool();
        let (slot, _) = p.alloc(0).unwrap();
        p.free(0, slot).unwrap();
        assert_eq!(
            p.free(0, slot),
            Err(PoolError::InvalidSlot { class: 0, slot })
        );
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut p = pool();
        let (slot, _) = p.alloc(0).unwrap();
        assert_eq!(
            p.write(0, slot, &[1.0]),
            Err(PoolError::DimensionMismatch {
                expected: 4,
                got: 1
            })
        );
    }

    #[test]
    fn unknown_class_is_rejected() {
        let mut p = pool();
        assert_eq!(
            p.alloc(9).unwrap_err(),
            PoolError::UnknownClass { class: 9 }
        );
        assert!(p.read(9, 0).is_err());
        assert_eq!(p.dim_of(9), None);
        assert_eq!(p.class_for_dim(4), Some(0));
        assert_eq!(p.class_for_dim(8), Some(1));
        assert_eq!(p.class_for_dim(99), None);
    }

    #[test]
    fn retired_bitmap_tracks_lifecycle() {
        let mut p = pool();
        let (slot, _) = p.alloc(0).unwrap();
        assert!(!p.is_retired(0, slot));
        p.note_retired(0, slot);
        assert!(p.is_retired(0, slot));
        // Grace-period reads stay legal on a retired slot.
        assert!(p.read_during_grace(0, slot).is_ok());
        // Reclamation clears the flag...
        p.free(0, slot).unwrap();
        assert!(!p.is_retired(0, slot));
        // ...and so does re-allocation of the same slot.
        let (slot2, _) = p.alloc(0).unwrap();
        assert!(!p.is_retired(0, slot2));
        // Out-of-range queries are just false, never a panic.
        assert!(!p.is_retired(7, 0));
        assert!(!p.is_retired(0, 999));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "retired slab")]
    fn plain_read_of_retired_slot_asserts() {
        let mut p = pool();
        let (slot, _) = p.alloc(0).unwrap();
        p.note_retired(0, slot);
        let _ = p.read(0, slot);
    }

    #[test]
    fn grace_period_read_sees_stale_value() {
        let mut p = pool();
        let (slot, _) = p.alloc(0).unwrap();
        p.write(0, slot, &[9.0, 9.0, 9.0, 9.0]).unwrap();
        p.free(0, slot).unwrap();
        // Logically deleted, physically still readable until reclaimed.
        assert_eq!(p.read_during_grace(0, slot).unwrap(), &[9.0, 9.0, 9.0, 9.0]);
        assert!(p.read_during_grace(0, 999).is_err());
    }

    #[test]
    fn corrupt_bit_flips_exactly_one_bit_and_reports_old_value() {
        let mut p = pool();
        let (slot, _) = p.alloc(0).unwrap();
        p.write(0, slot, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let before = p.corrupt_bit(0, slot, 1, 22).unwrap();
        assert_eq!(before, 2.0);
        let after = p.read(0, slot).unwrap()[1];
        assert_ne!(after, 2.0);
        assert_eq!(after.to_bits() ^ 2.0f32.to_bits(), 1 << 22);
        // Other words untouched.
        assert_eq!(p.read(0, slot).unwrap()[0], 1.0);
        // Flipping the same bit back restores the value.
        p.corrupt_bit(0, slot, 1, 22).unwrap();
        assert_eq!(p.read(0, slot).unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        // Dead slots are not valid victims.
        p.free(0, slot).unwrap();
        assert_eq!(
            p.corrupt_bit(0, slot, 0, 0),
            Err(PoolError::InvalidSlot { class: 0, slot })
        );
    }

    #[test]
    fn live_slot_enumeration() {
        let mut p = pool();
        assert_eq!(p.live_count(), 0);
        assert!(p.live_slots(0).is_empty());
        let (a, _) = p.alloc(0).unwrap();
        let (b, _) = p.alloc(0).unwrap();
        let (c, _) = p.alloc(1).unwrap();
        assert_eq!(p.live_count(), 3);
        let mut live = p.live_slots(0);
        live.sort_unstable();
        let mut expect = vec![a, b];
        expect.sort_unstable();
        assert_eq!(live, expect);
        assert_eq!(p.live_slots(1), vec![c]);
        assert!(p.live_slots(7).is_empty());
        p.free(0, a).unwrap();
        assert_eq!(p.live_slots(0), vec![b]);
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut p = pool();
        let (a, _) = p.alloc(0).unwrap();
        p.write(0, a, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let (b, _) = p.alloc(0).unwrap();
        p.note_retired(0, b);
        p.reset();
        assert_eq!(p.live_count(), 0);
        assert_eq!(p.allocated_bytes(), 0);
        assert!(!p.is_retired(0, b));
        // Allocation order matches a freshly built pool.
        let fresh_first = SlabPool::new(&[ClassSpec { dim: 4, slots: 8 }])
            .alloc(0)
            .unwrap()
            .0;
        let (c, _) = p.alloc(0).unwrap();
        assert_eq!(c, fresh_first);
        // Old payload bytes are gone.
        p.write(0, c, &[5.0; 4]).unwrap();
        assert_eq!(p.read(0, c).unwrap(), &[5.0; 4]);
    }

    #[test]
    fn slots_recycle_lifo() {
        let mut p = pool();
        let (a, _) = p.alloc(0).unwrap();
        p.free(0, a).unwrap();
        let (b, _) = p.alloc(0).unwrap();
        assert_eq!(a, b);
    }
}
