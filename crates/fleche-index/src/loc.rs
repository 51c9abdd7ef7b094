//! Value locations stored in the GPU-resident index.
//!
//! A [`Loc`] is the 64-bit "pointer" a slot of the index maps a flat key to.
//! Following the paper's *unified index* technique, the least significant
//! bit distinguishes an HBM memory-pool slot from a CPU-DRAM resident
//! embedding: a tagged DRAM pointer lets the GPU-side index answer "where
//! does this missing key live" without a slow CPU-side hash lookup.

/// Where an embedding lives.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Loc {
    /// In the GPU memory pool: (size class, slot within the class).
    Hbm {
        /// Index of the pool size class (one per embedding dimension).
        class: u16,
        /// Slot number within the class.
        slot: u32,
    },
    /// In CPU DRAM: identified by the original (table, feature id) pair so
    /// the host-side store can be addressed directly.
    Dram {
        /// Embedding-table index.
        table: u16,
        /// Original feature id within the table.
        feature: u64,
    },
}

/// Packed on-device representation of a [`Loc`] (8 bytes per slot).
///
/// Layout: bit 0 is the DRAM tag. For HBM, bits 1..17 hold the class and
/// bits 17..49 the slot. For DRAM, bits 1..9 hold the table and bits 9..64
/// the feature id (55 bits).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PackedLoc(u64);

/// Maximum feature id representable in a packed DRAM pointer (55 bits).
pub(crate) const MAX_DRAM_FEATURE: u64 = (1 << 55) - 1;
/// Maximum table id representable in a packed DRAM pointer (8 bits).
pub(crate) const MAX_DRAM_TABLE: u16 = u8::MAX as u16;

impl Loc {
    /// Packs into the 8-byte on-device form.
    ///
    /// # Panics
    ///
    /// Panics if a DRAM location exceeds the 8-bit table / 55-bit feature
    /// budget, or an HBM slot exceeds 32 bits of slot / 16 bits of class —
    /// all far beyond anything this repository instantiates.
    pub fn pack(self) -> PackedLoc {
        match self {
            Loc::Hbm { class, slot } => PackedLoc(((class as u64) << 1) | ((slot as u64) << 17)),
            Loc::Dram { table, feature } => {
                assert!(
                    table <= MAX_DRAM_TABLE,
                    "table id {table} too large to pack"
                );
                assert!(
                    feature <= MAX_DRAM_FEATURE,
                    "feature id {feature} too large to pack"
                );
                PackedLoc(1 | ((table as u64) << 1) | (feature << 9))
            }
        }
    }
}

impl PackedLoc {
    /// Unpacks back into the enum form.
    pub fn unpack(self) -> Loc {
        if self.0 & 1 == 0 {
            Loc::Hbm {
                class: ((self.0 >> 1) & 0xFFFF) as u16,
                slot: ((self.0 >> 17) & 0xFFFF_FFFF) as u32,
            }
        } else {
            Loc::Dram {
                table: ((self.0 >> 1) & 0xFF) as u16,
                feature: self.0 >> 9,
            }
        }
    }

    /// True when this is a tagged CPU-DRAM pointer.
    pub fn is_dram(self) -> bool {
        self.0 & 1 == 1
    }
}

impl From<Loc> for PackedLoc {
    fn from(l: Loc) -> PackedLoc {
        l.pack()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm_round_trips() {
        let l = Loc::Hbm {
            class: 7,
            slot: 123_456,
        };
        assert_eq!(l.pack().unpack(), l);
        assert!(!l.pack().is_dram());
    }

    #[test]
    fn dram_round_trips() {
        let l = Loc::Dram {
            table: 97,
            feature: 0x1234_5678_9ABC,
        };
        assert_eq!(l.pack().unpack(), l);
        assert!(l.pack().is_dram());
    }

    #[test]
    fn extremes_round_trip() {
        for l in [
            Loc::Hbm { class: 0, slot: 0 },
            Loc::Hbm {
                class: u16::MAX,
                slot: u32::MAX,
            },
            Loc::Dram {
                table: 0,
                feature: 0,
            },
            Loc::Dram {
                table: MAX_DRAM_TABLE,
                feature: MAX_DRAM_FEATURE,
            },
        ] {
            assert_eq!(l.pack().unpack(), l);
        }
    }

    #[test]
    #[should_panic(expected = "feature id")]
    fn oversized_feature_panics() {
        let _ = Loc::Dram {
            table: 0,
            feature: MAX_DRAM_FEATURE + 1,
        }
        .pack();
    }

    #[test]
    fn lsb_is_the_tag() {
        let h = Loc::Hbm { class: 1, slot: 1 }.pack();
        let d = Loc::Dram {
            table: 1,
            feature: 1,
        }
        .pack();
        assert_eq!(h.0 & 1, 0);
        assert_eq!(d.0 & 1, 1);
    }
}
