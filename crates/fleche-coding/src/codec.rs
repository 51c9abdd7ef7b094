//! The flat-key codec interface and the fixed-length baseline.
//!
//! Flat cache needs every `(table, feature)` pair mapped into one uniform
//! key space so all cache tables can share a single backend. The baseline
//! (the fixed-length scheme the paper attributes to Kraken) reserves the
//! same number of high bits for the table ID in every key and hashes the
//! feature into the remainder — wasteful for tiny tables (a city table
//! never fills 24 bits) and lossy for huge ones (a billion users hashed
//! into 24 bits collide violently).

/// A flat key: the unified key format of the shared cache backend.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlatKey(pub u64);

/// Per-table description of how a codec lays out keys.
///
/// A key is formed as `(prefix << feature_bits) + offset + slot`, where
/// `slot < feature_space`. For ordinary tables `offset == 0` and
/// `feature_space == 2^feature_bits`; the size-aware codec's shared
/// overflow region uses `offset`/`feature_space` to carve non-power-of-two
/// slices out of one region without aliasing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableCode {
    /// The table-ID prefix value (right-aligned).
    pub prefix: u64,
    /// Prefix length in bits.
    pub prefix_bits: u32,
    /// Bits below the prefix.
    pub feature_bits: u32,
    /// Start of this table's slot slice below the prefix.
    pub offset: u64,
    /// Number of distinct feature slots available to this table.
    pub feature_space: u64,
    /// True when `feature_space >= corpus`, i.e. the identity mapping is
    /// used and re-encoding is lossless for this table.
    pub lossless: bool,
}

/// A scheme for re-encoding `(table, feature)` pairs into flat keys.
pub trait FlatKeyCodec {
    /// Total key width in bits.
    fn total_bits(&self) -> u32;

    /// Number of tables this codec covers.
    fn table_count(&self) -> usize;

    /// The layout of `table`'s keys.
    ///
    /// # Panics
    ///
    /// Implementations panic if `table` is out of range.
    fn table_code(&self, table: u16) -> TableCode;

    /// Encodes a feature of a table into a flat key. Lossy when the
    /// table's feature space is smaller than its corpus.
    fn encode(&self, table: u16, feature: u64) -> FlatKey {
        encode_with(self.table_code(table), feature)
    }

    /// Encodes many features of one table, resolving the [`TableCode`]
    /// once instead of per key. `out[i]` is identical to
    /// `self.encode(table, features[i])` (both go through the same
    /// [`encode_with`] kernel).
    fn encode_batch(&self, table: u16, features: &[u64]) -> Vec<FlatKey> {
        let tc = self.table_code(table);
        features.iter().map(|&f| encode_with(tc, f)).collect()
    }

    /// Encodes a mixed-table `(table, feature)` stream, memoizing the
    /// last table's [`TableCode`] — the fill path feeds this runs of
    /// same-table keys, so most lookups hit the memo. Identical output
    /// to encoding each pair individually.
    fn encode_pairs(&self, pairs: &[(u16, u64)]) -> Vec<FlatKey> {
        let mut out = Vec::with_capacity(pairs.len());
        self.encode_pairs_into(pairs, &mut out);
        out
    }

    /// [`FlatKeyCodec::encode_pairs`], appending to `out` (a buffer reused
    /// across batches allocates nothing once it is large enough).
    fn encode_pairs_into(&self, pairs: &[(u16, u64)], out: &mut Vec<FlatKey>) {
        let mut memo: Option<(u16, TableCode)> = None;
        out.extend(pairs.iter().map(|&(t, f)| {
            let tc = match memo {
                Some((mt, tc)) if mt == t => tc,
                _ => {
                    let tc = self.table_code(t);
                    memo = Some((t, tc));
                    tc
                }
            };
            encode_with(tc, f)
        }));
    }

    /// Recovers `(table, feature)` from a flat key, when unambiguous: the
    /// key's prefix identifies the table, and lossless tables use the
    /// identity slot mapping. Returns `None` for keys in lossy tables
    /// (hashing is not invertible) or outside every table's range. This is
    /// what lets eviction convert a cached entry into a unified-index DRAM
    /// pointer without a side table.
    fn decode(&self, key: FlatKey) -> Option<(u16, u64)> {
        for t in 0..self.table_count() as u16 {
            let tc = self.table_code(t);
            let base = (tc.prefix << tc.feature_bits) + tc.offset;
            if key.0 >= base && key.0 < base + tc.feature_space {
                if tc.lossless {
                    return Some((t, key.0 - base));
                }
                return None;
            }
        }
        None
    }

    /// Decodes many keys, resolving every table's range `[base, base +
    /// feature_space)` once up front instead of per key. `out[i]` is
    /// identical to `self.decode(keys[i])` — same first-matching-table
    /// scan order, same lossless/lossy outcomes.
    fn decode_batch(&self, keys: &[FlatKey]) -> Vec<Option<(u16, u64)>> {
        let ranges: Vec<(u64, u64, bool)> = (0..self.table_count() as u16)
            .map(|t| {
                let tc = self.table_code(t);
                let base = (tc.prefix << tc.feature_bits) + tc.offset;
                (base, tc.feature_space, tc.lossless)
            })
            .collect();
        keys.iter()
            .map(|&key| {
                for (t, &(base, space, lossless)) in ranges.iter().enumerate() {
                    if key.0 >= base && key.0 < base + space {
                        if lossless {
                            return Some((t as u16, key.0 - base));
                        }
                        return None;
                    }
                }
                None
            })
            .collect()
    }

    /// Expected fraction of this table's features that share a flat key
    /// with another feature of the same table (birthday estimate; exact 0
    /// for lossless tables).
    fn intra_table_collision_fraction(&self, table: u16, corpus: u64) -> f64 {
        let tc = self.table_code(table);
        if tc.lossless && tc.feature_space >= corpus {
            return 0.0;
        }
        let s = tc.feature_space.max(1) as f64;
        let c = corpus as f64;
        // P(another of the c-1 features hashes to my slot).
        1.0 - (1.0 - 1.0 / s).powf(c - 1.0)
    }
}

/// The shared encode kernel: one [`TableCode`] resolution's worth of
/// work. Both the per-key [`FlatKeyCodec::encode`] and the batch entry
/// points call this, so batching can never change a key.
#[inline]
pub fn encode_with(tc: TableCode, feature: u64) -> FlatKey {
    let slot = if tc.lossless {
        debug_assert!(feature < tc.feature_space);
        feature
    } else {
        // Multiplicative hash into the available range.
        let h = feature
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h % tc.feature_space.max(1)
    };
    FlatKey((tc.prefix << tc.feature_bits) + tc.offset + slot)
}

/// The fixed-length baseline: `table_bits` high bits of table ID, the rest
/// hashed feature ID — identical budget for every table.
#[derive(Clone, Debug)]
pub struct FixedLenCodec {
    total_bits: u32,
    table_bits: u32,
    corpora: Vec<u64>,
}

impl FixedLenCodec {
    /// Builds the codec.
    ///
    /// # Panics
    ///
    /// Panics if `table_bits >= total_bits`, if `total_bits > 63`, or if
    /// `2^table_bits < corpora.len()`.
    pub fn new(total_bits: u32, table_bits: u32, corpora: Vec<u64>) -> FixedLenCodec {
        assert!(total_bits <= 63, "keys wider than 63 bits are unsupported");
        assert!(
            table_bits < total_bits,
            "table bits must leave room for features"
        );
        assert!(
            (corpora.len() as u64) <= 1u64 << table_bits,
            "not enough table-id space for {} tables",
            corpora.len()
        );
        FixedLenCodec {
            total_bits,
            table_bits,
            corpora,
        }
    }

    /// The paper's example layout: 8-bit table IDs in 32-bit keys.
    pub fn kraken32(corpora: Vec<u64>) -> FixedLenCodec {
        FixedLenCodec::new(32, 8, corpora)
    }
}

impl FlatKeyCodec for FixedLenCodec {
    fn total_bits(&self) -> u32 {
        self.total_bits
    }

    fn table_count(&self) -> usize {
        self.corpora.len()
    }

    fn table_code(&self, table: u16) -> TableCode {
        let corpus = self.corpora[table as usize];
        let feature_bits = self.total_bits - self.table_bits;
        let feature_space = 1u64 << feature_bits;
        TableCode {
            prefix: table as u64,
            prefix_bits: self.table_bits,
            feature_bits,
            offset: 0,
            feature_space,
            lossless: feature_space >= corpus,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn codec() -> FixedLenCodec {
        FixedLenCodec::new(20, 4, vec![100, 1 << 18, 50_000])
    }

    #[test]
    fn keys_of_different_tables_never_collide() {
        let c = codec();
        let a = c.encode(0, 42);
        let b = c.encode(1, 42);
        assert_ne!(a, b);
        // Prefix occupies the top bits.
        assert_eq!(a.0 >> 16, 0);
        assert_eq!(b.0 >> 16, 1);
    }

    #[test]
    fn small_table_is_lossless() {
        let c = codec();
        let tc = c.table_code(0);
        assert!(tc.lossless);
        assert_eq!(c.intra_table_collision_fraction(0, 100), 0.0);
        // Lossless encoding is injective.
        let keys: HashSet<u64> = (0..100).map(|f| c.encode(0, f).0).collect();
        assert_eq!(keys.len(), 100);
    }

    #[test]
    fn oversized_table_collides() {
        let c = codec();
        let tc = c.table_code(1);
        assert!(!tc.lossless, "2^18 corpus in 16 feature bits must be lossy");
        let frac = c.intra_table_collision_fraction(1, 1 << 18);
        assert!(frac > 0.9, "estimated collision fraction {frac}");
        // Measured: hashing 2^18 features into 2^16 slots leaves at most
        // 2^16 distinct keys.
        let keys: HashSet<u64> = (0..(1u64 << 18)).map(|f| c.encode(1, f).0).collect();
        assert!(keys.len() <= 1 << 16);
    }

    #[test]
    fn keys_fit_in_total_bits() {
        let c = codec();
        for t in 0..3u16 {
            for f in [0u64, 1, 99] {
                assert!(c.encode(t, f).0 < 1 << 20);
            }
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let c = codec();
        assert_eq!(c.encode(2, 31_337), c.encode(2, 31_337));
    }

    #[test]
    #[should_panic(expected = "not enough table-id space")]
    fn too_many_tables_rejected() {
        let _ = FixedLenCodec::new(16, 1, vec![10, 10, 10]);
    }

    #[test]
    #[should_panic(expected = "leave room")]
    fn degenerate_layout_rejected() {
        let _ = FixedLenCodec::new(8, 8, vec![10]);
    }

    #[test]
    fn kraken32_layout() {
        let c = FixedLenCodec::kraken32(vec![1000; 22]);
        assert_eq!(c.total_bits(), 32);
        assert_eq!(c.table_code(0).prefix_bits, 8);
        assert_eq!(c.table_code(0).feature_bits, 24);
        assert_eq!(c.table_count(), 22);
    }
}
