//! Property-based bit-identity tests for the vectorized host hot paths:
//! whatever the runtime SIMD dispatch picks, every batch/blocked entry
//! point must produce exactly the bits its scalar reference produces —
//! across non-multiple-of-lane dims, slice offsets, NaN payloads, ragged
//! batch shapes, and duplicate keys.

use fleche_coding::{FixedLenCodec, FlatKeyCodec, SizeAwareCodec};
use fleche_gpu::DramSpec;
use fleche_index::{ClassSpec, GpuIndex, Loc, MegaKv, SlabHash, SlabPool};
use fleche_store::{versioned_embedding_value, CpuStore};
use fleche_workload::spec;
use proptest::prelude::*;

/// Arbitrary f32s by bit pattern — includes negatives, subnormals,
/// infinities, and NaNs with distinct payloads. Bit-identity claims must
/// hold for all of them.
fn any_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

fn f32_vec(len: impl Into<prop::collection::SizeRange>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(any_f32(), len)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The versioned embedding value as a plain scalar loop: the SplitMix64
/// finalizer of `base + j·0x94D0_49BB_1331_11EB` per component, mapped
/// into `[-1, 1)`, with `base` keyed by `(table, id)` and salted with the
/// version. The reference the dispatched fill must reproduce.
fn versioned_value_reference(table: u16, id: u64, version: u64, out: &mut [f32]) {
    let base = (table as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(id.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(version.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    for (j, v) in out.iter_mut().enumerate() {
        let mut x = base.wrapping_add((j as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        *v = ((x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dispatched elementwise primitives equal their portable
    /// twins bit for bit, including when the slices start at an arbitrary
    /// offset (alignment must not matter).
    #[test]
    fn dispatch_paths_are_bit_identical(
        a in f32_vec(0..70usize),
        b in f32_vec(0..70usize),
        offset in 0usize..8,
    ) {
        let a = &a[offset.min(a.len())..];
        let b = &b[offset.min(b.len())..];
        let mut d = a.to_vec();
        let mut p = a.to_vec();
        fleche_simd::add_assign(&mut d, b);
        fleche_simd::add_assign_portable(&mut p, b);
        prop_assert_eq!(bits(&d), bits(&p));
    }

    /// The procedural embedding fill (the gather path's bottleneck) is
    /// bit-identical across dispatch paths for any stream base and any
    /// dim, and stays in the documented [-1, 1) range.
    #[test]
    fn unit_fill_is_bit_identical(base in any::<u64>(), dim in 0usize..70) {
        let mut d = vec![0.0f32; dim];
        let mut p = vec![0.0f32; dim];
        fleche_simd::unit_fill(base, &mut d);
        fleche_simd::unit_fill_portable(base, &mut p);
        prop_assert_eq!(bits(&d), bits(&p));
        prop_assert!(d.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    /// The versioned embedding value (and so every row the store, the
    /// update rewrite and the update apply produce) is the scalar
    /// reference loop bit for bit, for any key, any version, and dims
    /// across several lane blocks and every tail length.
    #[test]
    fn versioned_value_is_the_scalar_reference(
        table in any::<u16>(),
        id in any::<u64>(),
        version in any::<u64>(),
        dim in 0usize..131,
    ) {
        let mut got = vec![0.0f32; dim];
        let mut want = vec![0.0f32; dim];
        versioned_embedding_value(table, id, version, &mut got);
        versioned_value_reference(table, id, version, &mut want);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// The slot checksum is the documented lane kernel on both dispatch
    /// paths: word `i` into lane `i % 8` by one FNV-1a step, the lanes
    /// folded in order — over arbitrary bit patterns and every tail length.
    #[test]
    fn checksum_is_the_documented_lane_kernel(value in f32_vec(0..40usize)) {
        let step = |h: u32, w: u32| (h ^ w).wrapping_mul(fleche_simd::FNV_PRIME);
        let mut lanes = [fleche_simd::FNV_BASIS; fleche_simd::LANES];
        for (i, v) in value.iter().enumerate() {
            lanes[i % fleche_simd::LANES] = step(lanes[i % fleche_simd::LANES], v.to_bits());
        }
        let want = lanes.iter().fold(fleche_simd::FNV_BASIS, |r, &h| step(r, h));
        prop_assert_eq!(fleche_simd::checksum(&value), want);
        prop_assert_eq!(fleche_simd::checksum_portable(&value), want);
    }

    /// Flipping any single bit of any word changes the checksum — checked
    /// exhaustively for every (word, bit) of each generated row.
    #[test]
    fn checksum_detects_every_single_bit_flip(value in f32_vec(1..40usize)) {
        let clean = fleche_simd::checksum(&value);
        let mut row = value.clone();
        for word in 0..row.len() {
            for bit in 0..32 {
                row[word] = f32::from_bits(value[word].to_bits() ^ (1 << bit));
                prop_assert!(fleche_simd::checksum(&row) != clean, "word {} bit {}", word, bit);
            }
            row[word] = value[word];
        }
    }

    /// The batch entry point and the pool's checksummed write both give
    /// `checksum` of each row.
    #[test]
    fn batch_checksum_is_per_slot_identical(
        slots in prop::collection::vec(f32_vec(0..40usize), 0..11),
        dim in 0usize..40,
        row in f32_vec(40usize),
    ) {
        let views: Vec<&[f32]> = slots.iter().map(Vec::as_slice).collect();
        let per_slot: Vec<u32> = views.iter().map(|v| fleche_simd::checksum(v)).collect();
        prop_assert_eq!(fleche_simd::checksum_batch(&views), per_slot);
        let mut pool = SlabPool::new(&[ClassSpec { dim: dim as u32, slots: 1 }]);
        let (slot, _) = pool.alloc(0).expect("one free slot");
        let (sum, _) = pool.write_with_checksum(0, slot, &row[..dim]).expect("live slot");
        prop_assert_eq!(sum, fleche_simd::checksum(&row[..dim]));
    }

    /// The store's streaming gather, summed through the vectorized
    /// kernel, equals a naive scalar sum over materialized rows, bitwise.
    #[test]
    fn pooled_gather_matches_scalar_reduce(
        n_ids in 1usize..24,
        table in 0u16..4,
        seed in any::<u64>(),
    ) {
        let ds = spec::synthetic(4, 500, 8, -1.2);
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let ids: Vec<u64> = (0..n_ids as u64)
            .map(|i| (seed.wrapping_add(i.wrapping_mul(97))) % 500)
            .collect();
        // Scalar reference: naive per-element accumulation over
        // materialized rows (the pre-vectorization shape).
        let rows: Vec<Vec<f32>> = ids.iter().map(|&id| store.read(table, id)).collect();
        let mut want = vec![0.0f32; rows[0].len()];
        for row in &rows {
            for (w, &r) in want.iter_mut().zip(row) {
                *w += r;
            }
        }
        prop_assert_eq!(bits(&store.pooled(table, &ids)), bits(&want));
    }

    /// The batched probe returns, in input order, exactly what sequential
    /// per-key lookups return — locations AND per-key probe statistics —
    /// and leaves the same stamps behind, for arbitrary hit/miss mixes
    /// including duplicate keys. Eight buckets force slab chains; the
    /// cuckoo backend (which takes the trait's per-key default) is held to
    /// the same contract.
    #[test]
    fn slab_lookup_batch_matches_sequential(
        inserts in prop::collection::vec(1u64..400, 0..200),
        probes in prop::collection::vec(1u64..500, 0..120),
        seed in any::<u64>(),
    ) {
        let slab = || Box::new(SlabHash::with_seed(8, seed)) as Box<dyn GpuIndex>;
        let cuckoo = || Box::new(MegaKv::new(64)) as Box<dyn GpuIndex>;
        for build in [&slab as &dyn Fn() -> Box<dyn GpuIndex>, &cuckoo] {
            let (mut batch_h, mut seq_h) = (build(), build());
            for (i, &k) in inserts.iter().enumerate() {
                let loc = Loc::Hbm { class: 0, slot: i as u32 }.pack();
                batch_h.insert(k, loc, 0);
                seq_h.insert(k, loc, 0);
            }
            let mut batch = Vec::new();
            batch_h.lookup_batch(&probes, Some(3), &mut |found, stats| batch.push((found, stats)));
            let seq: Vec<_> = probes.iter().map(|&k| seq_h.lookup(k, Some(3))).collect();
            prop_assert_eq!(batch, seq);
            // Storage-order scans carry every entry's stamp.
            prop_assert_eq!(batch_h.scan().0, seq_h.scan().0);
        }
    }

    /// Every codec batch entry point equals its per-key form, key for
    /// key, for both codecs.
    #[test]
    fn codec_batches_match_per_key(
        corpora in prop::collection::vec(1u64..100_000, 1..8),
        pairs in prop::collection::vec((0u16..8, any::<u64>()), 0..120),
    ) {
        let n_tables = corpora.len() as u16;
        let fixed = FixedLenCodec::new(24, 4, corpora.clone());
        let aware = SizeAwareCodec::new(24, &corpora);
        // Lossless tables contract: feature < corpus (the system only
        // encodes in-corpus features), so clamp the raw u64 down.
        let pairs: Vec<(u16, u64)> = pairs
            .into_iter()
            .map(|(t, f)| {
                let t = t % n_tables;
                (t, f % corpora[t as usize])
            })
            .collect();
        for codec in [&fixed as &dyn FlatKeyCodec, &aware] {
            let per_key: Vec<_> = pairs.iter().map(|&(t, f)| codec.encode(t, f)).collect();
            prop_assert_eq!(&codec.encode_pairs(&pairs), &per_key);
            for t in 0..n_tables {
                let feats: Vec<u64> = pairs
                    .iter()
                    .filter(|&&(pt, _)| pt == t)
                    .map(|&(_, f)| f)
                    .collect();
                let batch = codec.encode_batch(t, &feats);
                let singles: Vec<_> = feats.iter().map(|&f| codec.encode(t, f)).collect();
                prop_assert_eq!(batch, singles);
            }
            let decoded: Vec<_> = per_key.iter().map(|&k| codec.decode(k)).collect();
            prop_assert_eq!(codec.decode_batch(&per_key), decoded);
        }
    }
}
