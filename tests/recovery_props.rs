//! Property-based tests on the checkpoint image format and the
//! flat-cache restore path (a chain of length one): encoding round-trips every embedding
//! bit-identically (including non-finite float payloads), and an image
//! with any single byte flipped — header, entry stream, or trailer — is
//! always rejected before the cache is touched.

use fleche_coding::{FlatKeyCodec, SizeAwareCodec};
use fleche_core::{
    CacheAnswer, CacheSnapshot, CheckpointChain, FlatCache, FlatCacheConfig, SnapshotEntry,
};
use fleche_workload::spec;
use proptest::prelude::*;

/// Arbitrary entries with payloads drawn from the full 32-bit pattern
/// space (NaNs and infinities included — a checkpoint must not care).
fn entries_strategy() -> impl Strategy<Value = Vec<SnapshotEntry>> {
    prop::collection::vec(
        (
            any::<u64>(),
            any::<u16>(),
            any::<u32>(),
            any::<u64>(),
            prop::collection::vec(any::<u32>().prop_map(f32::from_bits), 1..24),
        )
            .prop_map(|(key, class, stamp, version, value)| SnapshotEntry {
                key,
                class,
                stamp,
                version,
                value,
            }),
        0..40,
    )
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_round_trips_arbitrary_entries(entries in entries_strategy()) {
        let snap = CacheSnapshot::from_entries(&entries);
        let decoded = snap.decode().expect("fresh image decodes");
        prop_assert_eq!(decoded.len(), entries.len());
        for (d, e) in decoded.iter().zip(&entries) {
            prop_assert_eq!(d.key, e.key);
            prop_assert_eq!(d.class, e.class);
            prop_assert_eq!(d.stamp, e.stamp);
            // Bit-level equality: `==` on f32 would reject NaN payloads
            // that round-tripped perfectly.
            prop_assert_eq!(bits(&d.value), bits(&e.value));
        }
    }

    #[test]
    fn any_flipped_byte_is_rejected(
        entries in entries_strategy(),
        offset_seed in any::<u64>(),
    ) {
        let mut snap = CacheSnapshot::from_entries(&entries);
        let len = snap.byte_len();
        prop_assert!(len > 0);
        let offset = offset_seed % len;
        prop_assert!(snap.corrupt_byte(offset), "offset in bounds");
        prop_assert!(
            snap.decode().is_err(),
            "byte {offset} of {len} flipped but the image decoded"
        );
    }

    #[test]
    fn restore_round_trips_embeddings_bit_identically(
        keys in prop::collection::vec((0u16..4, 0u64..500), 1..120),
        payload in prop::collection::vec(any::<u32>().prop_map(f32::from_bits), 8),
    ) {
        let ds = spec::synthetic(4, 500, 8, -1.2);
        let corpora: Vec<u64> = ds.tables.iter().map(|t| t.corpus).collect();
        let codec = SizeAwareCodec::new(24, &corpora);
        let config = FlatCacheConfig {
            admission_probability: 1.0,
            ..FlatCacheConfig::default()
        };
        // Big enough that nothing inserted here ever faces eviction.
        let mut cache = FlatCache::new(&ds, 8 * 4 * 1024, config);
        for (i, &(t, f)) in keys.iter().enumerate() {
            let value: Vec<f32> = payload
                .iter()
                .enumerate()
                .map(|(j, &p)| if j == 0 { (t as f32) + (f as f32) } else { p })
                .collect();
            cache.insert_value(t, codec.encode(t, f), &value, i as u32);
            cache.end_batch();
        }
        let (snap, _) = cache.checkpoint(0);

        let mut fresh = FlatCache::new(&ds, 8 * 4 * 1024, config);
        let report = fresh.restore(&snap).expect("intact image restores");
        prop_assert_eq!(report.bypassed, 0);
        // A chain of length one restores to exactly the state it captured:
        // the restored cache checkpoints to the same bytes.
        prop_assert_eq!(&fresh.checkpoint(0).0, &snap);
        for e in snap.base().decode().expect("intact") {
            match fresh.lookup_batch(&[fleche_coding::FlatKey(e.key)], u32::MAX)[0].0 {
                CacheAnswer::Hit { class, slot } => {
                    prop_assert_eq!(bits(fresh.read_hit(class, slot)), bits(&e.value));
                }
                other => prop_assert!(false, "restored key {} missing: {other:?}", e.key),
            }
        }
    }

    #[test]
    fn corrupt_image_never_mutates_the_cache(
        entries in entries_strategy(),
        offset_seed in any::<u64>(),
    ) {
        let mut snap = CacheSnapshot::from_entries(&entries);
        let offset = offset_seed % snap.byte_len();
        prop_assert!(snap.corrupt_byte(offset));
        let ds = spec::synthetic(4, 500, 8, -1.2);
        let mut cache = FlatCache::new(&ds, 8 * 4 * 256, FlatCacheConfig::default());
        let chain = CheckpointChain::from_images(snap, Vec::new());
        prop_assert!(cache.restore(&chain).is_err());
        prop_assert_eq!(cache.len(), 0, "rejected image must not touch the cache");
    }
}
