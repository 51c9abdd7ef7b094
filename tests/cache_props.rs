//! Property-based tests on the cache substrate: the slab-hash index must
//! behave like a map under arbitrary operation sequences, the pool must
//! never double-allocate, and the flat cache must stay internally
//! consistent under random workloads with eviction.

use fleche_coding::{FlatKey, FlatKeyCodec, SizeAwareCodec};
use fleche_core::{Fill, FlatCache, FlatCacheConfig};
use fleche_index::{ClassSpec, GpuIndex, Loc, SlabHash, SlabPool};
use fleche_workload::spec;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Op {
    Insert(u64, u32),
    Lookup(u64),
    Remove(u64),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..200, 0u32..1_000).prop_map(|(k, s)| Op::Insert(k, s)),
            (1u64..200).prop_map(Op::Lookup),
            (1u64..200).prop_map(Op::Remove),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn slab_hash_behaves_like_a_map(ops in ops_strategy(), buckets in 1usize..64) {
        let mut h = SlabHash::new(buckets);
        let mut model: HashMap<u64, u32> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(k, slot) => {
                    h.insert(k, Loc::Hbm { class: 0, slot }.pack(), 0);
                    model.insert(k, slot);
                }
                Op::Lookup(k) => {
                    let got = h.lookup(k, None).0.map(|p| match p.unpack() {
                        Loc::Hbm { slot, .. } => slot,
                        Loc::Dram { .. } => unreachable!("only HBM inserted"),
                    });
                    prop_assert_eq!(got, model.get(&k).copied());
                }
                Op::Remove(k) => {
                    let got = h.remove(k).0.is_some();
                    prop_assert_eq!(got, model.remove(&k).is_some());
                }
            }
            prop_assert_eq!(h.len(), model.len());
        }
        // Final scan agrees with the model.
        let (entries, _) = h.scan();
        prop_assert_eq!(entries.len(), model.len());
        for e in entries {
            prop_assert!(model.contains_key(&e.key));
        }
    }

    #[test]
    fn pool_never_double_allocates(slots in 1u32..64, rounds in 1usize..200) {
        let mut pool = SlabPool::new(&[ClassSpec { dim: 4, slots }]);
        let mut live: Vec<u32> = Vec::new();
        for i in 0..rounds {
            if i % 3 == 2 && !live.is_empty() {
                let slot = live.swap_remove(i % live.len());
                pool.free(0, slot).expect("was live");
            } else if let Ok((slot, _)) = pool.alloc(0) {
                prop_assert!(!live.contains(&slot), "slot {slot} allocated twice");
                live.push(slot);
            } else {
                prop_assert_eq!(live.len(), slots as usize, "full means all live");
            }
        }
        prop_assert_eq!(pool.allocated_bytes(), live.len() as u64 * 16);
    }

    #[test]
    fn flat_cache_hits_return_what_was_inserted(
        keys in prop::collection::vec((0u16..4, 0u64..500), 1..200),
        cache_slots in 8u64..256,
    ) {
        let ds = spec::synthetic(4, 500, 8, -1.2);
        let corpora: Vec<u64> = ds.tables.iter().map(|t| t.corpus).collect();
        let codec = SizeAwareCodec::new(24, &corpora);
        let mut cache = FlatCache::new(
            &ds,
            8 * 4 * cache_slots,
            FlatCacheConfig { admission_probability: 1.0, ..FlatCacheConfig::default() },
        );
        let mut stamp = 0u32;
        let mut inserted: HashMap<u64, Vec<f32>> = HashMap::new();
        for (t, f) in keys {
            stamp += 1;
            let key = codec.encode(t, f);
            let value: Vec<f32> = (0..8).map(|i| (t as f32) * 1000.0 + (f as f32) + i as f32).collect();
            if cache.insert_value(t, key, &value, stamp).0.is_some() {
                inserted.insert(key.0, value);
            }
            if cache.needs_eviction() {
                cache.evict_pass_with(|_| None);
                let (entries, _) = {
                    // After eviction, drop our model entries that are gone.
                    let snapshot: Vec<u64> = inserted.keys().copied().collect();
                    for k in snapshot {
                        if matches!(cache.lookup_batch(&[fleche_coding::FlatKey(k)], stamp)[0].0, fleche_core::CacheAnswer::Miss) {
                            inserted.remove(&k);
                        }
                    }
                    (Vec::<u8>::new(), ())
                };
                let _ = entries;
            }
            cache.end_batch();
        }
        // Every key our model believes cached must hit with the same bytes.
        for (k, v) in &inserted {
            match cache.lookup_batch(&[fleche_coding::FlatKey(*k)], stamp + 1)[0].0 {
                fleche_core::CacheAnswer::Hit { class, slot } => {
                    prop_assert_eq!(cache.read_hit(class, slot), v.as_slice());
                }
                other => prop_assert!(false, "expected hit for {k}, got {other:?}"),
            }
        }
    }

    /// The fill written once: a stream through
    /// [`FlatCache::upsert_batch`] and the same stream through the per-key
    /// sequence the bench twin runs (`bench/src/twin.rs`: `admit`, then
    /// `insert_value` or `insert_dram_ptr`, then `needs_eviction` and
    /// `evict_pass_with`), skipping unfetched rows as the system does, must
    /// leave two caches of one config and seed indistinguishable after
    /// every batch. Until the twin goes, this holds its semantics to the
    /// system's.
    #[test]
    fn upsert_batch_matches_the_per_key_fill(
        batches in prop::collection::vec(
            prop::collection::vec((0u16..4, 0u64..300, 0u8..5), 1..48),
            1..12,
        ),
        cache_slots in 16u64..96,
        unified_target in 0u64..64,
    ) {
        let ds = spec::synthetic(4, 300, 8, -1.2);
        let corpora: Vec<u64> = ds.tables.iter().map(|t| t.corpus).collect();
        let codec = SizeAwareCodec::new(24, &corpora);
        let new = || {
            let mut cache = FlatCache::new(&ds, 8 * 4 * cache_slots, FlatCacheConfig::default());
            cache.set_unified_target(unified_target);
            cache
        };
        let (mut batched, mut per_key) = (new(), new());
        let mut probe_keys: Vec<FlatKey> = batches
            .iter()
            .flatten()
            .map(|&(t, f, _)| codec.encode(t, f))
            .collect();
        probe_keys.sort_unstable();
        probe_keys.dedup();
        let mut admitted = Vec::new();
        for (b, fills) in batches.iter().enumerate() {
            let stamp = b as u32 + 1;
            // One row per fill; a draw of 0 is a failed or stale fetch.
            let rows: Vec<Vec<f32>> = fills
                .iter()
                .map(|&(t, f, _)| vec![f32::from(t) * 1000.0 + f as f32; 8])
                .collect();
            let stream = fills.iter().zip(&rows).map(|(&(table, feature, draw), row)| Fill {
                id: (table, feature),
                key: codec.encode(table, feature),
                row,
                version: 0,
                fetched: draw != 0,
            });
            admitted.clear();
            batched.upsert_batch(stream.clone(), stamp, Some(&codec), &mut admitted);
            let mut per_key_admitted = Vec::new();
            for fill in stream.filter(|fill| fill.fetched) {
                let (table, feature) = fill.id;
                if per_key.admit() {
                    let (loc, _) = per_key.insert_value(table, fill.key, fill.row, stamp);
                    per_key_admitted.extend(loc);
                } else {
                    per_key.insert_dram_ptr(table, feature, fill.key, stamp);
                }
            }
            if per_key.needs_eviction() {
                per_key.evict_pass_with(|k| codec.decode(FlatKey(k)));
            }
            prop_assert_eq!(&admitted, &per_key_admitted, "batch {}: admitted slots", b);
            prop_assert_eq!(
                batched.lookup_batch(&probe_keys, stamp),
                per_key.lookup_batch(&probe_keys, stamp),
                "batch {}: probe answers", b
            );
            prop_assert_eq!(batched.len(), per_key.len());
            prop_assert_eq!(batched.unified_count(), per_key.unified_count());
            prop_assert_eq!(batched.evict_passes(), per_key.evict_passes());
            prop_assert_eq!(batched.live_value_count(), per_key.live_value_count());
            batched.end_batch();
            per_key.end_batch();
        }
    }

    #[test]
    fn utilization_is_always_a_fraction(
        inserts in 1usize..300,
        cache_slots in 4u64..128,
    ) {
        let ds = spec::synthetic(2, 1_000, 8, -1.2);
        let corpora: Vec<u64> = ds.tables.iter().map(|t| t.corpus).collect();
        let codec = SizeAwareCodec::new(24, &corpora);
        let mut cache = FlatCache::new(&ds, 8 * 4 * cache_slots, FlatCacheConfig::default());
        for i in 0..inserts {
            let t = (i % 2) as u16;
            let f = (i as u64 * 17) % 1_000;
            let v = vec![i as f32; 8];
            let _ = cache.insert_value(t, codec.encode(t, f), &v, i as u32);
            let u = cache.effective_utilization();
            prop_assert!((0.0..=1.5).contains(&u), "utilization {u}");
            if cache.needs_eviction() {
                cache.evict_pass_with(|_| None);
                cache.end_batch();
                cache.end_batch();
            }
        }
    }
}

#[test]
fn collision_overwrite_keeps_latest_value() {
    // Two features forced onto the same flat key: the cache serves the
    // most recently inserted value for both — exactly the accuracy loss
    // the coding experiment quantifies, but never a torn read.
    let ds = spec::synthetic(1, 1_000, 8, -1.2);
    let codec = SizeAwareCodec::new(4, &[1_000]); // 16 slots: collisions certain
    let mut cache = FlatCache::new(
        &ds,
        1 << 14,
        FlatCacheConfig {
            admission_probability: 1.0,
            ..FlatCacheConfig::default()
        },
    );
    // Find two features sharing a key.
    let mut by_key: HashMap<u64, u64> = HashMap::new();
    let (f1, f2) = (0..1_000u64)
        .find_map(|f| {
            let k = codec.encode(0, f).0;
            if let Some(&prev) = by_key.get(&k) {
                Some((prev, f))
            } else {
                by_key.insert(k, f);
                None
            }
        })
        .expect("4-bit keys must collide in 1000 features");
    let k1 = codec.encode(0, f1);
    let k2 = codec.encode(0, f2);
    assert_eq!(k1, k2);
    cache.insert_value(0, k1, &[1.0; 8], 1);
    cache.insert_value(0, k2, &[2.0; 8], 2);
    match cache.lookup_batch(&[k1], 3)[0].0 {
        fleche_core::CacheAnswer::Hit { class, slot } => {
            assert_eq!(cache.read_hit(class, slot), &[2.0; 8]);
        }
        other => panic!("expected hit, got {other:?}"),
    }
    assert_eq!(cache.len(), 1, "colliding keys share one entry");
}
