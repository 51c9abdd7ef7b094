//! Property tests over the full query workflow: for random dataset shapes,
//! cache sizes, feature toggles, and batch sizes, every Fleche variant
//! must serve byte-exact rows, keep its counters consistent, and advance
//! simulated time monotonically.

use fleche_core::{FlatCacheConfig, FlecheConfig, FlecheSystem};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu};
use fleche_store::api::{EmbeddingCacheSystem, QueryOutput};
use fleche_store::{CpuStore, Deduped};
use fleche_workload::{spec, Batch, TraceGenerator};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    n_tables: usize,
    corpus: u64,
    dim: u32,
    cache_fraction: f64,
    fusion: bool,
    decoupling: bool,
    unified_index: bool,
    admission: f64,
    batch: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        1usize..10,
        50u64..3_000,
        prop::sample::select(vec![4u32, 8, 16, 32]),
        0.01f64..0.4,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0.1f64..1.0,
        1usize..96,
    )
        .prop_map(
            |(
                n_tables,
                corpus,
                dim,
                cache_fraction,
                fusion,
                decoupling,
                unified_index,
                admission,
                batch,
            )| {
                Scenario {
                    n_tables,
                    corpus,
                    dim,
                    cache_fraction,
                    fusion,
                    decoupling,
                    unified_index,
                    admission,
                    batch,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_configuration_serves_exact_rows(sc in scenario()) {
        let ds = spec::synthetic(sc.n_tables, sc.corpus, sc.dim, -1.2);
        let truth = CpuStore::new(&ds, DramSpec::xeon_6252());
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let mut sys = FlecheSystem::new(
            &ds,
            store,
            FlecheConfig {
                cache_fraction: sc.cache_fraction,
                fusion: sc.fusion,
                decoupling: sc.decoupling,
                unified_index: sc.unified_index,
                cache: FlatCacheConfig {
                    admission_probability: sc.admission,
                    ..FlatCacheConfig::default()
                },
                ..FlecheConfig::full(sc.cache_fraction)
            },
        );
        let mut gpu = Gpu::new(DeviceSpec::t4());
        let mut gen = TraceGenerator::new(&ds);
        let mut last = gpu.now();
        for _ in 0..3 {
            let batch = gen.next_batch(sc.batch);
            let out = sys.query_batch(&mut gpu, &batch);
            // Counters partition the unique keys.
            let s = out.stats;
            prop_assert_eq!(s.hits + s.unified_hits + s.misses, s.unique_keys);
            // Rows are byte-exact.
            let mut k = 0;
            for (t, ids) in batch.table_ids.iter().enumerate() {
                for &id in ids {
                    prop_assert_eq!(&out.rows[k], &truth.read(t as u16, id));
                    k += 1;
                }
            }
            // Simulated time is monotone and finite.
            prop_assert!(gpu.now() > last);
            prop_assert!(gpu.now().is_valid());
            last = gpu.now();
            // Cache structural invariants.
            let u = sys.cache().effective_utilization();
            prop_assert!((0.0..=1.5).contains(&u), "utilization {}", u);
        }
    }

    #[test]
    fn phase_times_are_finite_and_nonnegative(sc in scenario()) {
        let ds = spec::synthetic(sc.n_tables, sc.corpus, sc.dim, -1.2);
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let mut sys = FlecheSystem::new(
            &ds,
            store,
            FlecheConfig {
                cache_fraction: sc.cache_fraction,
                fusion: sc.fusion,
                decoupling: sc.decoupling,
                unified_index: sc.unified_index,
                ..FlecheConfig::full(sc.cache_fraction)
            },
        );
        let mut gpu = Gpu::new(DeviceSpec::t4());
        let mut gen = TraceGenerator::new(&ds);
        let out = sys.query_batch(&mut gpu, &gen.next_batch(sc.batch));
        let p = out.stats.phases;
        for (name, v) in [
            ("cache_index", p.cache_index),
            ("cache_copy", p.cache_copy),
            ("dram_index", p.dram_index),
            ("dram_payload", p.dram_payload),
            ("other", p.other),
        ] {
            prop_assert!(v.is_valid(), "{} invalid: {}", name, v);
        }
        prop_assert!(p.total().as_ns() <= out.stats.wall.as_ns() * 2.0 + 1.0);
    }
}

/// Ids that collide on purpose (a dozen small values), sit at the very top
/// of the `u64` range, or are arbitrary.
fn dedup_id() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..12, (0u64..9).prop_map(|d| u64::MAX - d), any::<u64>(),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The open-addressing dedup equals a naive ordered-map reference on
    /// everything callers read — `unique` (first-appearance order),
    /// `inverse`, `per_table_counts` — over multi-hot duplicates, empty
    /// tables and ids at the top of the `u64` range; and `unique` is
    /// table-contiguous in ascending table order, which is what lets the
    /// query path treat table groups as runs of it.
    #[test]
    fn dedup_matches_ordered_map_reference(
        table_ids in prop::collection::vec(prop::collection::vec(dedup_id(), 0..40), 0..7),
    ) {
        use std::collections::BTreeMap;
        let batch = Batch::from_table_ids(table_ids);
        let d = Deduped::from_batch(&batch);
        let mut first_seen: BTreeMap<(u16, u64), u32> = BTreeMap::new();
        let mut unique = Vec::new();
        let mut inverse = Vec::new();
        for (t, ids) in batch.table_ids.iter().enumerate() {
            for &id in ids {
                let key = (t as u16, id);
                let next = unique.len() as u32;
                let idx = *first_seen.entry(key).or_insert(next);
                if idx == next {
                    unique.push(key);
                }
                inverse.push(idx);
            }
        }
        let counts: Vec<u32> = batch.table_ids.iter().map(|ids| ids.len() as u32).collect();
        prop_assert_eq!(&d.unique, &unique);
        prop_assert_eq!(&d.inverse, &inverse);
        prop_assert_eq!(&d.per_table_counts, &counts);
        prop_assert!(
            d.unique.windows(2).all(|w| w[0].0 <= w[1].0),
            "unique must be table-contiguous, ascending"
        );
    }
}

/// One step of a lending scenario: serve a batch of `size` samples, then
/// drop outputs (the `pick`-th live one each time, on another thread when
/// `on_thread`) until at most `alive` stay alive.
#[derive(Debug, Clone)]
struct LendStep {
    size: usize,
    alive: usize,
    pick: usize,
    on_thread: bool,
}

fn lend_steps() -> impl Strategy<Value = Vec<LendStep>> {
    prop::collection::vec(
        (0usize..40, 1usize..4, any::<usize>(), any::<bool>()).prop_map(
            |(size, alive, pick, on_thread)| LendStep {
                size,
                alive,
                pick,
                on_thread,
            },
        ),
        2..14,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The system lends its output matrix and gets it back when an output
    /// is dropped. Whatever is kept alive, dropped in whatever order or on
    /// whatever thread, a live output's rows never change under it: later
    /// batches must never write into a matrix still lent out.
    #[test]
    fn a_lent_matrix_is_never_shared(steps in lend_steps(), cache_fraction in 0.02f64..0.3) {
        let mut ds = spec::synthetic(4, 400, 8, -1.2);
        for (table, dim) in ds.tables.iter_mut().zip([4, 16, 8, 32]) {
            table.dim = dim;
        }
        let truth = CpuStore::new(&ds, DramSpec::xeon_6252());
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let mut sys = FlecheSystem::new(&ds, store, FlecheConfig::full(cache_fraction));
        let mut gpu = Gpu::new(DeviceSpec::t4());
        let mut gen = TraceGenerator::new(&ds);
        let mut live: Vec<(Batch, QueryOutput)> = Vec::new();
        for step in &steps {
            let batch = gen.next_batch(step.size);
            let out = sys.query_batch(&mut gpu, &batch);
            live.push((batch, out));
            while live.len() > step.alive {
                let (_, out) = live.remove(step.pick % live.len());
                if step.on_thread {
                    std::thread::spawn(move || drop(out))
                        .join()
                        .expect("dropping an output does not panic");
                }
            }
            for (batch, out) in &live {
                prop_assert_eq!(out.rows.len(), batch.total_ids());
                for ((t, id), row) in batch.iter_accesses().zip(&out.rows) {
                    prop_assert_eq!(row, &truth.read(t, id));
                }
            }
        }
    }
}

#[test]
fn empty_batch_is_harmless() {
    let ds = spec::synthetic(4, 500, 8, -1.2);
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.05));
    let mut gpu = Gpu::new(DeviceSpec::t4());
    let mut gen = TraceGenerator::new(&ds);
    let out = sys.query_batch(&mut gpu, &gen.next_batch(0));
    assert!(out.rows.is_empty());
    assert_eq!(out.stats.unique_keys, 0);
    // And a normal batch still works afterwards.
    let out = sys.query_batch(&mut gpu, &gen.next_batch(8));
    assert_eq!(out.rows.len(), 8 * 4);
}

#[test]
fn single_sample_batches_work() {
    let ds = spec::synthetic(3, 200, 4, -1.0);
    let truth = CpuStore::new(&ds, DramSpec::xeon_6252());
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.1));
    let mut gpu = Gpu::new(DeviceSpec::t4());
    let mut gen = TraceGenerator::new(&ds);
    for _ in 0..20 {
        let batch = gen.next_batch(1);
        let out = sys.query_batch(&mut gpu, &batch);
        let mut k = 0;
        for (t, ids) in batch.table_ids.iter().enumerate() {
            for &id in ids {
                assert_eq!(out.rows[k], truth.read(t as u16, id));
                k += 1;
            }
        }
    }
}
