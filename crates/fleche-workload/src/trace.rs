//! Trace generation and batching.
//!
//! A trace is a sequence of inference samples; each sample draws IDs from
//! every embedding table (one per one-hot field, several per multi-hot
//! field). The engine consumes traces in batches, mirroring how an
//! inference server aggregates requests.

use crate::dynamics::TraceDynamics;
use crate::spec::{DatasetSpec, TableSpec};
use crate::zipf::PowerLaw;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One inference sample: the IDs drawn from each table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// `per_table[t]` holds the IDs this sample reads from table `t`
    /// (length = that table's `multi_hot`).
    pub per_table: Vec<Vec<u64>>,
}

/// A batch of samples, stored flattened per table (what the cache query
/// path consumes); each id is held once.
#[derive(Clone, Debug)]
pub struct Batch {
    /// `table_ids[t]` is the concatenation of every sample's IDs for table
    /// `t`, in sample order: sample `s` owns the `multi_hot`-wide slice
    /// starting at `s * multi_hot`.
    pub table_ids: Vec<Vec<u64>>,
    samples: usize,
}

impl Batch {
    /// A synthetic batch over explicit per-table id lists (warm-up
    /// prefetches, shard splits, tests). It has no sample structure, so its
    /// [`Batch::len`] is 0.
    pub fn from_table_ids(table_ids: Vec<Vec<u64>>) -> Batch {
        Batch {
            table_ids,
            samples: 0,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples
    }

    /// True when the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Total IDs across all tables.
    pub fn total_ids(&self) -> usize {
        self.table_ids.iter().map(Vec::len).sum()
    }

    /// Iterates `(table, id)` pairs over the whole batch.
    pub fn iter_accesses(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.table_ids
            .iter()
            .enumerate()
            .flat_map(|(t, ids)| ids.iter().map(move |&id| (t as u16, id)))
    }
}

/// A deterministic, lazily-generated trace over a dataset spec.
///
/// A moving hot set is a [`crate::DiurnalSpec`] rotation: each phase
/// re-seeds the rank-to-ID scattering of every table, and a cycle of
/// `u64::MAX` phases never returns to an earlier one.
pub struct TraceGenerator {
    spec: DatasetSpec,
    samplers: Vec<PowerLaw>,
    rng: StdRng,
    produced: u64,
    dynamics: TraceDynamics,
    diurnal_phase: u64,
}

impl TraceGenerator {
    /// Creates a generator for `spec` starting at its canonical seed.
    pub fn new(spec: &DatasetSpec) -> TraceGenerator {
        TraceGenerator {
            spec: spec.clone(),
            samplers: Self::make_samplers(spec),
            rng: StdRng::seed_from_u64(spec.seed),
            produced: 0,
            dynamics: TraceDynamics::none(),
            diurnal_phase: 0,
        }
    }

    /// Like [`TraceGenerator::new`] with non-stationary
    /// [`TraceDynamics`] applied on top of the base popularity. With all
    /// dynamics off this is byte-identical to [`TraceGenerator::new`]
    /// (the RNG stream is consumed in the same order).
    ///
    /// # Panics
    ///
    /// Panics if a dynamics knob is out of range
    /// (see [`TraceDynamics::validate`]).
    pub fn with_dynamics(spec: &DatasetSpec, dynamics: TraceDynamics) -> TraceGenerator {
        dynamics.validate();
        let mut gen = TraceGenerator::new(spec);
        gen.dynamics = dynamics;
        gen
    }

    /// One sampler per table, scattered for phase 0.
    fn make_samplers(spec: &DatasetSpec) -> Vec<PowerLaw> {
        spec.tables
            .iter()
            .enumerate()
            .map(|(i, t)| PowerLaw::new(t.corpus, t.alpha, Self::scatter_seed(spec, i, 0)))
            .collect()
    }

    /// The seed of table `table`'s rank-to-ID scattering in diurnal `phase`.
    fn scatter_seed(spec: &DatasetSpec, table: usize, phase: u64) -> u64 {
        spec.seed
            .wrapping_add(table as u64 * 7919)
            .wrapping_add(phase.wrapping_mul(104_729))
    }

    /// The spec this trace is drawn from.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Samples generated so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Draws the next sample, handing each `(table, id)` to `sink` in table
    /// order. The one place the RNG is consumed, so a trace is the same ids
    /// whether it is read sample by sample or batch by batch.
    fn draw(&mut self, mut sink: impl FnMut(usize, u64)) {
        if let Some(d) = self.dynamics.diurnal {
            let phase = d.phase_at(self.produced);
            if phase != self.diurnal_phase {
                self.diurnal_phase = phase;
                // Phase 0 is the base popularity, so the cycle genuinely
                // returns to it. A phase moves only the scattering; the rank
                // tables stay.
                for (i, sampler) in self.samplers.iter_mut().enumerate() {
                    sampler.reseed(Self::scatter_seed(&self.spec, i, phase));
                }
            }
        }
        let crowd = self
            .dynamics
            .hot_churn
            .filter(|hc| hc.active_at(self.produced));
        self.produced += 1;
        for (ti, t) in self.spec.tables.iter().enumerate() {
            let sampler = &self.samplers[ti];
            let corpus = sampler.corpus();
            for _ in 0..t.multi_hot {
                let mut id = sampler.sample(&mut self.rng);
                if let Some(hc) = &crowd {
                    if self.rng.gen::<f64>() < hc.crowd_fraction {
                        let k = self.rng.gen_range(0..hc.crowd_size);
                        id = hc.crowd_id(ti, k, corpus);
                    }
                }
                sink(ti, id);
            }
        }
    }

    /// One empty id list per table, each sized for `samples` samples.
    fn id_lists(&self, samples: usize) -> Vec<Vec<u64>> {
        let sized = |t: &TableSpec| Vec::with_capacity(samples * t.multi_hot as usize);
        self.spec.tables.iter().map(sized).collect()
    }

    /// Generates the next sample.
    pub fn next_sample(&mut self) -> Sample {
        let mut per_table = self.id_lists(1);
        self.draw(|t, id| per_table[t].push(id));
        Sample { per_table }
    }

    /// Generates the next batch of `batch_size` samples.
    pub fn next_batch(&mut self, batch_size: usize) -> Batch {
        let mut table_ids = self.id_lists(batch_size);
        for _ in 0..batch_size {
            self.draw(|t, id| table_ids[t].push(id));
        }
        Batch {
            table_ids,
            samples: batch_size,
        }
    }

    /// Generates `n` batches (convenience for warm-up/measure loops).
    pub fn batches(&mut self, n: usize, batch_size: usize) -> Vec<Batch> {
        (0..n).map(|_| self.next_batch(batch_size)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use std::collections::HashSet;

    #[test]
    fn sample_shape_matches_spec() {
        let ds = spec::avazu();
        let mut gen = TraceGenerator::new(&ds);
        let s = gen.next_sample();
        assert_eq!(s.per_table.len(), ds.table_count());
        for (ids, t) in s.per_table.iter().zip(&ds.tables) {
            assert_eq!(ids.len(), t.multi_hot as usize);
            for &id in ids {
                assert!(id < t.corpus);
            }
        }
    }

    /// `next_batch(n)` is `n × next_sample()` flattened table-major — same
    /// ids, same RNG order — with and without dynamics.
    #[test]
    fn batch_flattening_is_consistent() {
        let mut ds = spec::synthetic(4, 1000, 32, -1.2);
        ds.tables[2].multi_hot = 3;
        let dynamics = crate::TraceDynamics {
            hot_churn: Some(crate::HotChurnSpec {
                start: 10,
                duration: 40,
                crowd_fraction: 0.6,
                crowd_size: 12,
                salt: 9,
            }),
            diurnal: Some(crate::DiurnalSpec {
                period: 25,
                phases: 4,
            }),
        };
        for dynamics in [crate::TraceDynamics::none(), dynamics] {
            let mut batched = TraceGenerator::with_dynamics(&ds, dynamics);
            let mut sampled = TraceGenerator::with_dynamics(&ds, dynamics);
            for _ in 0..5 {
                let b = batched.next_batch(16);
                assert_eq!(b.len(), 16);
                assert_eq!(b.total_ids(), 16 * 6);
                assert_eq!(b.iter_accesses().count(), 16 * 6);
                let mut flat = vec![Vec::new(); 4];
                for _ in 0..16 {
                    for (t, ids) in sampled.next_sample().per_table.iter().enumerate() {
                        flat[t].extend_from_slice(ids);
                    }
                }
                assert_eq!(flat, b.table_ids);
            }
        }
    }

    #[test]
    fn synthetic_batches_have_no_sample_structure() {
        let b = Batch::from_table_ids(vec![vec![7, 7, 3], vec![9]]);
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
        assert_eq!(b.total_ids(), 4);
    }

    #[test]
    fn generation_is_deterministic() {
        let ds = spec::criteo_kaggle();
        let mut a = TraceGenerator::new(&ds);
        let mut b = TraceGenerator::new(&ds);
        for _ in 0..10 {
            assert_eq!(a.next_sample(), b.next_sample());
        }
    }

    #[test]
    fn traces_are_skewed() {
        let ds = spec::synthetic(1, 100_000, 32, -1.2);
        let mut gen = TraceGenerator::new(&ds);
        let b = gen.next_batch(20_000);
        let distinct: HashSet<u64> = b.table_ids[0].iter().copied().collect();
        // Heavy reuse: far fewer distinct IDs than draws.
        assert!(distinct.len() < 15_000, "distinct={}", distinct.len());
    }

    /// A diurnal rotation whose cycle never repeats: the hot set moves
    /// every `period` samples and does not come back.
    fn drifting(ds: &DatasetSpec, period: u64) -> TraceGenerator {
        let dynamics = crate::TraceDynamics {
            diurnal: Some(crate::DiurnalSpec {
                period,
                phases: u64::MAX,
            }),
            ..crate::TraceDynamics::none()
        };
        TraceGenerator::with_dynamics(ds, dynamics)
    }

    #[test]
    fn drift_moves_the_hot_set() {
        let ds = spec::synthetic(1, 100_000, 32, -1.6);
        let mut gen = drifting(&ds, 5_000);
        let before: HashSet<u64> = gen.next_batch(5_000).table_ids[0].iter().copied().collect();
        let after: HashSet<u64> = gen.next_batch(5_000).table_ids[0].iter().copied().collect();
        let inter = before.intersection(&after).count();
        let union = before.union(&after).count();
        assert!(
            (inter as f64) / (union as f64) < 0.5,
            "hot sets should diverge after drift: {inter}/{union}"
        );
    }

    /// FNV-1a over every id of `gen`'s next `batches` batches of 128.
    fn digest(gen: &mut TraceGenerator, batches: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..batches {
            for &id in gen.next_batch(128).table_ids.iter().flatten() {
                h = (h ^ id).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The ids of 16 avazu batches whose hot set moves every 512 samples:
    /// the ids of a rotating trace are pinned, not just their statistics.
    #[test]
    fn rotating_trace_ids_are_pinned() {
        let mut gen = drifting(&spec::avazu(), 512);
        assert_eq!(digest(&mut gen, 16), 0xa74c_e3c6_0f14_fe2a);
    }

    /// The ids of each benchmark dataset's first batches, and how many of
    /// its tables map rank to ID by the offset: between them the three
    /// specs draw through both arms of the permutation.
    #[test]
    fn first_batches_of_each_dataset_are_pinned() {
        let got = [spec::avazu(), spec::criteo_kaggle(), spec::criteo_tb()].map(|ds| {
            let mut gen = TraceGenerator::new(&ds);
            let offsets = gen.samplers.iter().filter(|p| !p.is_coprime()).count();
            (offsets, digest(&mut gen, 4))
        });
        assert_eq!(
            got,
            [
                (7, 0xea80_affc_65dd_9a5f),
                (5, 0xe7c0_5e6c_0157_512c),
                (4, 0xd0ff_99e5_3089_4dcd)
            ]
        );
    }

    #[test]
    fn no_dynamics_matches_plain_generator_bitwise() {
        let ds = spec::criteo_kaggle();
        let mut plain = TraceGenerator::new(&ds);
        let mut dynd = TraceGenerator::with_dynamics(&ds, crate::TraceDynamics::none());
        for _ in 0..200 {
            assert_eq!(plain.next_sample(), dynd.next_sample());
        }
    }

    #[test]
    fn dynamics_are_deterministic() {
        let ds = spec::synthetic(4, 50_000, 16, -1.2);
        let dynamics = crate::TraceDynamics {
            hot_churn: Some(crate::HotChurnSpec {
                start: 100,
                duration: 400,
                crowd_fraction: 0.6,
                crowd_size: 12,
                salt: 9,
            }),
            diurnal: Some(crate::DiurnalSpec {
                period: 250,
                phases: 4,
            }),
        };
        let mut a = TraceGenerator::with_dynamics(&ds, dynamics);
        let mut b = TraceGenerator::with_dynamics(&ds, dynamics);
        for _ in 0..1_000 {
            assert_eq!(a.next_sample(), b.next_sample());
        }
    }

    #[test]
    fn hot_churn_concentrates_draws_on_the_crowd() {
        let ds = spec::synthetic(1, 100_000, 32, -1.2);
        let hc = crate::HotChurnSpec {
            start: 1_000,
            duration: 2_000,
            crowd_fraction: 0.8,
            crowd_size: 8,
            salt: 3,
        };
        let mut gen = TraceGenerator::with_dynamics(
            &ds,
            crate::TraceDynamics {
                hot_churn: Some(hc),
                ..crate::TraceDynamics::none()
            },
        );
        let crowd: HashSet<u64> = (0..8).map(|k| hc.crowd_id(0, k, 100_000)).collect();
        let share = |b: &Batch| {
            let hits = b.table_ids[0]
                .iter()
                .filter(|id| crowd.contains(id))
                .count();
            hits as f64 / b.table_ids[0].len() as f64
        };
        let before = gen.next_batch(1_000);
        let during = gen.next_batch(2_000);
        let after = gen.next_batch(1_000);
        assert!(share(&before) < 0.05, "before: {}", share(&before));
        assert!(share(&during) > 0.7, "during: {}", share(&during));
        assert!(share(&after) < 0.05, "after: {}", share(&after));
    }

    #[test]
    fn diurnal_rotation_returns_to_phase_zero() {
        let ds = spec::synthetic(1, 100_000, 32, -1.6);
        let mk = || {
            TraceGenerator::with_dynamics(
                &ds,
                crate::TraceDynamics {
                    diurnal: Some(crate::DiurnalSpec {
                        period: 5_000,
                        phases: 2,
                    }),
                    ..crate::TraceDynamics::none()
                },
            )
        };
        let mut gen = mk();
        let hot = |b: &Batch| -> HashSet<u64> { b.table_ids[0].iter().copied().collect() };
        let p0 = hot(&gen.next_batch(5_000));
        let p1 = hot(&gen.next_batch(5_000));
        let p0_again = hot(&gen.next_batch(5_000));
        let jac = |a: &HashSet<u64>, b: &HashSet<u64>| {
            a.intersection(b).count() as f64 / a.union(b).count() as f64
        };
        assert!(jac(&p0, &p1) < 0.5, "phases differ: {}", jac(&p0, &p1));
        assert!(
            jac(&p0, &p0_again) > jac(&p0, &p1),
            "cycle must return toward phase-0 popularity"
        );
    }

    #[test]
    fn empty_batch() {
        let ds = spec::synthetic(2, 100, 8, -1.0);
        let mut gen = TraceGenerator::new(&ds);
        let b = gen.next_batch(0);
        assert!(b.is_empty());
        assert_eq!(b.total_ids(), 0);
    }

    #[test]
    fn produced_counter_advances() {
        let ds = spec::synthetic(2, 100, 8, -1.0);
        let mut gen = TraceGenerator::new(&ds);
        gen.batches(3, 4);
        assert_eq!(gen.produced(), 12);
    }
}
