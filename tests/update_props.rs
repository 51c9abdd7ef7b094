//! Property-based tests on the online-update pipeline. The version ledger
//! answers exactly as a `BTreeMap` reference does under any commit/get
//! stream. At the flat-cache layer: per-key slot versions are monotone
//! under arbitrary
//! apply/evict/restore interleavings, duplicated and reordered pushes are
//! idempotent (order never changes the final state), a base + delta chain
//! recovers every key to the chain's newest version, restoring the same
//! chain twice is idempotent, and a chain with any single byte of any
//! image flipped is always rejected before the cache is touched. At the
//! system layer: every staged push is accounted for after every batch,
//! through outages, lossy and duplicated channels, staleness demotions and
//! breaker-degraded batches.

use std::collections::BTreeMap;

use fleche_chaos::{BreakerConfig, FaultPlan, StalenessConfig};
use fleche_coding::{FlatKeyCodec, SizeAwareCodec};
use fleche_core::{
    CacheAnswer, CheckpointChain, Fill, FlatCache, FlatCacheConfig, FlecheConfig, FlecheSystem,
    SlotUpdate,
};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu, Ns};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::{versioned_embedding_value, CpuStore, UpdatePush, UpdateStream, VersionLedger};
use fleche_workload::{spec, TraceGenerator, WorkloadStats};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const DIM: u32 = 8;

fn codec() -> SizeAwareCodec {
    let ds = spec::synthetic(4, 500, DIM, -1.2);
    let corpora: Vec<u64> = ds.tables.iter().map(|t| t.corpus).collect();
    SizeAwareCodec::new(24, &corpora)
}

fn value_at(table: u16, id: u64, version: u64) -> Vec<f32> {
    let mut v = vec![0.0; DIM as usize];
    versioned_embedding_value(table, id, version, &mut v);
    v
}

/// Fills `(table, id)` at `version` through the cache's fill, as the miss
/// path does: the row carries the version and its slot is stamped with it.
/// Returns the admitted slot.
fn fill_at(
    cache: &mut FlatCache,
    table: u16,
    id: u64,
    version: u64,
    stamp: u32,
) -> Option<(u16, u32)> {
    let row = value_at(table, id, version);
    let fill = Fill {
        id: (table, id),
        key: codec().encode(table, id),
        row: &row,
        version,
        fetched: true,
    };
    let mut admitted = Vec::new();
    cache.upsert_batch([fill], stamp, None::<&SizeAwareCodec>, &mut admitted);
    admitted.pop()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Distinct keys over a small corpus so interleavings collide on purpose.
fn keys_strategy(max: usize) -> impl Strategy<Value = Vec<(u16, u64)>> {
    prop::collection::vec((0u16..4, 0u64..200), 1..max).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

/// One step of the churn interleaving: `(op kind, key selector, version
/// increment)`.
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
    prop::collection::vec((0u8..4, any::<usize>(), 1u64..4), 1..80)
}

/// Ledger keys: a few small tables and ids so streams repeat keys, and the
/// edges of both ranges (`u16::MAX`, ids near `u64::MAX`).
fn ledger_key() -> impl Strategy<Value = (u16, u64)> {
    let table = prop_oneof![0u16..3, Just(u16::MAX), any::<u16>()];
    let id = prop_oneof![
        0u64..40,
        (u64::MAX - 40)..u64::MAX,
        Just(u64::MAX),
        any::<u64>()
    ];
    (table, id)
}

/// Pushed versions: mostly small, so duplicates and reorders are common,
/// with 0 and the top of the range.
fn ledger_version() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..6, any::<u64>(), Just(u64::MAX)]
}

/// What [`VersionLedger`] promises, over a `BTreeMap`: a commit inserts its
/// key (at version 0 if need be) and max-merges.
#[derive(Default)]
struct LedgerReference {
    versions: BTreeMap<(u16, u64), u64>,
    commits: u64,
}

impl LedgerReference {
    fn commit(&mut self, push: &UpdatePush) -> bool {
        self.commits += 1;
        let v = self.versions.entry((push.table, push.id)).or_insert(0);
        let advanced = push.version > *v;
        *v = (*v).max(push.version);
        advanced
    }

    fn get(&self, table: u16, id: u64) -> u64 {
        self.versions.get(&(table, id)).copied().unwrap_or(0)
    }

    fn max_version(&self) -> u64 {
        self.versions.values().copied().max().unwrap_or(0)
    }
}

/// A cache holding `keys` at version 1, checkpointed at epoch 3, then two
/// deltas cut under an update stream: round `r` pushes every key whose
/// index is a multiple of `r + 1` (key 0 always, so no delta is empty).
/// Returns the chain and each key's final version.
fn chain_under_updates(
    keys: &[(u16, u64)],
    config: FlatCacheConfig,
) -> (CheckpointChain, BTreeMap<(u16, u64), u64>) {
    let ds = spec::synthetic(4, 500, DIM, -1.2);
    let codec = codec();
    let mut cache = FlatCache::new(&ds, u64::from(DIM) * 4 * 1024, config);
    let mut versions = BTreeMap::new();
    for (i, &(t, f)) in keys.iter().enumerate() {
        fill_at(&mut cache, t, f, 1, i as u32);
        versions.insert((t, f), 1);
    }
    let (mut chain, _) = cache.checkpoint(3);
    for round in 0..2u64 {
        let burst: Vec<SlotUpdate> = keys
            .iter()
            .step_by(round as usize + 1)
            .map(|&(t, f)| {
                let v = 2 + round;
                versions.insert((t, f), v);
                SlotUpdate {
                    key: codec.encode(t, f),
                    version: v,
                    value: value_at(t, f, v),
                }
            })
            .collect();
        cache.apply_updates(&burst);
        cache.delta_checkpoint(&mut chain);
    }
    (chain, versions)
}

/// One step of a serving run under an update stream. Every burst is
/// hot-biased (drawn from the keys served so far) and committed to the
/// ledger; the variants differ in what reaches the lossy cache channel.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Stage every push of an `n`-push burst.
    Push(usize),
    /// Stage none of them: an update outage, so resident keys fall behind.
    Outage(usize),
    /// Stage only every `k`-th push: the channel drops the rest.
    Lossy(usize, usize),
    /// Stage the burst twice, the copy reversed: duplicated and reordered.
    Duplicated(usize),
    /// Serve one batch.
    Batch,
    /// Serve `n` batches with every kernel launch failing, a full burst
    /// staged before each: the breaker opens and degraded batches carry
    /// staged pushes past boundaries they do not close.
    Faults(usize),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1usize..40).prop_map(Step::Push),
        (1usize..40).prop_map(Step::Outage),
        (1usize..40, 2usize..4).prop_map(|(n, k)| Step::Lossy(n, k)),
        (1usize..40).prop_map(Step::Duplicated),
        Just(Step::Batch),
        Just(Step::Batch),
        (4usize..8).prop_map(Step::Faults),
    ]
}

/// A system with a staleness bound and a breaker, its device and trace,
/// and the test's own tally: pushes staged, and the worst lag seen.
struct UpdateRun {
    sys: FlecheSystem,
    gpu: Gpu,
    gen: TraceGenerator,
    stream: UpdateStream,
    served: WorkloadStats,
    staged: u64,
    max_lag: u64,
}

impl UpdateRun {
    fn new() -> UpdateRun {
        let ds = spec::synthetic(4, 1_500, DIM, -1.2);
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let config = FlecheConfig {
            cache: FlatCacheConfig {
                admission_probability: 1.0,
                ..FlatCacheConfig::default()
            },
            breaker: Some(BreakerConfig {
                failure_threshold: 0.5,
                min_samples: 4,
                window: 8,
                cooldown: Ns::from_us(200.0),
                probes_to_close: 2,
            }),
            staleness: Some(StalenessConfig {
                max_lag: 2,
                resume_lag: 1,
            }),
            ..FlecheConfig::full(0.1)
        };
        UpdateRun {
            sys: FlecheSystem::new(&ds, store, config),
            gpu: Gpu::new(DeviceSpec::t4()),
            gen: TraceGenerator::new(&ds),
            stream: UpdateStream::new(&ds, 5),
            served: WorkloadStats::new(),
            staged: 0,
            max_lag: 0,
        }
    }

    /// Commits a hot-biased burst of `n` pushes and returns it.
    fn commit(&mut self, n: usize) -> Vec<UpdatePush> {
        let burst = self.stream.next_burst_from(&self.served.hottest(48), n);
        self.sys.commit_updates(&mut self.gpu, &burst);
        burst
    }

    fn stage(&mut self, pushes: &[UpdatePush]) {
        self.sys.push_updates(&mut self.gpu, pushes);
        self.staged += pushes.len() as u64;
    }

    /// Serves one batch, then checks the update accounting: every staged
    /// push and every self-enqueued refresh is applied, superseded, absent
    /// or still pending; each demotion enqueued one refresh; a stale serve
    /// is a sampled hit; the raw lag high-water mark never falls.
    fn batch(&mut self) -> Result<(), TestCaseError> {
        let batch = self.gen.next_batch(64);
        self.served.observe(&batch);
        self.sys.query_batch(&mut self.gpu, &batch);
        let st = self.sys.staleness_stats();
        let pending = self.sys.updates().pending_len() as u64;
        prop_assert_eq!(
            st.updates_applied + st.updates_superseded + st.updates_absent + pending,
            self.staged + st.refreshes,
            "push conservation ({:?})",
            st
        );
        prop_assert_eq!(st.refreshes, st.demoted);
        prop_assert!(st.stale_serves <= st.hits_sampled, "{:?}", st);
        prop_assert!(st.max_lag >= self.max_lag, "max lag fell: {:?}", st);
        self.max_lag = st.max_lag;
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat ledger against the `BTreeMap` reference, op by op, over a
    /// key pool large enough to double the table several times: every
    /// commit's answer, every get (of pool keys and of keys never
    /// committed), the key count, the commit count and the max version.
    #[test]
    fn version_ledger_matches_btreemap_reference(
        keys in prop::collection::vec(ledger_key(), 64..320),
        ops in prop::collection::vec((0u8..3, any::<usize>(), ledger_version()), 200..1200),
        strangers in prop::collection::vec(ledger_key(), 1..16),
    ) {
        let mut ledger = VersionLedger::new();
        let mut reference = LedgerReference::default();
        for (kind, sel, version) in ops {
            let (table, id) = keys[sel % keys.len()];
            if kind == 0 {
                prop_assert_eq!(ledger.get(table, id), reference.get(table, id));
            } else {
                let push = UpdatePush { table, id, version };
                prop_assert_eq!(ledger.commit(&push), reference.commit(&push), "{:?}", push);
            }
            prop_assert_eq!(ledger.tracked_keys(), reference.versions.len());
            prop_assert_eq!(ledger.commits(), reference.commits);
            prop_assert_eq!(ledger.max_version(), reference.max_version());
        }
        for &(table, id) in keys.iter().chain(&strangers) {
            prop_assert_eq!(ledger.get(table, id), reference.get(table, id), "({}, {})", table, id);
        }
    }

    /// Under any interleaving of ledger-versioned inserts, update bursts
    /// (fresh and deliberately stale pushes mixed), batch boundaries and
    /// eviction passes, a key's observed slot version never moves
    /// backwards and never runs ahead of the versions the ledger handed
    /// out.
    #[test]
    fn slot_versions_monotone_under_apply_evict_churn(
        keys in keys_strategy(24),
        ops in ops_strategy(),
    ) {
        let ds = spec::synthetic(4, 500, DIM, -1.2);
        let codec = codec();
        let config = FlatCacheConfig {
            admission_probability: 1.0,
            ..FlatCacheConfig::default()
        };
        // Small on purpose: churn must actually evict.
        let mut cache = FlatCache::new(&ds, u64::from(DIM) * 4 * 48, config);
        let mut ledger: BTreeMap<(u16, u64), u64> = BTreeMap::new();
        let mut observed: BTreeMap<(u16, u64), u64> = BTreeMap::new();
        let mut stamp = 0u32;

        for (kind, sel, inc) in ops {
            let (t, f) = keys[sel % keys.len()];
            stamp += 1;
            match kind {
                0 => {
                    // Miss-fill: the system always inserts at the ledger's
                    // latest version, never an older one, and stamps the
                    // slot with it (as the miss path's rewrite-to-latest
                    // does).
                    let v = ledger.entry((t, f)).or_insert(0);
                    *v += inc;
                    let v = *v;
                    fill_at(&mut cache, t, f, v, stamp);
                }
                1 => {
                    // Trainer burst over a few keys: odd slots re-send a
                    // stale version (drop/reorder aftermath), even slots
                    // advance the ledger.
                    let mut burst = Vec::new();
                    for (i, &(bt, bf)) in keys.iter().skip(sel % keys.len()).take(6).enumerate() {
                        let v = ledger.entry((bt, bf)).or_insert(0);
                        let push_v = if i % 2 == 0 {
                            *v += inc;
                            *v
                        } else {
                            v.saturating_sub(inc)
                        };
                        burst.push(SlotUpdate {
                            key: codec.encode(bt, bf),
                            version: push_v,
                            value: value_at(bt, bf, push_v),
                        });
                    }
                    let n = burst.len() as u64;
                    let report = cache.apply_updates(&burst);
                    prop_assert_eq!(report.applied + report.superseded + report.absent, n);
                }
                2 => {
                    cache.end_batch();
                }
                _ => {
                    cache.evict_pass_with(|_| None);
                }
            }
            // Probe every key after every op: a hit's version must be
            // monotone per key and bounded by what the ledger issued.
            for &(pt, pf) in &keys {
                if let (CacheAnswer::Hit { class, slot }, _) =
                    cache.lookup_batch(&[codec.encode(pt, pf)], stamp)[0]
                {
                    let v = cache.slot_version(class, slot);
                    let issued = ledger.get(&(pt, pf)).copied().unwrap_or(0);
                    prop_assert!(v <= issued, "key ({pt},{pf}) at v{v} > issued v{issued}");
                    let seen = observed.entry((pt, pf)).or_insert(0);
                    prop_assert!(v >= *seen, "key ({pt},{pf}) regressed v{} -> v{v}", *seen);
                    *seen = v;
                }
            }
        }
    }

    /// Applying the same pushes duplicated, reordered, and split across
    /// any number of apply calls converges on exactly the state the
    /// canonical one-shot apply produced — and re-applying the canonical
    /// burst afterwards writes nothing.
    #[test]
    fn duplicated_and_reordered_pushes_are_idempotent(
        keys in keys_strategy(16),
        raw_versions in prop::collection::vec(prop::collection::vec(1u64..50, 1..5), 16),
        shuffle_seed in any::<u64>(),
        split_seed in any::<usize>(),
    ) {
        let ds = spec::synthetic(4, 500, DIM, -1.2);
        let codec = codec();
        let config = FlatCacheConfig {
            admission_probability: 1.0,
            ..FlatCacheConfig::default()
        };
        let mut canonical: Vec<SlotUpdate> = Vec::new();
        for (i, &(t, f)) in keys.iter().enumerate() {
            for &v in &raw_versions[i % raw_versions.len()] {
                canonical.push(SlotUpdate {
                    key: codec.encode(t, f),
                    version: v,
                    value: value_at(t, f, v),
                });
            }
        }

        let seed_cache = |keys: &[(u16, u64)]| {
            let mut c = FlatCache::new(&ds, u64::from(DIM) * 4 * 1024, config);
            for (i, &(t, f)) in keys.iter().enumerate() {
                c.insert_value(t, codec.encode(t, f), &value_at(t, f, 0), i as u32);
            }
            c
        };

        let mut a = seed_cache(&keys);
        let ra = a.apply_updates(&canonical);
        prop_assert_eq!(ra.absent, 0, "every pushed key was seeded resident");

        // Duplicate every third push, then Fisher-Yates with a cheap LCG
        // (deterministic for a given seed), then split into two calls.
        let mut mangled = canonical.clone();
        for (i, u) in canonical.iter().enumerate() {
            if i % 3 == 0 {
                mangled.push(u.clone());
            }
        }
        let mut rng = shuffle_seed | 1;
        for i in (1..mangled.len()).rev() {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            mangled.swap(i, (rng >> 33) as usize % (i + 1));
        }
        let cut = split_seed % (mangled.len() + 1);
        let mut b = seed_cache(&keys);
        b.apply_updates(&mangled[..cut]);
        b.apply_updates(&mangled[cut..]);

        for &(t, f) in &keys {
            let key = codec.encode(t, f);
            let (va, vb) = match (a.lookup_batch(&[key], u32::MAX)[0].0, b.lookup_batch(&[key], u32::MAX)[0].0) {
                (
                    CacheAnswer::Hit { class: ca, slot: sa },
                    CacheAnswer::Hit { class: cb, slot: sb },
                ) => {
                    prop_assert_eq!(
                        bits(a.read_hit(ca, sa)),
                        bits(b.read_hit(cb, sb)),
                        "key ({t},{f}) values diverged"
                    );
                    (a.slot_version(ca, sa), b.slot_version(cb, sb))
                }
                (other_a, other_b) => {
                    prop_assert!(false, "seeded key ({t},{f}) missing: {other_a:?}/{other_b:?}");
                    unreachable!()
                }
            };
            prop_assert_eq!(va, vb, "key ({t},{f}) versions diverged");
        }

        let again = a.apply_updates(&canonical);
        prop_assert_eq!(again.applied, 0, "a re-sent burst must be fully superseded");
    }

    /// A base checkpoint plus one delta restores every key to the newest
    /// version the chain recorded — never the stale base value.
    #[test]
    fn restore_chain_recovers_every_key_to_chain_max(
        keys in keys_strategy(24),
        advance in prop::collection::vec(any::<bool>(), 24),
        incs in prop::collection::vec(1u64..20, 24),
    ) {
        let ds = spec::synthetic(4, 500, DIM, -1.2);
        let codec = codec();
        let config = FlatCacheConfig {
            admission_probability: 1.0,
            ..FlatCacheConfig::default()
        };
        let mut cache = FlatCache::new(&ds, u64::from(DIM) * 4 * 1024, config);
        for (i, &(t, f)) in keys.iter().enumerate() {
            fill_at(&mut cache, t, f, 1, i as u32);
        }
        let (mut chain, _) = cache.checkpoint(7);

        // Advance a subset past the base (the first key always, so the
        // delta is never empty), then capture the delta.
        let mut expected: BTreeMap<(u16, u64), u64> = BTreeMap::new();
        let mut burst = Vec::new();
        for (i, &(t, f)) in keys.iter().enumerate() {
            let v = if i == 0 || advance[i % advance.len()] {
                1 + incs[i % incs.len()]
            } else {
                1
            };
            expected.insert((t, f), v);
            if v > 1 {
                burst.push(SlotUpdate {
                    key: codec.encode(t, f),
                    version: v,
                    value: value_at(t, f, v),
                });
            }
        }
        let report = cache.apply_updates(&burst);
        prop_assert_eq!(report.applied, burst.len() as u64);
        cache.delta_checkpoint(&mut chain);
        prop_assert_eq!(
            chain.latest().decode().expect("fresh delta decodes").len(),
            burst.len(),
            "delta must carry exactly the advanced keys"
        );

        let mut fresh = FlatCache::new(&ds, u64::from(DIM) * 4 * 1024, config);
        let report = fresh.restore(&chain).expect("intact chain restores");
        prop_assert_eq!(report.max_version, expected.values().copied().max().unwrap_or(0));
        for (&(t, f), &v) in &expected {
            match fresh.lookup_batch(&[codec.encode(t, f)], u32::MAX)[0].0 {
                CacheAnswer::Hit { class, slot } => {
                    prop_assert_eq!(fresh.slot_version(class, slot), v);
                    prop_assert_eq!(bits(fresh.read_hit(class, slot)), bits(&value_at(t, f, v)));
                }
                other => prop_assert!(false, "restored key ({t},{f}) missing: {other:?}"),
            }
        }
    }

    /// Flipping any single byte of any image of a base + two-delta chain —
    /// header, entry stream, or trailer — makes the whole restore fail
    /// before the first mutation; the (non-empty) target cache stays
    /// bit-for-bit as it was.
    #[test]
    fn corrupt_delta_is_rejected_and_never_mutates(
        keys in keys_strategy(16),
        image in 0usize..3,
        offset_seed in any::<u64>(),
    ) {
        let config = FlatCacheConfig {
            admission_probability: 1.0,
            ..FlatCacheConfig::default()
        };
        let (mut chain, _) = chain_under_updates(&keys, config);
        let images: Vec<u64> = std::iter::once(chain.base())
            .chain(chain.deltas())
            .map(|i| i.byte_len())
            .collect();
        prop_assert_eq!(images.len(), 3);
        let offset = images[..image].iter().sum::<u64>() + offset_seed % images[image];
        prop_assert!(chain.corrupt_byte(offset));

        // The target already serves other keys: none of it may move.
        let ds = spec::synthetic(4, 500, DIM, -1.2);
        let codec = codec();
        let mut target = FlatCache::new(&ds, u64::from(DIM) * 4 * 256, config);
        target.set_unified_target(2);
        target.insert_dram_ptr(0, 450, codec.encode(0, 450), 1);
        for f in 300..310u64 {
            target.insert_value(1, codec.encode(1, f), &value_at(1, f, 2), f as u32);
        }
        let before = target.checkpoint(0).0;
        let counts = (target.len(), target.live_value_count(), target.unified_count());
        prop_assert!(
            target.restore(&chain).is_err(),
            "byte {offset} (image {image}) flipped but the chain restored"
        );
        prop_assert_eq!(
            (target.len(), target.live_value_count(), target.unified_count()),
            counts,
            "rejected chain must not touch the cache"
        );
        prop_assert_eq!(target.checkpoint(0).0, before);
    }

    /// Restoring the same chain twice is idempotent: the second replay
    /// accounts for every entry as rewritten-in-place or superseded, no
    /// version moves backwards, and the cache's own capture is
    /// byte-identical after the first and the second restore.
    #[test]
    fn restoring_a_chain_twice_is_idempotent(keys in keys_strategy(24)) {
        let config = FlatCacheConfig {
            admission_probability: 1.0,
            ..FlatCacheConfig::default()
        };
        let (chain, versions) = chain_under_updates(&keys, config);
        let total: u64 = std::iter::once(chain.base())
            .chain(chain.deltas())
            .map(|i| i.entry_count_hint())
            .sum();

        let ds = spec::synthetic(4, 500, DIM, -1.2);
        let codec = codec();
        let mut fresh = FlatCache::new(&ds, u64::from(DIM) * 4 * 1024, config);
        let first = fresh.restore(&chain).expect("intact chain restores");
        prop_assert_eq!(first.restored + first.superseded, total);
        let after_first = fresh.checkpoint(9).0;

        let second = fresh.restore(&chain).expect("re-restore is clean");
        prop_assert_eq!(second.bypassed, 0);
        prop_assert_eq!(second.restored + second.superseded, total);
        prop_assert_eq!(second.max_version, first.max_version);
        prop_assert_eq!(fresh.checkpoint(9).0, after_first);
        for (&(t, f), &v) in &versions {
            match fresh.lookup_batch(&[codec.encode(t, f)], u32::MAX)[0].0 {
                CacheAnswer::Hit { class, slot } => {
                    prop_assert_eq!(fresh.slot_version(class, slot), v);
                    prop_assert_eq!(bits(fresh.read_hit(class, slot)), bits(&value_at(t, f, v)));
                }
                other => prop_assert!(false, "restored key ({t},{f}) missing: {other:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Through any interleaving of committed bursts, update outages, lossy
    /// and duplicated channels, staleness demotions and launch-fault
    /// windows that open the breaker, the update accounting holds after
    /// every batch — staged pushes carried across degraded batches
    /// included.
    #[test]
    fn staged_pushes_are_conserved_across_breaker_windows(
        steps in prop::collection::vec(step(), 1..40),
    ) {
        let mut run = UpdateRun::new();
        for step in steps {
            match step {
                Step::Push(n) => {
                    let burst = run.commit(n);
                    run.stage(&burst);
                }
                Step::Outage(n) => {
                    run.commit(n);
                }
                Step::Lossy(n, k) => {
                    let burst = run.commit(n);
                    let kept: Vec<UpdatePush> = burst.into_iter().step_by(k).collect();
                    run.stage(&kept);
                }
                Step::Duplicated(n) => {
                    let mut burst = run.commit(n);
                    run.stage(&burst);
                    burst.reverse();
                    run.stage(&burst);
                }
                Step::Batch => run.batch()?,
                Step::Faults(n) => {
                    let mut plan = FaultPlan::quiet(11);
                    plan.gpu.launch_failure_rate = 1.0;
                    run.gpu.set_fault_hook(Some(Box::new(plan.gpu_injector())));
                    for _ in 0..n {
                        let burst = run.commit(24);
                        run.stage(&burst);
                        run.batch()?;
                    }
                    run.gpu.set_fault_hook(None);
                }
            }
        }
        run.batch()?;
    }
}
