//! Property tests for the failure-handling machinery: epoch-based
//! reclamation must keep decoupled copies safe while eviction and
//! fault-induced quarantines retire slots underneath them, the tiered
//! store's retry/fallback path must never surface garbage bytes, and the
//! breaker/staleness hysteresis state machines must never oscillate on
//! constant input and must trip monotonically in the failure rate.

use fleche_chaos::{
    BreakerConfig, BreakerState, CircuitBreaker, FaultPlan, RetryPolicy, StalenessConfig,
    StalenessPolicy,
};
use fleche_coding::{FlatKey, FlatKeyCodec, SizeAwareCodec};
use fleche_core::{CacheAnswer, FlatCache, FlatCacheConfig, FlecheConfig, FlecheSystem};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu, Ns};
use fleche_index::EpochGuard;
use fleche_store::{CpuStore, EmbeddingCacheSystem, RemoteSpec, TieredStore};
use fleche_workload::{spec, TraceGenerator};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const DIM: usize = 8;

/// Deterministic per-key payload so a re-insert of the same key writes
/// byte-identical data: any change observed through a pinned reader can
/// only come from slot reuse, never from a legitimate refresh.
fn value_of(t: u16, f: u64) -> Vec<f32> {
    (0..DIM)
        .map(|i| t as f32 * 4096.0 + f as f32 * 2.0 + i as f32 * 0.25)
        .collect()
}

/// A decoupled copy in flight: pinned at capture time, verified (then
/// unpinned) `due` rounds later — the delay standing in for the extra
/// wall time a fault-induced retry adds between address capture and the
/// actual reads.
struct InFlight {
    guard: EpochGuard,
    captured: Vec<(FlatKey, u16, u32, Vec<f32>)>,
    due: usize,
}

#[derive(Clone, Debug)]
struct Round {
    inserts: Vec<(u16, u64)>,
    start_reader: bool,
    reader_delay: usize,
    /// Index into the newest reader's captured set to quarantine (the
    /// checksum-failure path retiring a slot while the copy is pinned).
    quarantine_nth: Option<usize>,
}

fn rounds_strategy() -> impl Strategy<Value = Vec<Round>> {
    prop::collection::vec(
        (
            prop::collection::vec((0u16..4, 0u64..500), 1..12),
            any::<bool>(),
            0usize..5,
            prop_oneof![Just(None), (0usize..8).prop_map(Some)],
        )
            .prop_map(
                |(inserts, start_reader, reader_delay, quarantine_nth)| Round {
                    inserts,
                    start_reader,
                    reader_delay,
                    quarantine_nth,
                },
            ),
        4..32,
    )
}

fn verify_and_unpin(cache: &mut FlatCache, reader: InFlight) -> Result<(), TestCaseError> {
    for (key, class, slot, expected) in &reader.captured {
        let got = cache.read_hit(*class, *slot);
        prop_assert_eq!(
            got,
            expected.as_slice(),
            "decoupled copy of key {:?} at ({}, {}) observed reused bytes",
            key,
            class,
            slot
        );
    }
    cache.release_reader(reader.guard);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under arbitrary interleavings of inserts, capacity evictions,
    /// checksum quarantines, and epoch advances, a pinned decoupled copy
    /// always reads exactly the bytes present at capture time: retired
    /// slots are never reclaimed and reused while a reader can see them.
    #[test]
    fn decoupled_copies_never_observe_reused_slots(rounds in rounds_strategy()) {
        let ds = spec::synthetic(4, 500, DIM as u32, -1.2);
        let corpora: Vec<u64> = ds.tables.iter().map(|t| t.corpus).collect();
        let codec = SizeAwareCodec::new(24, &corpora);
        for t in 0..4u16 {
            prop_assert!(codec.table_code(t).lossless, "collisions would break the byte model");
        }
        // Tiny pool (64 value slots) so eviction churns constantly.
        let mut cache = FlatCache::new(
            &ds,
            (DIM * 4 * 64) as u64,
            FlatCacheConfig { admission_probability: 1.0, ..FlatCacheConfig::default() },
        );
        let mut stamp = 0u32;
        let mut inserted: Vec<(u16, u64)> = Vec::new();
        let mut in_flight: Vec<InFlight> = Vec::new();
        let total = rounds.len();
        for (round_no, round) in rounds.into_iter().enumerate() {
            for (t, f) in round.inserts {
                stamp += 1;
                if cache.insert_value(t, codec.encode(t, f), &value_of(t, f), stamp).0.is_some() {
                    inserted.push((t, f));
                }
            }
            if round.start_reader && !inserted.is_empty() {
                // Capture the *oldest* inserted keys: the ones eviction is
                // most likely to retire while this copy is still pinned.
                let guard = cache.pin_reader();
                let mut captured = Vec::new();
                for &(t, f) in inserted.iter().take(8) {
                    let key = codec.encode(t, f);
                    if let CacheAnswer::Hit { class, slot } = cache.lookup_batch(&[key], 0)[0].0 {
                        captured.push((key, class, slot, value_of(t, f)));
                    }
                }
                in_flight.push(InFlight { guard, captured, due: round_no + round.reader_delay });
            }
            if let (Some(nth), Some(reader)) = (round.quarantine_nth, in_flight.last()) {
                // The fault path: a checksum mismatch quarantines the slot
                // (index removal + retire) while the copy is in flight.
                if let Some(&(key, class, slot, _)) = reader.captured.get(nth) {
                    if matches!(cache.lookup_batch(&[key], 0)[0].0, CacheAnswer::Hit { class: c, slot: s } if c == class && s == slot) {
                        cache.quarantine(key, class, slot);
                    }
                }
            }
            if cache.needs_eviction() {
                cache.evict_pass_with(|_| None);
            }
            cache.end_batch();
            let mut still_pinned = Vec::new();
            for reader in in_flight {
                if reader.due <= round_no {
                    verify_and_unpin(&mut cache, reader)?;
                } else {
                    still_pinned.push(reader);
                }
            }
            in_flight = still_pinned;
            let _ = total;
        }
        // Drain every copy still in flight, then check liveness: with all
        // readers gone, two epoch advances must actually reclaim retired
        // slots (utilization falls back under control).
        for reader in in_flight.drain(..) {
            verify_and_unpin(&mut cache, reader)?;
        }
        if cache.needs_eviction() {
            cache.evict_pass_with(|_| None);
        }
        cache.end_batch();
        cache.end_batch();
        prop_assert!(
            cache.effective_utilization() <= 1.0,
            "retired slots were never reclaimed after all readers unpinned: {}",
            cache.effective_utilization()
        );
    }

    /// End to end through the faulty tiered path: whatever combination of
    /// timeouts, retries, hedges, and stale fallbacks a seed produces, a
    /// served row is always byte-exact truth or the zero fill of an
    /// admitted failure — never stale-pointer garbage.
    #[test]
    fn faulty_tiered_system_never_serves_garbage(
        seed in 0u64..512,
        fault_rate in 0.0f64..0.9,
        batches in 2usize..6,
    ) {
        let ds = spec::synthetic(4, 3_000, DIM as u32, -1.1);
        let truth = CpuStore::new(&ds, DramSpec::xeon_6252());
        let mut plan = FaultPlan::quiet(seed);
        plan.remote.fetch_failure_rate = fault_rate;
        let mut store = TieredStore::new(&ds, DramSpec::xeon_6252(), RemoteSpec::datacenter(), 0.1);
        store.set_fault_injector(Some(plan.remote_injector()));
        store.set_retry_policy(RetryPolicy::standard());
        store.set_stale_serve(true);
        let mut sys = FlecheSystem::with_tiered_store(
            &ds,
            store,
            FlecheConfig { checksums: true, ..FlecheConfig::full(0.05) },
        );
        let mut gpu = Gpu::new(DeviceSpec::t4());
        let mut gen = TraceGenerator::new(&ds);
        for _ in 0..batches {
            let batch = gen.next_batch(64);
            let out = sys.query_batch(&mut gpu, &batch);
            let mut k = 0;
            for (t, ids) in batch.table_ids.iter().enumerate() {
                for &id in ids {
                    let row = &out.rows[k];
                    let tv = truth.read(t as u16, id);
                    prop_assert!(
                        row == &tv || row.iter().all(|&v| v == 0.0),
                        "table {} id {} served neither truth nor zeros under fault rate {}",
                        t, id, fault_rate
                    );
                    k += 1;
                }
            }
        }
    }
}

/// Deterministic per-index uniform draw in `[0, 1)` (split-mix hash), so
/// a higher failure rate fails a strict superset of the indices a lower
/// rate does — the coupling the monotonicity property relies on.
fn uniform_at(seed: u64, i: u64) -> f64 {
    let mut x = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn breaker_config_strategy() -> impl Strategy<Value = BreakerConfig> {
    (0.1f64..1.0, 2u32..12, 0u32..32, 1u32..5).prop_map(
        |(failure_threshold, min_samples, extra_window, probes_to_close)| BreakerConfig {
            failure_threshold,
            min_samples,
            window: min_samples + extra_window,
            cooldown: Ns::from_ms(1.0),
            probes_to_close,
        },
    )
}

/// Feeds `steps` outcomes where index `i` fails iff `uniform_at(seed, i)
/// < rate`, returning the index of the breaker's first trip.
fn first_trip(config: &BreakerConfig, seed: u64, rate: f64, steps: u64) -> Option<u64> {
    let mut b = CircuitBreaker::new(config.clone());
    for i in 0..steps {
        b.record(Ns::from_us(10.0) * i as f64, uniform_at(seed, i) < rate);
        if b.trips() > 0 {
            return Some(i);
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A breaker fed only successes never leaves the closed state, no
    /// matter the tuning: the hysteresis machinery cannot self-trigger.
    #[test]
    fn breaker_never_opens_without_failures(
        config in breaker_config_strategy(),
        steps in 16u64..400,
    ) {
        let mut b = CircuitBreaker::new(config);
        for i in 0..steps {
            let now = Ns::from_us(50.0) * i as f64;
            prop_assert!(b.allow(now), "closed breaker must admit traffic");
            b.record(now, false);
        }
        prop_assert_eq!(b.trips(), 0);
        let t = b.transitions_at(Ns::from_us(50.0) * steps as f64);
        prop_assert_eq!((t.opened, t.half_opened, t.closed), (0, 0, 0));
        prop_assert_eq!(t.time_open, Ns::ZERO);
    }

    /// A breaker fed only failures trips and never recovers: every
    /// half-open probe fails and re-opens, so the closed-recovery count
    /// stays zero — the state machine does not oscillate back through
    /// closed on a constant failure rate.
    #[test]
    fn breaker_never_recloses_under_constant_failure(
        config in breaker_config_strategy(),
        steps in 64u64..256,
        // Gaps straddle the 1ms cooldown so open phases genuinely expire
        // into half-open probes along the way.
        gap_us in 200.0f64..2_000.0,
    ) {
        let mut b = CircuitBreaker::new(config.clone());
        for i in 0..steps {
            let now = Ns::from_us(gap_us) * i as f64;
            if b.allow(now) {
                b.record(now, true);
            }
        }
        let t = b.transitions_at(Ns::from_us(gap_us) * steps as f64);
        prop_assert!(t.opened >= 1, "enough failures must trip the breaker");
        prop_assert_eq!(t.closed, 0, "probes all fail; the breaker must never re-close");
        prop_assert_ne!(b.state_at(Ns::from_us(gap_us) * steps as f64), BreakerState::Closed);
    }

    /// Time-to-first-trip is monotone in the failure rate: on coupled
    /// outcome streams (a higher rate fails a superset of indices), a
    /// breaker facing more failures never trips later.
    #[test]
    fn breaker_first_trip_is_monotone_in_failure_rate(
        config in breaker_config_strategy(),
        seed in any::<u64>(),
        r1 in 0.0f64..1.0,
        r2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let steps = 512u64;
        let at_lo = first_trip(&config, seed, lo, steps);
        let at_hi = first_trip(&config, seed, hi, steps);
        if let Some(lo_trip) = at_lo {
            let hi_trip = at_hi.expect("superset of failures must also trip");
            prop_assert!(
                hi_trip <= lo_trip,
                "rate {hi} tripped at {hi_trip}, after rate {lo} at {lo_trip}"
            );
        }
    }

    /// The staleness policy never oscillates on constant lag: whatever
    /// the bounds and the lag, an arbitrarily long constant stream causes
    /// at most one mode transition in total.
    #[test]
    fn staleness_policy_constant_lag_transitions_at_most_once(
        max_lag in 1u64..24,
        resume_gap in 0u64..24,
        lag in 0u64..48,
        steps in 1usize..200,
    ) {
        let config = StalenessConfig {
            max_lag,
            resume_lag: max_lag.saturating_sub(resume_gap),
        };
        let mut p = StalenessPolicy::new(config);
        for _ in 0..steps {
            p.observe(lag);
        }
        prop_assert!(
            p.entries() + p.exits() <= 1,
            "constant lag {lag} oscillated: {} entries, {} exits",
            p.entries(),
            p.exits()
        );
    }

    /// Inside the hysteresis band (`resume_lag < lag <= max_lag`) the
    /// mode is frozen: after any warm-up history, in-band observations
    /// never move the policy in either direction.
    #[test]
    fn staleness_policy_holds_state_inside_the_band(
        max_lag in 2u64..24,
        resume_gap in 1u64..24,
        prefix in prop::collection::vec(0u64..48, 0..32),
        in_band_steps in 1usize..64,
    ) {
        let resume_lag = max_lag.saturating_sub(resume_gap);
        let config = StalenessConfig { max_lag, resume_lag };
        let mut p = StalenessPolicy::new(config);
        for lag in prefix {
            p.observe(lag);
        }
        let (entries, exits, degraded) = (p.entries(), p.exits(), p.degraded());
        // The band is non-empty because resume < max.
        let band_lag = resume_lag + 1;
        prop_assert!(band_lag > resume_lag && band_lag <= max_lag);
        for _ in 0..in_band_steps {
            prop_assert_eq!(p.observe(band_lag), degraded, "band must not flip the mode");
        }
        prop_assert_eq!(p.entries(), entries);
        prop_assert_eq!(p.exits(), exits);
    }
}
