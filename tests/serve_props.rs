//! Property tests for the concurrent serving front-end: the micro-batcher
//! must partition its input exactly (no drop, no duplicate) while holding
//! the logical-time latency budget, the admission token bucket must
//! conserve credit under any probe order, and `serve_concurrent` with a
//! single worker and `serve_multi_tenant` with a single tenant must both
//! stay bit-identical to the serial `serve` loop across randomized server
//! configurations.

use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu, Ns};
use fleche_model::{
    serve, serve_concurrent, serve_multi_tenant, ConcurrentConfig, DenseModel, InferenceEngine,
    LatencyRecorder, MicroBatcher, MicroBatcherConfig, ModelMode, MultiTenantConfig,
    OverloadCostSpec, ServedRun, ServerConfig, TokenBucket,
};
use fleche_store::CpuStore;
use fleche_workload::{spec, TraceGenerator};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Sorted Poisson-ish arrival sequence in logical nanoseconds, with
/// occasional bursts (gap 0) to exercise seal-on-full batches.
fn arrivals_strategy() -> impl Strategy<Value = Vec<(u64, Ns)>> {
    prop::collection::vec((0u8..5, 1u32..200_000), 0..400).prop_map(|gaps| {
        let mut t = 1_000_000.0f64;
        gaps.into_iter()
            .enumerate()
            .map(|(seq, (burst, gap))| {
                // burst==0 keeps the previous timestamp (simultaneous
                // arrivals); otherwise advance by the drawn gap.
                if burst != 0 {
                    t += gap as f64;
                }
                (seq as u64, Ns(t))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every arrival lands in exactly one batch or the shed list; batches
    /// respect `max_batch`; members stay in arrival order.
    #[test]
    fn micro_batcher_partitions_exactly(
        arrivals in arrivals_strategy(),
        max_batch in 1usize..64,
        linger_us in 1u32..2_000,
        deadline_us in prop_oneof![Just(None), (50u32..5_000).prop_map(Some)],
    ) {
        let cfg = MicroBatcherConfig {
            max_batch,
            linger: Ns::from_us(linger_us as f64),
            deadline: deadline_us.map(|d| Ns::from_us(d as f64)),
        };
        let plan = MicroBatcher::plan(&arrivals, &cfg);
        let mut seen: Vec<(u64, Ns)> = Vec::new();
        for b in &plan.batches {
            prop_assert!(!b.members.is_empty());
            prop_assert!(b.members.len() <= max_batch);
            prop_assert!(b.members.windows(2).all(|w| w[0].0 < w[1].0));
            seen.extend(b.members.iter().copied());
        }
        seen.extend(plan.shed.iter().copied());
        seen.sort_by_key(|&(seq, _)| seq);
        prop_assert_eq!(seen.len(), arrivals.len());
        for (got, want) in seen.iter().zip(arrivals.iter()) {
            prop_assert_eq!(got.0, want.0);
            prop_assert_eq!(got.1.as_ns().to_bits(), want.1.as_ns().to_bits());
        }
    }

    /// The latency budget holds in logical time: no batch seals later
    /// than its first member's arrival plus the linger, unless it sealed
    /// early because it filled — and a full batch seals at its last
    /// member's arrival.
    #[test]
    fn micro_batcher_holds_latency_budget(
        arrivals in arrivals_strategy(),
        max_batch in 1usize..64,
        linger_us in 1u32..2_000,
    ) {
        let linger = Ns::from_us(linger_us as f64);
        let cfg = MicroBatcherConfig { max_batch, linger, deadline: None };
        let plan = MicroBatcher::plan(&arrivals, &cfg);
        prop_assert!(plan.shed.is_empty());
        for b in &plan.batches {
            let first = b.members[0].1;
            let last = b.members[b.members.len() - 1].1;
            prop_assert!(b.seal >= last);
            if b.members.len() == max_batch {
                prop_assert!(b.seal <= Ns(first.as_ns() + linger.as_ns()));
            } else {
                prop_assert_eq!(
                    b.seal.as_ns().to_bits(),
                    (first.as_ns() + linger.as_ns()).to_bits()
                );
            }
        }
    }

    /// The seal/linger discipline is greedy: a batch that sealed short of
    /// `max_batch` did so only because the next arrival fell past its
    /// linger window, so no request that could have joined was left for
    /// a later batch.
    #[test]
    fn micro_batcher_seal_linger_discipline(
        arrivals in arrivals_strategy(),
        max_batch in 1usize..64,
        linger_us in 1u32..2_000,
    ) {
        let cfg = MicroBatcherConfig {
            max_batch,
            linger: Ns::from_us(linger_us as f64),
            deadline: None,
        };
        let plan = MicroBatcher::plan(&arrivals, &cfg);
        for pair in plan.batches.windows(2) {
            let (b, next) = (&pair[0], &pair[1]);
            if b.members.len() < max_batch {
                prop_assert!(
                    next.members[0].1 > b.seal,
                    "short batch sealed at {:?} but {:?} arrived inside its window",
                    b.seal, next.members[0]
                );
            }
        }
    }

    /// Batches follow arrival order across batch boundaries, not only
    /// within one: members read batch after batch are strictly increasing
    /// in sequence, seal times never go backwards, and with no deadline
    /// the batches laid end to end are exactly the arrival sequence.
    #[test]
    fn micro_batcher_batches_follow_arrival_order(
        arrivals in arrivals_strategy(),
        max_batch in 1usize..64,
        linger_us in 1u32..2_000,
        deadline_us in prop_oneof![Just(None), (50u32..5_000).prop_map(Some)],
    ) {
        let cfg = MicroBatcherConfig {
            max_batch,
            linger: Ns::from_us(linger_us as f64),
            deadline: deadline_us.map(|d| Ns::from_us(d as f64)),
        };
        let plan = MicroBatcher::plan(&arrivals, &cfg);
        prop_assert!(plan.batches.windows(2).all(|w| w[0].seal <= w[1].seal));
        let served: Vec<u64> = plan
            .batches
            .iter()
            .flat_map(|b| b.members.iter().map(|&(seq, _)| seq))
            .collect();
        prop_assert!(served.windows(2).all(|w| w[0] < w[1]));
        if deadline_us.is_none() {
            let all: Vec<u64> = arrivals.iter().map(|&(seq, _)| seq).collect();
            prop_assert_eq!(served, all);
        }
    }

    /// Shed decisions are exactly the plan-time deadline test: a request
    /// is shed iff its batch would have sealed more than `deadline`
    /// after it arrived.
    #[test]
    fn micro_batcher_sheds_only_past_deadline(
        arrivals in arrivals_strategy(),
        max_batch in 1usize..64,
        linger_us in 1u32..2_000,
        deadline_us in 50u32..5_000,
    ) {
        let deadline = Ns::from_us(deadline_us as f64);
        let cfg = MicroBatcherConfig {
            max_batch,
            linger: Ns::from_us(linger_us as f64),
            deadline: Some(deadline),
        };
        let plan = MicroBatcher::plan(&arrivals, &cfg);
        for b in &plan.batches {
            for &(_, arr) in &b.members {
                prop_assert!(b.seal.as_ns() - arr.as_ns() <= deadline.as_ns());
            }
        }
    }

    /// The token bucket's sequential law over random `refill(now, rate)`
    /// and `try_consume` sequences with arbitrary, non-monotone probe
    /// times: the level stays in `[0, burst]`; a consume succeeds iff a
    /// whole token is there and then takes exactly one; a refill never
    /// lowers the level; and total credit (consumed plus held) never
    /// exceeds `burst` plus each refill's rate over the time it advanced
    /// the latest probe seen.
    #[test]
    fn token_bucket_conserves_credit(
        burst in 1.0f64..8.0,
        start_us in 0u32..5_000,
        ops in prop::collection::vec((0u8..3, 0u32..5_000, 0.0f64..20_000.0), 0..64),
    ) {
        let mut latest = Ns::from_us(start_us as f64);
        let mut b = TokenBucket::new(burst, latest);
        let (mut consumed, mut allowance) = (0.0f64, 0.0f64);
        for (op, now_us, rate) in ops {
            let before = b.level();
            if op == 0 {
                let took = b.try_consume();
                prop_assert_eq!(took, before >= 1.0);
                if took {
                    prop_assert_eq!(b.level(), before - 1.0);
                    consumed += 1.0;
                } else {
                    prop_assert_eq!(b.level(), before);
                }
            } else {
                let now = Ns::from_us(now_us as f64);
                b.refill(now, rate);
                prop_assert!(b.level() >= before, "refill lowered {} to {}", before, b.level());
                allowance += rate * now.saturating_sub(latest).as_secs();
                latest = latest.max(now);
            }
            prop_assert!((0.0..=burst).contains(&b.level()), "level {} outside [0, {}]", b.level(), burst);
            prop_assert!(
                consumed + b.level() <= burst + allowance + 1e-9,
                "credit {} over {}", consumed + b.level(), burst + allowance
            );
        }
    }
}

fn build(_worker: usize) -> (InferenceEngine<FlecheSystem>, TraceGenerator) {
    let ds = spec::synthetic(4, 4_000, 8, -1.2);
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.1));
    let dense = DenseModel::dcn_paper(InferenceEngine::<FlecheSystem>::concat_dim(&ds));
    (
        InferenceEngine::new(
            Gpu::new(DeviceSpec::t4()),
            sys,
            dense,
            ModelMode::EmbeddingOnly,
            &ds,
        ),
        TraceGenerator::new(&ds),
    )
}

proptest! {
    // Each case runs a full (small) serving session twice; keep the case
    // count modest so the suite stays in test-suite time.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One concurrent worker with the streaming batcher reproduces the
    /// serial server bit-for-bit across randomized loads, batch caps,
    /// queue bounds, and deadlines.
    #[test]
    fn one_worker_is_bit_identical_to_serial(
        load_k in 100u32..4_000,
        max_batch in 16usize..128,
        requests in 400usize..1_500,
        cap in prop_oneof![Just(None), (64usize..512).prop_map(Some)],
        deadline_us in prop_oneof![Just(None), (200u32..2_000).prop_map(Some)],
    ) {
        let cfg = ServerConfig {
            offered_load: load_k as f64 * 1_000.0,
            max_batch,
            requests,
            warmup_requests: 1_000,
            queue_capacity: cap,
            deadline: deadline_us.map(|d| Ns::from_us(d as f64)),
        };
        let (mut eng, mut gen) = build(0);
        let serial = serve(&mut eng, &mut gen, &cfg);
        let conc = serve_concurrent(build, &ConcurrentConfig::mirror_serial(&cfg, 1));
        assert_same_run(&serial, &conc.workers[0].run)?;
    }

    /// One tenant through `serve_multi_tenant` is serial `serve`: its
    /// quota never binds, its SLO is never crossed and admission costs
    /// nothing, so every count, every latency bit and the final clock
    /// must agree — with the queue bound and the deadline together, and
    /// above the 256-sample warm-up chunk.
    #[test]
    fn one_tenant_is_bit_identical_to_serial(
        load_k in 100u32..4_000,
        max_batch in 16usize..513,
        requests in 400usize..1_500,
        cap in prop_oneof![Just(None), (8usize..512).prop_map(Some)],
        deadline_us in prop_oneof![Just(None), (50u32..2_000).prop_map(Some)],
    ) {
        let cfg = ServerConfig {
            offered_load: load_k as f64 * 1_000.0,
            max_batch,
            requests,
            warmup_requests: 1_000,
            queue_capacity: cap,
            deadline: deadline_us.map(|d| Ns::from_us(d as f64)),
        };
        let (mut eng, mut gen) = build(0);
        let serial = serve(&mut eng, &mut gen, &cfg);
        let (mut mt_eng, gen) = build(0);
        let mut mt = MultiTenantConfig::symmetric(1, cfg.offered_load, requests);
        mt.max_batch = max_batch;
        mt.warmup_requests = cfg.warmup_requests;
        mt.queue_capacity = cap.unwrap_or(usize::MAX);
        mt.deadline = cfg.deadline;
        mt.costs = OverloadCostSpec {
            bucket_probe_ns: 0.0,
            shed_ns: 0.0,
            controller_update_ns: 0.0,
            tenant_switch_ns: 0.0,
        };
        mt.tenants[0].quota = 1e12;
        mt.tenants[0].quota_burst = 1e12;
        mt.tenants[0].slo_p99 = Ns::from_secs(1e6);
        let run = serve_multi_tenant(&mut mt_eng, &mut [gen], &mt);
        let tenant = &run.tenants[0];
        prop_assert_eq!(tenant.over_quota + tenant.shed_quota, 0);
        prop_assert_eq!(serial.offered, tenant.offered);
        prop_assert_eq!(serial.served, tenant.served);
        prop_assert_eq!(serial.shed_queue, tenant.shed_queue);
        prop_assert_eq!(serial.shed_deadline, tenant.shed_deadline);
        let mean_batch = tenant.served as f64 / run.batches.max(1) as f64;
        prop_assert_eq!(serial.mean_batch.to_bits(), mean_batch.to_bits());
        // Same start and end clock: same achieved rate and utilization.
        prop_assert_eq!(
            eng.gpu().now().as_ns().to_bits(),
            mt_eng.gpu().now().as_ns().to_bits()
        );
        assert_same_latency(&serial.latency, &tenant.latency)?;
        prop_assert_eq!(serial.lifetime.hits, tenant.hits);
        prop_assert_eq!(serial.lifetime.unique_keys, tenant.unique_keys);
    }
}

/// Field-by-field, bit-for-bit equality of two serving runs.
fn assert_same_run(a: &ServedRun, b: &ServedRun) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.offered, b.offered);
    prop_assert_eq!(a.served, b.served);
    prop_assert_eq!(a.shed_queue, b.shed_queue);
    prop_assert_eq!(a.shed_deadline, b.shed_deadline);
    prop_assert_eq!(a.achieved.to_bits(), b.achieved.to_bits());
    prop_assert_eq!(a.mean_batch.to_bits(), b.mean_batch.to_bits());
    prop_assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
    assert_same_latency(&a.latency, &b.latency)?;
    prop_assert_eq!(a.lifetime.hits, b.lifetime.hits);
    prop_assert_eq!(a.lifetime.misses, b.lifetime.misses);
    prop_assert_eq!(a.lifetime.batches, b.lifetime.batches);
    Ok(())
}

/// The same latency samples, compared through every statistic bit for bit.
fn assert_same_latency(a: &LatencyRecorder, b: &LatencyRecorder) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    prop_assert_eq!(a.total().as_ns().to_bits(), b.total().as_ns().to_bits());
    if !a.is_empty() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            prop_assert_eq!(
                a.quantile(q).as_ns().to_bits(),
                b.quantile(q).as_ns().to_bits()
            );
        }
        prop_assert_eq!(a.mean().as_ns().to_bits(), b.mean().as_ns().to_bits());
    }
    Ok(())
}
