//! End-to-end integration: both cache systems over the real dataset
//! generators, checked against the ground-truth store byte for byte, plus
//! cross-system invariants (counter consistency, warm-up behaviour).

use fleche_baseline::{BaselineConfig, PerTableCacheSystem};
use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::CpuStore;
use fleche_workload::{spec, DatasetSpec, DiurnalSpec, TraceDynamics, TraceGenerator};

fn check_rows(
    sys: &mut dyn EmbeddingCacheSystem,
    gpu: &mut Gpu,
    ds: &DatasetSpec,
    batches: usize,
    batch_size: usize,
) {
    let truth = CpuStore::new(ds, DramSpec::xeon_6252());
    let mut gen = TraceGenerator::new(ds);
    for bi in 0..batches {
        let batch = gen.next_batch(batch_size);
        let out = sys.query_batch(gpu, &batch);
        assert_eq!(out.rows.len(), batch.total_ids());
        let mut k = 0;
        for (t, ids) in batch.table_ids.iter().enumerate() {
            for &id in ids {
                assert_eq!(
                    out.rows[k],
                    truth.read(t as u16, id),
                    "{} batch {bi} row {k} (table {t}, id {id})",
                    sys.name()
                );
                k += 1;
            }
        }
        // Counter partition invariant.
        let s = out.stats;
        assert_eq!(s.hits + s.unified_hits + s.misses, s.unique_keys);
    }
}

#[test]
fn fleche_serves_ground_truth_on_avazu_like() {
    let ds = spec::avazu();
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.05));
    let mut gpu = Gpu::new(DeviceSpec::t4());
    check_rows(&mut sys, &mut gpu, &ds, 4, 96);
}

#[test]
fn fleche_serves_ground_truth_on_criteo_tb_like_dims() {
    // 128-dim embeddings exercise the multi-round copy paths.
    let ds = spec::criteo_tb();
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.005));
    let mut gpu = Gpu::new(DeviceSpec::t4());
    check_rows(&mut sys, &mut gpu, &ds, 3, 48);
}

#[test]
fn baseline_serves_ground_truth_on_criteo_kaggle_like() {
    let ds = spec::criteo_kaggle();
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = PerTableCacheSystem::new(
        &ds,
        store,
        BaselineConfig {
            cache_fraction: 0.05,
            ..BaselineConfig::default()
        },
    );
    let mut gpu = Gpu::new(DeviceSpec::t4());
    check_rows(&mut sys, &mut gpu, &ds, 4, 96);
}

#[test]
fn every_fleche_variant_serves_ground_truth() {
    let ds = spec::criteo_kaggle();
    for config in [
        FlecheConfig::flat_cache_only(0.05),
        FlecheConfig::with_fusion(0.05),
        FlecheConfig::without_unified_index(0.05),
        FlecheConfig::full(0.05),
    ] {
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let mut sys = FlecheSystem::new(&ds, store, config);
        let mut gpu = Gpu::new(DeviceSpec::t4());
        check_rows(&mut sys, &mut gpu, &ds, 3, 64);
    }
}

#[test]
fn correctness_survives_heavy_eviction_pressure() {
    // Tiny cache + full admission: constant churn, constant eviction, and
    // every returned row must still match the store.
    let ds = spec::avazu();
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(
        &ds,
        store,
        FlecheConfig {
            cache: fleche_core::FlatCacheConfig {
                admission_probability: 1.0,
                evict_high_watermark: 0.7,
                evict_low_watermark: 0.3,
                ..Default::default()
            },
            ..FlecheConfig::full(0.002)
        },
    );
    let mut gpu = Gpu::new(DeviceSpec::t4());
    check_rows(&mut sys, &mut gpu, &ds, 6, 128);
    assert!(
        sys.cache().evict_passes() > 0,
        "pressure must trigger eviction"
    );
}

#[test]
fn correctness_survives_hotspot_drift() {
    let ds = spec::avazu();
    let truth = CpuStore::new(&ds, DramSpec::xeon_6252());
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.02));
    let mut gpu = Gpu::new(DeviceSpec::t4());
    // A rotation that never repeats: the hot set moves every 512 samples.
    let drift = TraceDynamics {
        diurnal: Some(DiurnalSpec {
            period: 512,
            phases: u64::MAX,
        }),
        ..TraceDynamics::none()
    };
    let mut gen = TraceGenerator::with_dynamics(&ds, drift);
    for _ in 0..8 {
        let batch = gen.next_batch(128);
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

#[test]
fn simulated_clocks_are_monotone_across_systems() {
    let ds = spec::avazu();
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.05));
    let mut gpu = Gpu::new(DeviceSpec::t4());
    let mut gen = TraceGenerator::new(&ds);
    let mut last = gpu.now();
    for _ in 0..5 {
        sys.query_batch(&mut gpu, &gen.next_batch(64));
        assert!(gpu.now() > last, "time must advance every batch");
        last = gpu.now();
    }
}

/// FNV-1a over a stream of `u64` words — the golden-digest fold.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The fixed synthetic spec every golden digest runs over: two dims, one
/// multi-hot table, one tiny table.
fn golden_spec() -> DatasetSpec {
    let mut ds = spec::synthetic(6, 3_000, 16, -1.2);
    ds.tables[1].dim = 32;
    ds.tables[2].multi_hot = 3;
    ds.tables[4].corpus = 40;
    ds
}

/// One golden-digest run: a system, its device, its trace and update
/// stream, and the digest so far.
struct GoldenRun {
    sys: FlecheSystem,
    gpu: Gpu,
    gen: TraceGenerator,
    stream: fleche_store::UpdateStream,
    served: fleche_workload::WorkloadStats,
    /// Hand each batch's dedup mapping in through `query_batch_prepared`,
    /// as a pipelined prep stage does.
    prepared: bool,
    h: Fnv,
}

/// What the trainer does before each batch of a [`GoldenRun::batches`] leg.
#[derive(Clone, Copy, PartialEq)]
enum Trainer {
    /// Nothing.
    Idle,
    /// A 48-push burst over the whole key space, committed and pushed.
    CommitAndPush,
    /// A 48-push burst over the 64 hottest keys served so far, committed
    /// but never pushed (a push outage: resident keys fall behind the
    /// ledger).
    CommitOnly,
}

impl GoldenRun {
    fn new(ds: &DatasetSpec, sys: FlecheSystem) -> GoldenRun {
        GoldenRun {
            sys,
            gpu: Gpu::new(DeviceSpec::t4()),
            gen: TraceGenerator::new(ds),
            stream: fleche_store::UpdateStream::new(ds, 17),
            served: fleche_workload::WorkloadStats::new(),
            prepared: false,
            h: Fnv::new(),
        }
    }

    fn flat(config: FlecheConfig) -> GoldenRun {
        let ds = golden_spec();
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        GoldenRun::new(&ds, FlecheSystem::new(&ds, store, config))
    }

    /// Runs `n` batches of 128 samples, folding every `BatchStats` field's
    /// bits and every served row into the digest.
    fn batches(&mut self, n: usize, trainer: Trainer) {
        for _ in 0..n {
            match trainer {
                Trainer::Idle => {}
                Trainer::CommitAndPush => {
                    let burst = self.stream.next_burst(48);
                    self.sys.commit_updates(&mut self.gpu, &burst);
                    self.sys.push_updates(&mut self.gpu, &burst);
                }
                Trainer::CommitOnly => {
                    let burst = self.stream.next_burst_from(&self.served.hottest(64), 48);
                    self.sys.commit_updates(&mut self.gpu, &burst);
                }
            }
            let batch = self.gen.next_batch(128);
            self.served.observe(&batch);
            let out = if self.prepared {
                let dedup = fleche_store::Deduped::from_batch(&batch);
                self.sys.query_batch_prepared(&mut self.gpu, &batch, dedup)
            } else {
                self.sys.query_batch(&mut self.gpu, &batch)
            };
            let s = out.stats;
            for w in [
                s.unique_keys,
                s.hits,
                s.unified_hits,
                s.misses,
                s.failed_keys,
                s.stale_keys,
                s.corrupt_detected,
                u64::from(s.degraded),
                s.wall.0.to_bits(),
                s.phases.cache_index.0.to_bits(),
                s.phases.cache_copy.0.to_bits(),
                s.phases.dram_index.0.to_bits(),
                s.phases.dram_payload.0.to_bits(),
                s.phases.other.0.to_bits(),
            ] {
                self.h.word(w);
            }
            self.h.word(out.rows.len() as u64);
            for row in &out.rows {
                self.h.word(row.len() as u64);
                for v in row {
                    self.h.word(u64::from(v.to_bits()));
                }
            }
        }
    }

    /// Closes the digest over the clock and the cache's end state.
    fn finish(mut self) -> u64 {
        self.h.word(self.gpu.now().0.to_bits());
        self.h.word(self.sys.cache().evict_passes());
        self.h.word(self.sys.cache().unified_count());
        self.h.0
    }

    /// [`GoldenRun::finish`] for a run with the race checker on: also folds
    /// the whole timeline (span count, and each span's label and bounds) —
    /// so a merged, dropped, added or reordered `gpu.*` call moves the
    /// digest even where the clock happens not to — and requires the run
    /// to have been race-free.
    fn finish_checked(mut self) -> u64 {
        self.h.word(self.gpu.timeline().spans().len() as u64);
        for span in self.gpu.timeline().spans() {
            for b in span.label.bytes() {
                self.h.word(u64::from(b));
            }
            self.h.word(span.start.0.to_bits());
            self.h.word(span.end.0.to_bits());
        }
        let races = self.gpu.race_checker().expect("checker on").race_count();
        assert_eq!(races, 0, "golden runs are race-free");
        self.finish()
    }
}

/// 60 batches through `FlecheConfig::full` with checksums on and a cache
/// small enough that 56 of the 60 batches run an eviction pass and the
/// unified index fills. With `updates`, a trainer burst is committed and
/// pushed before every batch.
fn golden_digest(updates: bool) -> u64 {
    let mut run = GoldenRun::flat(FlecheConfig {
        checksums: true,
        ..FlecheConfig::full(0.05)
    });
    run.batches(
        60,
        if updates {
            Trainer::CommitAndPush
        } else {
            Trainer::Idle
        },
    );
    run.finish()
}

/// The simulated clock and the served rows cannot move without this test
/// saying so: both constants were captured at the commit before the query
/// path was rebuilt (prefetch-pipelined probe, slot-indexed metadata, flat
/// dedup table, view-based restore), and every later change to that path
/// must reproduce them. All eight digests in this file were re-captured
/// once since, by the commit that pinned the eviction order to (band,
/// stamp, key), trimmed unified pointers coldest-first and stopped
/// `unified_count` drifting below the pointers the index holds.
#[test]
fn golden_digest_pins_simulated_clock_and_rows() {
    assert_eq!(golden_digest(false), 0xDDA4_803F_ADFF_54D2, "read-only run");
    assert_eq!(
        golden_digest(true),
        0xF1C4_FEEB_BE96_F746,
        "run under an update stream"
    );
}

/// Records `route` as moved unless its digest is the pinned one, so one run
/// reports every route that moved.
fn pin(moved: &mut Vec<String>, route: &str, got: u64, pinned: u64) {
    if got != pinned {
        moved.push(format!("{route}: got {got:#018X}, pinned {pinned:#018X}"));
    }
}

/// The same 60 batches through one of the ablation variants, race checker
/// on, 30 read-only and 30 under the update stream.
fn variant_digest(config: FlecheConfig) -> u64 {
    let mut run = GoldenRun::flat(FlecheConfig {
        checksums: true,
        ..config
    });
    run.gpu.enable_race_checker();
    run.batches(30, Trainer::Idle);
    run.batches(30, Trainer::CommitAndPush);
    run.finish_checked()
}

fn golden_breaker() -> fleche_chaos::BreakerConfig {
    fleche_chaos::BreakerConfig {
        failure_threshold: 0.5,
        min_samples: 4,
        window: 8,
        cooldown: fleche_gpu::Ns::from_us(200.0),
        probes_to_close: 2,
    }
}

fn every_launch_fails() -> Box<dyn fleche_gpu::LaunchFaultHook> {
    let mut plan = fleche_chaos::FaultPlan::quiet(11);
    plan.gpu.launch_failure_rate = 1.0;
    Box::new(plan.gpu_injector())
}

/// Launch faults trip the breaker while the trainer keeps pushing: degraded
/// batches serve rewritten rows from the miss backend, then the faults stop
/// and half-open probes close the breaker again. With `prepared`, every
/// batch's dedup mapping is handed in as a pipelined prep stage does.
fn breaker_window_digest(prepared: bool) -> u64 {
    let mut run = GoldenRun::flat(FlecheConfig {
        checksums: true,
        breaker: Some(golden_breaker()),
        ..FlecheConfig::full(0.05)
    });
    run.prepared = prepared;
    run.gpu.enable_race_checker();
    run.batches(10, Trainer::CommitAndPush);
    run.gpu.set_fault_hook(Some(every_launch_fails()));
    run.batches(12, Trainer::CommitAndPush);
    run.gpu.set_fault_hook(None);
    run.batches(24, Trainer::CommitAndPush);
    let lifetime = run.sys.lifetime_stats();
    assert!(lifetime.degraded_batches > 0 && lifetime.degraded_batches < lifetime.batches);
    let breaker = run.sys.breaker().expect("configured");
    assert!(breaker.trips() >= 1);
    run.h.word(breaker.trips());
    run.h.word(lifetime.degraded_batches);
    run.finish_checked()
}

/// Re-captured once, with [`TIERED_BACKEND`], by the commit that moved the
/// degraded workflow's `ledger-probe` charge out of `dram_index` (the cache
/// path's rule: it lands in no phase). With `dram_index` of degraded
/// batches masked out, both digests are what they were before that commit.
/// Re-captured again with the other six by the eviction-order commit.
const BREAKER_WINDOW: u64 = 0xBC68_F3E3_894F_98AA;
const TIERED_BACKEND: u64 = 0x8EDD_5CC7_82A8_4B04;

/// A dedup mapping handed in by a prep stage changes nothing — stats, rows
/// and clock — on the cache path or on the degraded one.
#[test]
fn prepared_dedup_is_bit_identical_through_a_degraded_window() {
    assert_eq!(breaker_window_digest(true), BREAKER_WINDOW);
}

/// Every route a batch can take through `FlecheSystem` beyond the two
/// digests above, each pinned the same way (constants captured at the
/// commit before the per-batch path was split into stages): the three
/// ablation variants, a breaker-open window, the tiered backend with
/// pointer invalidations, and a staleness-degraded window.
#[test]
fn golden_digests_pin_every_workflow_route() {
    use fleche_chaos::{FaultPlan, RetryPolicy, StalenessConfig};
    use fleche_store::{RemoteSpec, TieredStore};

    // Per-table launches, coupled copy.
    let mut moved = Vec::new();
    pin(
        &mut moved,
        "flat_cache_only",
        variant_digest(FlecheConfig::flat_cache_only(0.05)),
        0xA7F3_0DFA_3BBF_F344,
    );
    // One fused kernel, coupled copy.
    pin(
        &mut moved,
        "with_fusion",
        variant_digest(FlecheConfig::with_fusion(0.05)),
        0x0E34_3BAD_CC4B_67B6,
    );
    // Fused and decoupled, no DRAM pointers.
    pin(
        &mut moved,
        "without_unified_index",
        variant_digest(FlecheConfig::without_unified_index(0.05)),
        0x8CAD_041F_AADD_6D13,
    );

    pin(
        &mut moved,
        "breaker window",
        breaker_window_digest(false),
        BREAKER_WINDOW,
    );

    // Giant-model mode with a DRAM layer small enough that its evictions
    // invalidate unified-index pointers at batch boundaries, over a remote
    // that drops a third of its fetches: some keys fail (zero rows, never
    // admitted), some are served from the stale buffer — on the cache path
    // and, through a second breaker window, on the degraded one.
    let ds = golden_spec();
    let mut store = TieredStore::new(&ds, DramSpec::xeon_6252(), RemoteSpec::datacenter(), 0.02);
    let mut plan = FaultPlan::quiet(5);
    plan.remote.fetch_failure_rate = 0.3;
    store.set_fault_injector(Some(plan.remote_injector()));
    store.set_retry_policy(RetryPolicy::none());
    store.set_stale_serve(true);
    let sys = FlecheSystem::with_tiered_store(
        &ds,
        store,
        FlecheConfig {
            checksums: true,
            breaker: Some(golden_breaker()),
            ..FlecheConfig::full(0.02)
        },
    );
    let mut run = GoldenRun::new(&ds, sys);
    run.gpu.enable_race_checker();
    run.batches(40, Trainer::Idle);
    run.gpu.set_fault_hook(Some(every_launch_fails()));
    run.batches(10, Trainer::CommitAndPush);
    run.gpu.set_fault_hook(None);
    run.batches(20, Trainer::CommitAndPush);
    let tiered = run.sys.tiered_store().expect("tiered mode").stats();
    assert!(tiered.dram_evictions > 0);
    let lifetime = run.sys.lifetime_stats();
    assert!(lifetime.failed_keys > 0 && lifetime.stale_keys > 0);
    assert!(lifetime.degraded_batches > 0);
    run.h.word(tiered.dram_evictions);
    run.h.word(tiered.remote_fetches);
    let invalidated = run.gpu.timeline().spans();
    assert!(invalidated.iter().any(|s| s.label == "ui-invalidate"));
    pin(
        &mut moved,
        "tiered backend",
        run.finish_checked(),
        TIERED_BACKEND,
    );

    // A push outage drives resident keys past the staleness bound (enter
    // degraded mode, demote and refresh), then the outage ends and the
    // policy exits.
    let mut run = GoldenRun::flat(FlecheConfig {
        checksums: true,
        staleness: Some(StalenessConfig {
            max_lag: 2,
            resume_lag: 1,
        }),
        ..FlecheConfig::full(0.2)
    });
    run.gpu.enable_race_checker();
    run.batches(10, Trainer::Idle);
    run.batches(20, Trainer::CommitOnly);
    run.batches(20, Trainer::Idle);
    let policy = run.sys.updates().policy().expect("configured");
    assert!(policy.entries() >= 1 && policy.exits() >= 1 && !policy.degraded());
    let st = run.sys.staleness_stats();
    assert!(st.demoted > 0);
    for w in [
        policy.entries(),
        policy.exits(),
        st.hits_sampled,
        st.lag_sum,
        st.max_lag,
        st.stale_serves,
        st.demoted,
        st.refreshes,
        st.degraded_batches,
        st.updates_applied,
        st.updates_superseded,
        st.updates_absent,
    ] {
        run.h.word(w);
    }
    pin(
        &mut moved,
        "staleness window",
        run.finish_checked(),
        0xFC54_8033_D396_DE1E,
    );
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}
