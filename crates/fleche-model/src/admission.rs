//! Per-tenant weighted admission control for multi-tenant serving.
//!
//! Production parameter servers multiplex several models ("tenants") with
//! separate SLOs over one GPU cache. Without admission control a flash
//! crowd on one tenant saturates the shared queue and every tenant's p99
//! collapses together. This module adds the overload-robustness layer:
//!
//! * **Token-bucket quotas** ([`TokenBucket`]) — each tenant buys a
//!   sustained admission rate plus a burst allowance, metered in
//!   *simulated* time like everything else in the stack.
//! * **Over-quota-first shedding** — requests beyond a tenant's quota are
//!   still admitted while there is room (work-conserving), but they are
//!   the first to go when the bounded queue fills or a deadline passes:
//!   an in-quota arrival that finds the queue full evicts the newest
//!   over-quota waiter rather than being rejected.
//! * **Bounded-queue backpressure** — the shared admission queue has a
//!   hard bound; nothing in the serving path grows with offered load.
//! * **An adaptive controller** ([`AdmissionController`]) — measured
//!   per-tenant p99 is compared against the tenant's SLO; a tenant whose
//!   tail crosses its SLO has its quota tightened, and the tightening
//!   relaxes with hysteresis so admission never flaps at the bound. The
//!   hysteresis state machine *is* the PR-1 breaker surface: each tenant
//!   wraps a [`fleche_chaos::StalenessPolicy`] with the p99/SLO ratio
//!   mapped onto its lag domain.
//!
//! [`serve_multi_tenant`] drives all of it in one deterministic
//! discrete-event loop (the multi-tenant sibling of
//! [`serve`](crate::serve)): per-tenant Poisson arrival streams merge
//! into one admission-controlled queue, batches are formed per tenant
//! (tenants are separate models — their requests cannot share a device
//! batch), and cache hit rates are attributed per tenant from the
//! system's lifetime counters.
//!
//! That loop is deliberately *not* the single-tenant window loop in
//! [`server`](crate::server) (source → window/seal → shed → execute →
//! tally). It admits against the queue bound *at arrival* and then sheds
//! on deadline; the single-tenant loop sheds on deadline and then
//! truncates the window to the bound. It also batches per tenant, and
//! its warm-up walks the tenants round-robin. A shared loop would have to
//! branch on which caller it serves — or change `overload_drill`'s
//! numbers — so the two stay apart and share only the leaf rules
//! ([`misses_deadline`], [`ARRIVAL_SEED`]).

use crate::engine::InferenceEngine;
use crate::latency::LatencyRecorder;
use crate::server::{misses_deadline, ARRIVAL_SEED};
use fleche_chaos::{StalenessConfig, StalenessPolicy};
use fleche_gpu::{declare_pipeline_handoffs, Ns, RaceChecker};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_workload::{ArrivalGen, BurstWindow, TraceGenerator};
use std::collections::VecDeque;

/// Host-side cost constants of the admission path, priced like every
/// other modeled cost in the stack (all in nanoseconds of simulated host
/// time; see DESIGN.md §8.3 for provenance).
#[derive(Clone, Copy, Debug)]
pub struct OverloadCostSpec {
    /// Per-arrival token-bucket refill + consume (one clamped
    /// multiply-add and a compare on cached state).
    pub bucket_probe_ns: f64,
    /// Per shed decision: unlinking a victim from the bounded queue and
    /// recording the drop.
    pub shed_ns: f64,
    /// Per adaptive-controller observation: a quantile read over the
    /// tenant's rolling latency window plus the hysteresis update.
    pub controller_update_ns: f64,
    /// Per batch: switching the cache's active tenant and snapshotting
    /// lifetime counters for per-tenant attribution.
    pub tenant_switch_ns: f64,
}

impl OverloadCostSpec {
    /// The modeled constants.
    pub fn modeled() -> OverloadCostSpec {
        OverloadCostSpec {
            bucket_probe_ns: 18.0,
            shed_ns: 25.0,
            controller_update_ns: 180.0,
            tenant_switch_ns: 120.0,
        }
    }
}

impl Default for OverloadCostSpec {
    fn default() -> OverloadCostSpec {
        OverloadCostSpec::modeled()
    }
}

/// A token bucket metered in simulated time: `rate` tokens per second
/// accrue up to a `burst` ceiling, and each admitted request consumes
/// one. The refill rate is passed at probe time so an adaptive controller
/// can tighten it without touching accrued credit.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    burst: f64,
    tokens: f64,
    last: Ns,
}

impl TokenBucket {
    /// A bucket that starts full at `now`.
    pub fn new(burst: f64, now: Ns) -> TokenBucket {
        assert!(burst > 0.0, "burst must be positive");
        TokenBucket {
            burst,
            tokens: burst,
            last: now,
        }
    }

    /// Accrues credit at `rate` tokens/s from the latest probe to `now`,
    /// clamped to the burst ceiling. A probe older than the latest one
    /// accrues nothing and leaves the clock where it was, so no interval
    /// is credited twice.
    pub fn refill(&mut self, now: Ns, rate: f64) {
        let dt = now.saturating_sub(self.last).as_secs();
        self.tokens = (self.tokens + rate * dt).min(self.burst);
        self.last = self.last.max(now);
    }

    /// Consumes one token if available. Call [`TokenBucket::refill`]
    /// first.
    pub fn try_consume(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Current credit.
    pub fn level(&self) -> f64 {
        self.tokens
    }
}

/// One tenant of the shared serving front-end.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Offered load in requests per second.
    pub offered_load: f64,
    /// Measured requests this tenant sends (after warm-up).
    pub requests: usize,
    /// Sustained admission quota in requests per second.
    pub quota: f64,
    /// Token-bucket depth in requests (burst allowance above the quota).
    pub quota_burst: f64,
    /// The tenant's p99 latency SLO, driving the adaptive controller.
    pub slo_p99: Ns,
    /// Rate-modulation windows on this tenant's arrival stream (a flash
    /// crowd is one such window).
    pub bursts: Vec<BurstWindow>,
}

/// Adaptive-controller knobs. Tightening enters when a tenant's measured
/// p99 crosses `slo_entry ×` its SLO and exits below `slo_exit ×` — the
/// gap is the hysteresis band, carried by the PR-1
/// [`StalenessPolicy`] transition surface.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// Master switch; disabled leaves quotas static.
    pub enabled: bool,
    /// Batches between controller observations.
    pub observe_every: u64,
    /// Quota multiplier applied while a tenant is tightened.
    pub tighten_factor: f64,
    /// p99/SLO ratio at which tightening engages (≥ `slo_exit`).
    pub slo_entry: f64,
    /// p99/SLO ratio at or below which tightening releases.
    pub slo_exit: f64,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            enabled: true,
            observe_every: 8,
            tighten_factor: 0.5,
            slo_entry: 1.0,
            slo_exit: 0.8,
        }
    }
}

/// Fixed-point scale mapping a p99/SLO ratio onto the integer lag domain
/// of [`StalenessPolicy`] (ratio 1.0 → lag 1000).
const RATIO_SCALE: f64 = 1000.0;

/// Per-tenant adaptive admission: the p99/SLO ratio of each observation
/// window feeds a hysteresis state machine; while engaged, the tenant's
/// effective quota is multiplied by
/// [`ControllerConfig::tighten_factor`].
#[derive(Debug)]
pub struct AdmissionController {
    config: ControllerConfig,
    policies: Vec<StalenessPolicy>,
}

impl AdmissionController {
    /// A controller over `tenants` tenants.
    pub fn new(tenants: usize, config: ControllerConfig) -> AdmissionController {
        assert!(
            config.slo_exit <= config.slo_entry,
            "hysteresis requires slo_exit <= slo_entry"
        );
        assert!(
            config.tighten_factor > 0.0 && config.tighten_factor <= 1.0,
            "tighten_factor must be in (0, 1]"
        );
        let policy = StalenessConfig {
            max_lag: (config.slo_entry * RATIO_SCALE) as u64,
            resume_lag: (config.slo_exit * RATIO_SCALE) as u64,
        };
        AdmissionController {
            config,
            policies: (0..tenants).map(|_| StalenessPolicy::new(policy)).collect(),
        }
    }

    /// Feeds one window's measured p99 for `tenant`; returns whether the
    /// tenant is tightened *after* the observation.
    pub fn observe(&mut self, tenant: usize, p99: Ns, slo: Ns) -> bool {
        if !self.config.enabled {
            return false;
        }
        let ratio = p99.as_ns() / slo.as_ns().max(1.0);
        self.policies[tenant].observe((ratio * RATIO_SCALE) as u64)
    }

    /// Whether `tenant` is currently tightened.
    pub fn tightened(&self, tenant: usize) -> bool {
        self.policies[tenant].degraded()
    }

    /// The quota multiplier in effect for `tenant`.
    pub fn quota_factor(&self, tenant: usize) -> f64 {
        if self.tightened(tenant) {
            self.config.tighten_factor
        } else {
            1.0
        }
    }

    /// Times `tenant` entered tightened admission.
    pub fn entries(&self, tenant: usize) -> u64 {
        self.policies[tenant].entries()
    }

    /// Times `tenant` relaxed back out.
    pub fn exits(&self, tenant: usize) -> u64 {
        self.policies[tenant].exits()
    }
}

/// Configuration of [`serve_multi_tenant`].
#[derive(Clone, Debug)]
pub struct MultiTenantConfig {
    /// The tenants sharing the engine.
    pub tenants: Vec<TenantSpec>,
    /// Maximum samples per engine invocation (per-tenant batches).
    pub max_batch: usize,
    /// Warm-up requests per tenant (not measured).
    pub warmup_requests: usize,
    /// Bound of the shared admission queue.
    pub queue_capacity: usize,
    /// Shed a queued request once its wait alone exceeds this.
    pub deadline: Option<Ns>,
    /// Adaptive-controller knobs.
    pub controller: ControllerConfig,
    /// Minimum latency samples in a window before the controller reads
    /// its p99.
    pub controller_min_samples: usize,
    /// Admission-path cost constants.
    pub costs: OverloadCostSpec,
    /// Replay the per-tenant admission hand-offs through the race
    /// checker after the run.
    pub analyze: bool,
}

impl MultiTenantConfig {
    /// A two-knob starting point: `tenants` identical tenants at
    /// `offered_load` each, quota matching offered load with 25% burst
    /// headroom, and defaults everywhere else.
    pub fn symmetric(tenants: usize, offered_load: f64, requests: usize) -> MultiTenantConfig {
        MultiTenantConfig {
            tenants: (0..tenants)
                .map(|_| TenantSpec {
                    offered_load,
                    requests,
                    quota: offered_load,
                    quota_burst: (offered_load * 0.25).max(16.0),
                    slo_p99: Ns::from_ms(2.0),
                    bursts: Vec::new(),
                })
                .collect(),
            max_batch: 256,
            warmup_requests: 2_000,
            queue_capacity: 1_024,
            deadline: None,
            controller: ControllerConfig::default(),
            controller_min_samples: 32,
            costs: OverloadCostSpec::modeled(),
            analyze: false,
        }
    }
}

/// One tenant's serving outcome.
#[derive(Debug, Default)]
pub struct TenantRun {
    /// Requests offered (arrived).
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Arrivals that exceeded the tenant's token bucket (admitted
    /// best-effort, first to shed).
    pub over_quota: u64,
    /// Over-quota requests shed under queue pressure.
    pub shed_quota: u64,
    /// In-quota requests shed because the queue was full with no
    /// over-quota victim available.
    pub shed_queue: u64,
    /// Requests shed after outwaiting the deadline.
    pub shed_deadline: u64,
    /// Per-request latency of served requests.
    pub latency: LatencyRecorder,
    /// Unique-key cache hits attributed to this tenant's batches.
    pub hits: u64,
    /// Unique keys queried by this tenant's batches.
    pub unique_keys: u64,
    /// Times the controller tightened this tenant.
    pub tighten_entries: u64,
    /// Times the controller relaxed it again.
    pub tighten_exits: u64,
}

impl TenantRun {
    /// Cache hit rate over this tenant's unique keys.
    pub fn hit_rate(&self) -> f64 {
        if self.unique_keys == 0 {
            0.0
        } else {
            self.hits as f64 / self.unique_keys as f64
        }
    }

    /// Fraction of offered requests shed (any cause).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.shed_quota + self.shed_queue + self.shed_deadline) as f64 / self.offered as f64
        }
    }
}

/// Shed accounting over one fixed fraction of the arrival stream, for
/// convergence checks (a bounded system's shed rate settles; an unstable
/// one's climbs without bound).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShedInterval {
    /// Arrivals in the interval.
    pub offered: u64,
    /// Sheds (any cause) in the interval.
    pub shed: u64,
}

impl ShedInterval {
    /// The interval's shed rate.
    pub fn rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// Result of a multi-tenant serving run.
#[derive(Debug)]
pub struct MultiTenantRun {
    /// Per-tenant outcomes, indexed by tenant.
    pub tenants: Vec<TenantRun>,
    /// Batches executed.
    pub batches: u64,
    /// Deepest the shared admission queue ever got (≤ the configured
    /// bound by construction — reported so drills can assert it).
    pub max_queue_depth: usize,
    /// Shed accounting per tenth of the arrival stream, in order.
    pub intervals: Vec<ShedInterval>,
    /// Races found replaying the admission hand-offs (`Some` only when
    /// [`MultiTenantConfig::analyze`] was set).
    pub races: Option<usize>,
}

impl MultiTenantRun {
    /// Offered requests across tenants.
    pub fn offered(&self) -> u64 {
        self.tenants.iter().map(|t| t.offered).sum()
    }

    /// Served requests across tenants.
    pub fn served(&self) -> u64 {
        self.tenants.iter().map(|t| t.served).sum()
    }
}

/// A request waiting in the shared admission queue.
#[derive(Clone, Copy, Debug)]
struct Waiting {
    tenant: usize,
    arrival: Ns,
    over_quota: bool,
}

/// Number of [`ShedInterval`]s the run is split into.
const INTERVALS: usize = 10;

/// Everything an arrival touches on its way into the shared queue.
struct Admission<'a> {
    config: &'a MultiTenantConfig,
    /// Every tenant's arrivals merged into one time-ordered stream.
    arrivals: Vec<(Ns, usize)>,
    queue: VecDeque<Waiting>,
    buckets: Vec<TokenBucket>,
    runs: Vec<TenantRun>,
    intervals: Vec<ShedInterval>,
    max_queue_depth: usize,
    /// Simulated host nanoseconds of admission work accrued since the last
    /// batch, charged in one lump before the next engine invocation.
    pending_cost_ns: f64,
}

impl Admission<'_> {
    /// Admits `arrivals[i]`, shedding over-quota work first under pressure.
    fn admit(&mut self, i: usize, controller: &AdmissionController) {
        let config = self.config;
        let (arrival, tenant) = self.arrivals[i];
        let interval_len = self.arrivals.len().div_ceil(INTERVALS).max(1);
        let interval = &mut self.intervals[(i / interval_len).min(INTERVALS - 1)];
        self.runs[tenant].offered += 1;
        interval.offered += 1;
        let rate = config.tenants[tenant].quota * controller.quota_factor(tenant);
        self.buckets[tenant].refill(arrival, rate);
        let over_quota = !self.buckets[tenant].try_consume();
        self.pending_cost_ns += config.costs.bucket_probe_ns;
        if over_quota {
            self.runs[tenant].over_quota += 1;
        }
        if self.queue.len() >= config.queue_capacity {
            self.pending_cost_ns += config.costs.shed_ns;
            interval.shed += 1;
            if over_quota {
                // Over-quota arrival into a full queue: drop it.
                self.runs[tenant].shed_quota += 1;
                return;
            }
            // In-quota arrival: evict the newest over-quota waiter in its
            // favor; only if every waiter is in quota does the arrival
            // itself shed.
            let victim = self.queue.iter().rposition(|w| w.over_quota);
            if let Some(victim) = victim.and_then(|pos| self.queue.remove(pos)) {
                self.runs[victim.tenant].shed_quota += 1;
            } else {
                self.runs[tenant].shed_queue += 1;
                return;
            }
        }
        self.queue.push_back(Waiting {
            tenant,
            arrival,
            over_quota,
        });
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
    }
}

/// Race-checker slot base of the per-tenant admission rings (distinct
/// from the queue lanes at 0 and the pipeline rings at `1 << 16` used by
/// the concurrent front-end).
const ADMISSION_SLOT_BASE: u32 = 2 << 16;

/// Runs the multi-tenant admission-controlled server over `engine`.
/// `gens[t]` is tenant `t`'s trace generator (tenants are separate
/// models; give each its own dynamics to model churn on one tenant
/// only). All simulated time, fully deterministic.
pub fn serve_multi_tenant<S: EmbeddingCacheSystem>(
    engine: &mut InferenceEngine<S>,
    gens: &mut [TraceGenerator],
    config: &MultiTenantConfig,
) -> MultiTenantRun {
    let n = config.tenants.len();
    assert!(n >= 1, "need at least one tenant");
    assert_eq!(gens.len(), n, "one trace generator per tenant");
    assert!(config.max_batch > 0, "max batch must be positive");
    assert!(config.queue_capacity > 0, "queue bound must be positive");
    for t in &config.tenants {
        assert!(t.offered_load > 0.0, "offered load must be positive");
        assert!(t.quota > 0.0, "quota must be positive");
    }

    // Warm every tenant's working set round-robin, under its identity so
    // tenant-partitioned caches attribute the residency correctly.
    let warm_chunk = config.max_batch.min(256);
    for round in 0..config.warmup_requests.div_ceil(warm_chunk) {
        let t = round % n;
        engine.system_mut().set_active_tenant(t);
        let b = gens[t].next_batch(warm_chunk);
        engine.run_batch(&b);
    }
    engine.system_mut().reset_stats();

    // Pre-draw each tenant's Poisson arrivals from its own substream,
    // then merge into one time-ordered stream (ties break by tenant).
    let base = engine.gpu().now();
    let mut merged: Vec<(Ns, usize)> = Vec::new();
    for (ti, spec) in config.tenants.iter().enumerate() {
        let seed = ARRIVAL_SEED.wrapping_add((ti as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut agen = ArrivalGen::new(seed, Ns::from_secs(1.0 / spec.offered_load).as_ns())
            .with_bursts(spec.bursts.clone());
        let mut t = base;
        for _ in 0..spec.requests {
            t += Ns(agen.next_gap_ns());
            merged.push((t, ti));
        }
    }
    merged.sort_by(|a, b| {
        a.0.as_ns()
            .partial_cmp(&b.0.as_ns())
            .expect("arrival times are finite")
            .then(a.1.cmp(&b.1))
    });

    let mut controller = AdmissionController::new(n, config.controller);
    let mut adm = Admission {
        config,
        arrivals: merged,
        queue: VecDeque::new(),
        buckets: config
            .tenants
            .iter()
            .map(|t| TokenBucket::new(t.quota_burst.max(1.0), base))
            .collect(),
        runs: (0..n).map(|_| TenantRun::default()).collect(),
        intervals: vec![ShedInterval::default(); INTERVALS],
        max_queue_depth: 0,
        pending_cost_ns: 0.0,
    };
    let mut windows: Vec<LatencyRecorder> = (0..n).map(|_| LatencyRecorder::new()).collect();
    let mut batches = 0u64;
    let mut next = 0usize;

    loop {
        if adm.queue.is_empty() {
            if next >= adm.arrivals.len() {
                break;
            }
            // Engine idle with nothing queued: skip to the next arrival.
            let now = engine.gpu().now();
            if adm.arrivals[next].0 > now {
                engine
                    .gpu_mut()
                    .elapse_host("idle", adm.arrivals[next].0 - now);
            }
            adm.admit(next, &controller);
            next += 1;
            continue;
        }
        let now = engine.gpu().now();
        let ready_from = now.max(adm.queue.front().expect("queue non-empty").arrival);
        // Pull in everything that has arrived by the window anchor.
        while next < adm.arrivals.len() && adm.arrivals[next].0 <= ready_from {
            adm.admit(next, &controller);
            next += 1;
        }
        // Deadline shedding at plan time: anything that has already
        // outwaited the budget is dead weight regardless of quota.
        if let Some(dl) = config.deadline {
            let before = adm.queue.len();
            let runs = &mut adm.runs;
            adm.queue.retain(|w| {
                if misses_deadline(ready_from, w.arrival, dl) {
                    runs[w.tenant].shed_deadline += 1;
                    false
                } else {
                    true
                }
            });
            adm.pending_cost_ns += config.costs.shed_ns * (before - adm.queue.len()) as f64;
            if adm.queue.is_empty() {
                continue;
            }
        }
        // Per-tenant batch: the tenant with the oldest waiter goes next;
        // its waiters inside the window ride along in arrival order.
        let tenant = adm.queue.front().expect("queue non-empty").tenant;
        let mut members: Vec<Ns> = Vec::new();
        let mut kept: VecDeque<Waiting> = VecDeque::with_capacity(adm.queue.len());
        for w in adm.queue.drain(..) {
            if w.tenant == tenant && w.arrival <= ready_from && members.len() < config.max_batch {
                members.push(w.arrival);
            } else {
                kept.push_back(w);
            }
        }
        adm.queue = kept;
        let count = members.len();
        debug_assert!(count > 0, "front waiter is always in window");
        if members[0] > now {
            engine.gpu_mut().elapse_host("idle", members[0] - now);
        }
        adm.pending_cost_ns += config.costs.tenant_switch_ns;
        if adm.pending_cost_ns > 0.0 {
            engine
                .gpu_mut()
                .elapse_host("admission", Ns(adm.pending_cost_ns));
            adm.pending_cost_ns = 0.0;
        }
        engine.system_mut().set_active_tenant(tenant);
        let before = engine.system().lifetime_stats();
        let batch = gens[tenant].next_batch(count);
        engine.run_batch(&batch);
        let after = engine.system().lifetime_stats();
        let done = engine.gpu().now();
        let run = &mut adm.runs[tenant];
        run.hits += after.hits - before.hits;
        run.unique_keys += after.unique_keys - before.unique_keys;
        run.served += count as u64;
        for &arr in &members {
            run.latency.record(done - arr);
            windows[tenant].record(done - arr);
        }
        batches += 1;
        if config.controller.enabled && batches % config.controller.observe_every.max(1) == 0 {
            for (t, window) in windows.iter_mut().enumerate() {
                if window.len() >= config.controller_min_samples {
                    controller.observe(t, window.p99(), config.tenants[t].slo_p99);
                    *window = LatencyRecorder::new();
                    adm.pending_cost_ns += config.costs.controller_update_ns;
                }
            }
        }
    }

    for (t, run) in adm.runs.iter_mut().enumerate() {
        run.tighten_entries = controller.entries(t);
        run.tighten_exits = controller.exits(t);
    }

    // Replay the admission hand-offs: each tenant's admitted requests
    // flow through a ring bounded by the queue capacity, publish edge
    // from admit to dispatch and credit edge back — the same protocol
    // shape the concurrent front-end's lanes replay.
    let races = config.analyze.then(|| {
        let mut total = 0;
        for (t, run) in adm.runs.iter().enumerate() {
            let mut c = RaceChecker::new();
            declare_pipeline_handoffs(
                &mut c,
                t as u16,
                ADMISSION_SLOT_BASE,
                config.queue_capacity as u32,
                run.served,
                true,
            );
            total += c.race_count();
        }
        total
    });

    MultiTenantRun {
        tenants: adm.runs,
        batches,
        max_queue_depth: adm.max_queue_depth,
        intervals: adm.intervals,
        races,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseModel;
    use crate::engine::ModelMode;
    use fleche_core::{FlecheConfig, FlecheSystem};
    use fleche_gpu::{DeviceSpec, DramSpec, Gpu};
    use fleche_store::CpuStore;
    use fleche_workload::spec;

    fn build() -> (InferenceEngine<FlecheSystem>, Vec<TraceGenerator>) {
        let ds = spec::synthetic(8, 5_000, 16, -1.3);
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.05));
        let dense = DenseModel::dcn_paper(InferenceEngine::<FlecheSystem>::concat_dim(&ds));
        let engine = InferenceEngine::new(
            Gpu::new(DeviceSpec::t4()),
            sys,
            dense,
            ModelMode::EmbeddingOnly,
            &ds,
        );
        let gens = (0..2).map(|_| TraceGenerator::new(&ds)).collect();
        (engine, gens)
    }

    #[test]
    fn token_bucket_semantics() {
        let mut b = TokenBucket::new(4.0, Ns::ZERO);
        assert_eq!(b.level(), 4.0);
        for _ in 0..4 {
            assert!(b.try_consume());
        }
        assert!(!b.try_consume(), "bucket drained");
        // 1000 tokens/s for 2 ms accrues 2 tokens.
        b.refill(Ns::from_ms(2.0), 1_000.0);
        assert!((b.level() - 2.0).abs() < 1e-9);
        assert!(b.try_consume());
        // Credit clamps at the burst ceiling.
        b.refill(Ns::from_secs(10.0), 1_000.0);
        assert_eq!(b.level(), 4.0);
    }

    #[test]
    fn token_bucket_out_of_order_probe_credits_no_interval_twice() {
        let mut b = TokenBucket::new(4.0, Ns::ZERO);
        for _ in 0..4 {
            assert!(b.try_consume());
        }
        // The 1 ms probe arrives late; the 1–2 ms interval is already
        // credited by the 2 ms probe and must not be credited again.
        b.refill(Ns::from_ms(2.0), 1_000.0);
        b.refill(Ns::from_ms(1.0), 1_000.0);
        b.refill(Ns::from_ms(2.0), 1_000.0);
        assert!((b.level() - 2.0).abs() < 1e-9, "level {}", b.level());
    }

    #[test]
    fn controller_hysteresis_band() {
        let mut c = AdmissionController::new(1, ControllerConfig::default());
        let slo = Ns::from_ms(1.0);
        assert!(!c.tightened(0));
        // Over the SLO: tighten.
        assert!(c.observe(0, Ns::from_ms(1.2), slo));
        assert_eq!(c.quota_factor(0), 0.5);
        // Inside the band (0.8..1.0): stays tightened — no flapping.
        assert!(c.observe(0, Ns::from_ms(0.9), slo));
        // At the exit threshold: release.
        assert!(!c.observe(0, Ns::from_ms(0.8), slo));
        assert_eq!(c.quota_factor(0), 1.0);
        assert_eq!(c.entries(0), 1);
        assert_eq!(c.exits(0), 1);
    }

    #[test]
    fn light_load_serves_everything() {
        let (mut engine, mut gens) = build();
        let mut cfg = MultiTenantConfig::symmetric(2, 20_000.0, 600);
        cfg.warmup_requests = 1_200;
        let run = serve_multi_tenant(&mut engine, &mut gens, &cfg);
        assert_eq!(run.offered(), 1_200);
        assert_eq!(run.served(), 1_200);
        for t in &run.tenants {
            assert_eq!(t.shed_rate(), 0.0);
            assert_eq!(t.latency.len() as u64, t.served);
        }
        assert!(run.max_queue_depth <= cfg.queue_capacity);
    }

    #[test]
    fn overload_is_bounded_and_accounted() {
        let (mut engine, mut gens) = build();
        let mut cfg = MultiTenantConfig::symmetric(2, 6_000_000.0, 2_000);
        cfg.warmup_requests = 1_200;
        cfg.queue_capacity = 128;
        cfg.deadline = Some(Ns::from_us(400.0));
        // Quota far below offered: most traffic is over-quota.
        for t in &mut cfg.tenants {
            t.quota = 500_000.0;
            t.quota_burst = 64.0;
        }
        let run = serve_multi_tenant(&mut engine, &mut gens, &cfg);
        assert!(run.max_queue_depth <= 128);
        for t in &run.tenants {
            assert_eq!(
                t.served + t.shed_quota + t.shed_queue + t.shed_deadline,
                t.offered,
                "every request is served or shed exactly once"
            );
            assert!(t.over_quota > 0, "offered load far exceeds quota");
            assert!(t.shed_rate() > 0.2, "2x+ overload must shed");
        }
        // The shed rate settles rather than climbing without bound.
        let rates: Vec<f64> = run.intervals.iter().map(ShedInterval::rate).collect();
        let tail = &rates[INTERVALS / 2..];
        let spread = tail.iter().fold(0.0f64, |m, r| {
            m.max(*r - tail.iter().cloned().fold(f64::INFINITY, f64::min))
        });
        assert!(spread < 0.35, "late-run shed rate oscillates: {rates:?}");
    }

    #[test]
    fn runs_are_deterministic() {
        let once = || {
            let (mut engine, mut gens) = build();
            let mut cfg = MultiTenantConfig::symmetric(2, 3_000_000.0, 800);
            cfg.warmup_requests = 1_000;
            cfg.queue_capacity = 64;
            cfg.deadline = Some(Ns::from_us(500.0));
            serve_multi_tenant(&mut engine, &mut gens, &cfg)
        };
        let a = once();
        let b = once();
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.max_queue_depth, b.max_queue_depth);
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.offered, y.offered);
            assert_eq!(x.served, y.served);
            assert_eq!(x.shed_quota, y.shed_quota);
            assert_eq!(x.shed_queue, y.shed_queue);
            assert_eq!(x.shed_deadline, y.shed_deadline);
            assert_eq!(x.hits, y.hits);
            assert_eq!(x.unique_keys, y.unique_keys);
            assert_eq!(
                x.latency.p99().as_ns().to_bits(),
                y.latency.p99().as_ns().to_bits()
            );
        }
    }

    #[test]
    fn over_quota_traffic_sheds_first() {
        let (mut engine, mut gens) = build();
        let mut cfg = MultiTenantConfig::symmetric(2, 2_000_000.0, 1_500);
        cfg.warmup_requests = 1_000;
        cfg.queue_capacity = 96;
        cfg.deadline = Some(Ns::from_us(400.0));
        // Tenant 0 is the hog: it offers 4x its quota. Tenant 1 stays
        // within quota.
        cfg.tenants[0].quota = 500_000.0;
        cfg.tenants[0].quota_burst = 32.0;
        cfg.tenants[1].quota = 4_000_000.0;
        cfg.tenants[1].quota_burst = 512.0;
        let run = serve_multi_tenant(&mut engine, &mut gens, &cfg);
        let hog = &run.tenants[0];
        let good = &run.tenants[1];
        assert!(hog.shed_quota > 0, "the hog's over-quota traffic sheds");
        assert!(
            hog.shed_rate() > good.shed_rate(),
            "shedding lands on the over-quota tenant first: hog {} vs good {}",
            hog.shed_rate(),
            good.shed_rate()
        );
    }

    #[test]
    fn controller_tightens_under_slo_violation() {
        let (mut engine, mut gens) = build();
        let mut cfg = MultiTenantConfig::symmetric(2, 5_000_000.0, 2_000);
        cfg.warmup_requests = 1_000;
        cfg.queue_capacity = 512;
        // An SLO far below what sustained overload can deliver: the
        // controller must engage.
        for t in &mut cfg.tenants {
            t.slo_p99 = Ns::from_us(50.0);
        }
        cfg.controller.observe_every = 4;
        cfg.controller_min_samples = 16;
        let run = serve_multi_tenant(&mut engine, &mut gens, &cfg);
        assert!(
            run.tenants.iter().any(|t| t.tighten_entries > 0),
            "sustained SLO violation must tighten admission"
        );
    }

    #[test]
    fn analyze_replays_admission_handoffs_race_free() {
        let (mut engine, mut gens) = build();
        let mut cfg = MultiTenantConfig::symmetric(2, 200_000.0, 400);
        cfg.warmup_requests = 800;
        cfg.analyze = true;
        let run = serve_multi_tenant(&mut engine, &mut gens, &cfg);
        assert_eq!(run.races, Some(0));
    }
}
