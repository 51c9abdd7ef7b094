//! Per-tenant weighted admission control for multi-tenant serving.
//!
//! Production parameter servers multiplex several models ("tenants") with
//! separate SLOs over one GPU cache. Without admission control a flash
//! crowd on one tenant saturates the shared queue and every tenant's p99
//! collapses together. The policy here:
//!
//! * **Token-bucket quotas** ([`TokenBucket`]) meter each tenant's
//!   sustained rate plus a burst allowance in *simulated* time.
//! * **Over-quota-first shedding**: over-quota requests are admitted while
//!   there is room, but an in-quota arrival that finds the bounded queue
//!   full evicts the newest of them rather than being rejected.
//! * **An adaptive controller** ([`AdmissionController`]) tightens the
//!   quota of a tenant whose p99 crosses its SLO, with hysteresis (a
//!   [`fleche_chaos::StalenessPolicy`] per tenant) so it never flaps.
//!
//! None of it is a loop: `Admission` is the admit stage of the one window
//! loop in [`server`](crate::server), and [`serve_multi_tenant`] runs that
//! loop with per-tenant batches (tenants are separate models).

use crate::engine::InferenceEngine;
use crate::latency::LatencyRecorder;
use crate::server::{arrivals, drive_windows, misses_deadline, warm_up, ServerConfig, Tally};
use fleche_chaos::{StalenessConfig, StalenessPolicy};
use fleche_gpu::Ns;
use fleche_store::api::EmbeddingCacheSystem;
use fleche_workload::{BurstWindow, TraceGenerator};
use std::collections::VecDeque;

/// Host-side cost constants of the admission path, priced like every
/// other modeled cost in the stack (all in nanoseconds of simulated host
/// time; see DESIGN.md §8.3 for provenance). `Default` charges nothing,
/// as the unmetered admission of a one-tenant drive does.
#[derive(Clone, Copy, Debug, Default)]
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
    /// Sizes the cache warm-up (not measured) across all tenants, not per
    /// tenant: its rounds walk the tenants round-robin, by the rule on
    /// [`ServerConfig::warmup_requests`](crate::ServerConfig::warmup_requests).
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

/// A request waiting in the shared queue.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Waiting {
    pub(crate) tenant: usize,
    pub(crate) arrival: Ns,
    /// Admitted beyond its tenant's quota: first to shed under pressure.
    over_quota: bool,
}

/// The admit stage of the window loop: the shared bounded queue in
/// arrival order, each tenant's token bucket and the controller. The
/// default is unmetered (serial `serve`, each `serve_concurrent` worker):
/// one tenant, no bucket, no controller, no cost — it only bounds the queue.
#[derive(Default)]
pub(crate) struct Admission<'a> {
    pub(crate) queue: VecDeque<Waiting>,
    /// Arrivals of the batch last boarded.
    pub(crate) riders: Vec<Ns>,
    /// Each tenant's quota and SLO; empty when unmetered.
    pub(crate) specs: &'a [TenantSpec],
    buckets: Vec<TokenBucket>,
    controller: Option<AdmissionController>,
    /// Where each tenant's controller window starts in its latencies.
    marks: Vec<usize>,
    min_samples: usize,
    costs: OverloadCostSpec,
    /// Admission host time accrued since the last batch.
    host_ns: f64,
}

impl Admission<'_> {
    /// Admits one arrival against the queue bound `cap`. An in-quota
    /// arrival that finds the queue full evicts the newest over-quota
    /// waiter; only if there is none, or the arrival is itself over
    /// quota, does it shed.
    pub(crate) fn admit(&mut self, tally: &mut Tally, arrival: Ns, tenant: usize, cap: usize) {
        tally.offered += 1;
        let run = &mut tally.tenants[tenant];
        run.offered += 1;
        let mut over_quota = false;
        if let (Some(spec), Some(bucket), Some(c)) = (
            self.specs.get(tenant),
            self.buckets.get_mut(tenant),
            &self.controller,
        ) {
            bucket.refill(arrival, spec.quota * c.quota_factor(tenant));
            over_quota = !bucket.try_consume();
            run.over_quota += u64::from(over_quota);
            self.host_ns += self.costs.bucket_probe_ns;
        }
        if self.queue.len() >= cap {
            self.host_ns += self.costs.shed_ns;
            tally.shed(1);
            // Without buckets nothing is over quota: the queue is not scanned.
            let scan = !over_quota && !self.buckets.is_empty();
            let victim = scan.then(|| self.queue.iter().rposition(|w| w.over_quota));
            let Some(victim) = victim.flatten().and_then(|pos| self.queue.remove(pos)) else {
                let run = &mut tally.tenants[tenant];
                run.shed_quota += u64::from(over_quota);
                run.shed_queue += u64::from(!over_quota);
                return;
            };
            tally.tenants[victim.tenant].shed_quota += 1;
        }
        self.queue.push_back(Waiting {
            tenant,
            arrival,
            over_quota,
        });
        tally.max_queue_depth = tally.max_queue_depth.max(self.queue.len());
    }

    /// Sheds the waiters, oldest first, whose wait by `ready_from` already
    /// exceeds `deadline`, whatever their quota.
    pub(crate) fn shed_stale(&mut self, tally: &mut Tally, ready_from: Ns, deadline: Ns) {
        let stale = |w: &Waiting| misses_deadline(ready_from, w.arrival, deadline);
        let mut shed = 0;
        while let Some(w) = self.queue.front().copied().filter(stale) {
            self.queue.pop_front();
            tally.tenants[w.tenant].shed_deadline += 1;
            shed += 1;
        }
        self.host_ns += self.costs.shed_ns * shed as f64;
        tally.shed(shed);
    }

    /// Boards up to `max_batch` of `tenant`'s waiters, oldest first, into
    /// `riders`; returns the admission host time to charge before their
    /// batch (what accrued, plus this tenant switch).
    pub(crate) fn board(&mut self, tenant: usize, max_batch: usize) -> f64 {
        self.riders.clear();
        // With one tenant the riders are a prefix of the queue: O(batch).
        let mut i = 0;
        while self.riders.len() < max_batch && i < self.queue.len() {
            if self.queue[i].tenant == tenant {
                self.riders.extend(self.queue.remove(i).map(|w| w.arrival));
            } else {
                i += 1;
            }
        }
        std::mem::take(&mut self.host_ns) + self.costs.tenant_switch_ns
    }

    /// After each batch: every `observe_every` batches, each tenant with
    /// `min_samples` new latencies feeds their p99 to the controller.
    pub(crate) fn observe(&mut self, tally: &mut Tally) {
        let due = |c: &&mut AdmissionController| tally.batches % c.config.observe_every.max(1) == 0;
        let Some(controller) = self.controller.as_mut().filter(due) else {
            return;
        };
        for (t, run) in tally.tenants.iter_mut().enumerate() {
            if run.latency.len() - self.marks[t] >= self.min_samples {
                let p99 = run.latency.p99_since(self.marks[t]);
                controller.observe(t, p99, self.specs[t].slo_p99);
                self.marks[t] = run.latency.len();
                self.host_ns += self.costs.controller_update_ns;
                (run.tighten_entries, run.tighten_exits) =
                    (controller.entries(t), controller.exits(t));
            }
        }
    }
}

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
    assert!(config.queue_capacity > 0, "queue bound must be positive");
    let mut window = ServerConfig {
        offered_load: 0.0,
        max_batch: config.max_batch,
        requests: 0,
        warmup_requests: config.warmup_requests,
        queue_capacity: Some(config.queue_capacity),
        deadline: config.deadline,
    };
    warm_up(engine, gens, &window);
    // Each tenant draws its own substream; the source merges them in time
    // order, ties to the lower tenant.
    let base = engine.gpu().now();
    let mut source = Vec::new();
    for (t, spec) in config.tenants.iter().enumerate() {
        assert!(spec.quota > 0.0, "quota must be positive");
        (window.offered_load, window.requests) = (spec.offered_load, spec.requests);
        source.extend(arrivals(t, &window, spec.bursts.clone(), base).map(|a| (t, a)));
    }
    source.sort_by(|a, b| a.1.as_ns().total_cmp(&b.1.as_ns()).then(a.0.cmp(&b.0)));
    window.requests = source.len();
    let admission = Admission {
        specs: &config.tenants,
        buckets: (config.tenants.iter())
            .map(|t| TokenBucket::new(t.quota_burst.max(1.0), base))
            .collect(),
        controller: Some(AdmissionController::new(n, config.controller)),
        min_samples: config.controller_min_samples,
        marks: vec![0; n],
        costs: config.costs,
        ..Admission::default()
    };
    let run = |engine: &mut InferenceEngine<S>, tenant: usize, count| {
        engine.run_batch(&gens[tenant].next_batch(count));
    };
    let tally = drive_windows(engine, &window, admission, source.into_iter(), run);
    let (mut intervals, tenth) = (tally.intervals.to_vec(), tally.tenth);
    for (k, interval) in (0..).zip(&mut intervals) {
        interval.offered = tally.offered.saturating_sub(k * tenth).min(tenth);
    }
    MultiTenantRun {
        tenants: tally.tenants,
        batches: tally.batches,
        max_queue_depth: tally.max_queue_depth,
        intervals,
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
        let tail = &rates[rates.len() / 2..];
        let spread = tail.iter().fold(0.0f64, |m, r| {
            m.max(*r - tail.iter().cloned().fold(f64::INFINITY, f64::min))
        });
        assert!(spread < 0.35, "late-run shed rate oscillates: {rates:?}");
    }

    #[test]
    fn every_shed_is_charged_to_an_interval() {
        // A queue too deep to fill: every shed is a deadline shed.
        let (mut engine, mut gens) = build();
        let mut cfg = MultiTenantConfig::symmetric(2, 3_000_000.0, 1_500);
        cfg.warmup_requests = 1_000;
        cfg.queue_capacity = 1 << 20;
        cfg.deadline = Some(Ns::from_us(200.0));
        let run = serve_multi_tenant(&mut engine, &mut gens, &cfg);
        let deadline: u64 = run.tenants.iter().map(|t| t.shed_deadline).sum();
        assert!(deadline > 0, "overload must age out waiters");
        let shed: u64 = (run.tenants.iter())
            .map(|t| t.shed_quota + t.shed_queue + t.shed_deadline)
            .sum();
        assert_eq!(run.intervals.iter().map(|iv| iv.shed).sum::<u64>(), shed);
        assert_eq!(
            run.intervals.iter().map(|iv| iv.offered).sum::<u64>(),
            run.offered()
        );
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
}
