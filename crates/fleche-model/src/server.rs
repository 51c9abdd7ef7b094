//! Open-loop serving simulation: the one single-tenant serving loop.
//!
//! The paper's throughput-vs-latency curves (Exp #2) come from a loaded
//! inference server, where observed latency is queueing delay plus service
//! time. Requests arrive in a Poisson stream at a configured offered load,
//! a batcher groups whatever is queued (up to a maximum batch) whenever
//! the engine goes idle, and per-request latency is measured from arrival
//! to batch completion. As offered load approaches the service capacity,
//! queueing inflates the tail — the hockey-stick of the paper's Figure 10.
//!
//! Every single-tenant drive is a configuration of the same five stages,
//! each written once:
//!
//! ```text
//!  source ──► window / seal ──► shed ──► execute ──► tally
//!
//!  source   serve: `arrivals` drawn in-thread — no queue, no threads
//!           serve_concurrent: the same stream through the worker's lane
//!  window   no linger: `drive_windows` — all that arrived by the time
//!           the engine is idle and its first waiter is there
//!  seal     linger: `MicroBatcher::seal_next` on the prep thread
//!  shed     deadline (window: then the queue bound; seal: again at dequeue)
//!  execute  `Tally::execute` — idle skip, run, busy time, rider latencies
//!  tally    `Tally::finish` — the one `ServedRun`
//! ```
//!
//! So serial [`serve`] is not a loop of its own, and one
//! [`serve_concurrent`](crate::serve_concurrent) worker without a linger
//! is bit-identical to it. The multi-tenant server
//! ([`serve_multi_tenant`](crate::serve_multi_tenant)) stays separate on
//! purpose; its module doc says why.
//!
//! Overload protection is optional and off by default: a bounded admission
//! queue rejects arrivals that find it full, and a deadline sheds queued
//! requests that have already waited too long to be worth serving. Both
//! show up in [`ServedRun`]'s shed counters instead of inflating the tail.

use crate::engine::InferenceEngine;
use crate::latency::LatencyRecorder;
use fleche_gpu::Ns;
use fleche_store::api::{EmbeddingCacheSystem, LifetimeStats};
use fleche_workload::{ArrivalGen, BurstWindow, TraceGenerator};
use std::collections::VecDeque;

/// Seed of the arrival stream: every drive, serial or concurrent, replays
/// the identical Poisson process.
pub const ARRIVAL_SEED: u64 = 0x005E_A7ED;

/// The deadline-shedding rule, shared by the window loop and the
/// micro-batcher: a request sheds when its queueing wait alone —
/// the time from `arrival` to the moment the batch would seal
/// (`seal_at`) — already exceeds `deadline`, so serving it could no
/// longer meet the SLA.
pub fn misses_deadline(seal_at: Ns, arrival: Ns, deadline: Ns) -> bool {
    seal_at.saturating_sub(arrival) > deadline
}

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Offered load in requests (samples) per second.
    pub offered_load: f64,
    /// Maximum samples the batcher packs into one engine invocation.
    pub max_batch: usize,
    /// Requests to simulate (after warm-up).
    pub requests: usize,
    /// Sizes the cache warm-up (not measured). Not a sample count: the
    /// warm-up runs `ceil(warmup_requests / max_batch)` batches of
    /// `min(max_batch, 256)` samples, so above `max_batch = 256` it warms
    /// only `256 / max_batch` of the named volume (DESIGN.md §6).
    pub warmup_requests: usize,
    /// Admission queue bound: an arrival that finds this many requests
    /// already waiting is rejected. `None` queues without bound.
    pub queue_capacity: Option<usize>,
    /// Shed a queued request once its wait alone exceeds this (serving it
    /// could no longer meet the SLA). `None` never sheds on age.
    pub deadline: Option<Ns>,
}

/// Result of a serving run.
#[derive(Debug)]
pub struct ServedRun {
    /// Per-request latency (arrival -> completion), served requests only.
    pub latency: LatencyRecorder,
    /// Achieved throughput in samples per second.
    pub achieved: f64,
    /// Mean batch size the batcher formed.
    pub mean_batch: f64,
    /// Fraction of simulated time the engine was busy (0 for a run that
    /// executed nothing).
    pub utilization: f64,
    /// Requests offered (arrived) during the measured window.
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests rejected because the admission queue was full.
    pub shed_queue: u64,
    /// Requests shed because they outwaited the deadline.
    pub shed_deadline: u64,
    /// The cache system's lifetime counters over the measured window
    /// (fetch failures, stale serves, corruption detections, degradation).
    pub lifetime: LifetimeStats,
}

impl ServedRun {
    /// Fraction of offered requests that were served *with complete data*:
    /// admitted, run to completion, and not zero-filled by fetch failures.
    pub fn availability(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            (self.served as f64 / self.offered as f64) * self.lifetime.availability()
        }
    }

    /// Fraction of offered requests shed (queue rejection + deadline).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.shed_queue + self.shed_deadline) as f64 / self.offered as f64
        }
    }
}

/// Simulates an open-loop server over `engine`. The engine's own
/// [`crate::ModelMode`] governs what each batch runs.
///
/// Arrival times are generated on a separate clock from the engine's
/// simulated device clock; the server advances the device only when it has
/// work, and idle gaps are skipped (arrival-driven).
pub fn serve<S: EmbeddingCacheSystem>(
    engine: &mut InferenceEngine<S>,
    gen: &mut TraceGenerator,
    config: &ServerConfig,
) -> ServedRun {
    warm_up(engine, gen, config);
    let source = arrivals(config, Vec::new(), engine.gpu().now());
    let run = |engine: &mut InferenceEngine<S>, count| {
        engine.run_batch(&gen.next_batch(count));
    };
    drive_windows(engine, config, source, run).finish(engine)
}

/// The warm-up every single-tenant drive runs before it measures (see
/// [`ServerConfig::warmup_requests`] for what it really covers).
pub(crate) fn warm_up<S: EmbeddingCacheSystem>(
    engine: &mut InferenceEngine<S>,
    gen: &mut TraceGenerator,
    config: &ServerConfig,
) {
    assert!(config.max_batch > 0, "max batch must be positive");
    engine.warmup(
        gen,
        config.warmup_requests.div_ceil(config.max_batch),
        config.max_batch.min(256),
    );
}

/// The arrival stream: `config.requests` absolute arrival times from
/// `base`, the post-warm-up simulated clock. The accumulation is `t +=
/// gap` and nothing else, so every drive sees bit-identical arrivals.
pub(crate) fn arrivals(
    config: &ServerConfig,
    bursts: Vec<BurstWindow>,
    base: Ns,
) -> impl Iterator<Item = Ns> {
    assert!(config.offered_load > 0.0, "offered load must be positive");
    let mean_gap = Ns::from_secs(1.0 / config.offered_load).as_ns();
    let mut agen = ArrivalGen::new(ARRIVAL_SEED, mean_gap).with_bursts(bursts);
    let mut t = base;
    (0..config.requests).map(move |_| {
        t += Ns(agen.next_gap_ns());
        t
    })
}

/// Running totals of one drive, from which [`Tally::finish`] builds the
/// [`ServedRun`].
#[derive(Default)]
pub(crate) struct Tally {
    latency: LatencyRecorder,
    /// Requests pulled from the source.
    pub(crate) offered: u64,
    /// Batches executed.
    pub(crate) batches: u64,
    batched: u64,
    shed_queue: u64,
    pub(crate) shed_deadline: u64,
    busy: Ns,
    t_start: Ns,
}

impl Tally {
    /// An empty tally anchored at the engine's current (post-warm-up) clock.
    pub(crate) fn start<S: EmbeddingCacheSystem>(engine: &InferenceEngine<S>) -> Tally {
        Tally {
            t_start: engine.gpu().now(),
            ..Tally::default()
        }
    }

    /// The execute step: skip the idle gap up to `start` as free host time
    /// (arrival-driven, no spans recorded), let `run` execute the batch,
    /// charge its simulated time as busy, and record each rider's latency
    /// from its arrival to the batch's completion.
    pub(crate) fn execute<S: EmbeddingCacheSystem>(
        &mut self,
        engine: &mut InferenceEngine<S>,
        start: Ns,
        riders: impl Iterator<Item = Ns>,
        run: impl FnOnce(&mut InferenceEngine<S>),
    ) {
        let now = engine.gpu().now();
        if start > now {
            engine.gpu_mut().elapse_host("idle", start - now);
        }
        let t0 = engine.gpu().now();
        run(engine);
        let done = engine.gpu().now();
        self.busy += done - t0;
        for arrival in riders {
            self.latency.record(done - arrival);
            self.batched += 1;
        }
        self.batches += 1;
    }

    /// Closes the run at the engine's current clock.
    pub(crate) fn finish<S: EmbeddingCacheSystem>(self, engine: &InferenceEngine<S>) -> ServedRun {
        let elapsed = engine.gpu().now() - self.t_start;
        ServedRun {
            achieved: self.batched as f64 / elapsed.as_secs().max(1e-12),
            mean_batch: self.batched as f64 / self.batches.max(1) as f64,
            // A drive that executed nothing never advanced the clock:
            // 0/0 is NaN, and `NaN.min(1.0)` would report it fully busy.
            utilization: if elapsed > Ns::ZERO {
                (self.busy / elapsed).min(1.0)
            } else {
                0.0
            },
            offered: self.offered,
            served: self.batched,
            shed_queue: self.shed_queue,
            shed_deadline: self.shed_deadline,
            lifetime: engine.system().lifetime_stats(),
            latency: self.latency,
        }
    }
}

/// The single-tenant window loop: whenever the engine is idle, everything
/// that has arrived by the time its first waiter can start forms the
/// window; the oldest waiters shed on the deadline, the newest beyond the
/// queue bound are rejected, and up to `max_batch` of the rest ride one
/// `run(engine, count)`. `source` yields arrival times in order and is
/// pulled lazily: one arrival beyond the window is buffered, no more.
pub(crate) fn drive_windows<S: EmbeddingCacheSystem>(
    engine: &mut InferenceEngine<S>,
    config: &ServerConfig,
    source: impl Iterator<Item = Ns>,
    mut run: impl FnMut(&mut InferenceEngine<S>, usize),
) -> Tally {
    let mut tally = Tally::start(engine);
    let mut source = source.peekable();
    // Arrived and still waiting, oldest first.
    let mut waiting: VecDeque<Ns> = VecDeque::new();
    while let Some(&first) = waiting.front().or_else(|| source.peek()) {
        // The engine is idle at `now`; wait for at least one arrival.
        let ready_from = engine.gpu().now().max(first);
        while let Some(arrival) = source.next_if(|&a| a <= ready_from) {
            tally.offered += 1;
            waiting.push_back(arrival);
        }
        // Deadline shedding: the oldest waiters may already have blown the
        // SLA on queueing alone — serving them is wasted work.
        if let Some(dl) = config.deadline {
            while waiting
                .front()
                .is_some_and(|&a| misses_deadline(ready_from, a, dl))
            {
                waiting.pop_front();
                tally.shed_deadline += 1;
            }
        }
        let Some(&start) = waiting.front() else {
            continue;
        };
        // Bounded admission queue: the newest arrivals found it full and
        // were rejected at arrival time.
        let cap = config.queue_capacity.map_or(usize::MAX, |cap| cap.max(1));
        tally.shed_queue += waiting.len().saturating_sub(cap) as u64;
        waiting.truncate(cap);
        let count = waiting.len().min(config.max_batch);
        tally.execute(engine, start, waiting.drain(..count), |e| run(e, count));
    }
    tally
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

    fn engine() -> (InferenceEngine<FlecheSystem>, TraceGenerator) {
        let ds = spec::synthetic(8, 5_000, 16, -1.3);
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.05));
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

    fn open_config(load: f64) -> ServerConfig {
        ServerConfig {
            offered_load: load,
            max_batch: 256,
            requests: 2_000,
            warmup_requests: 2_000,
            queue_capacity: None,
            deadline: None,
        }
    }

    fn run_at(load: f64) -> ServedRun {
        let (mut eng, mut gen) = engine();
        serve(&mut eng, &mut gen, &open_config(load))
    }

    #[test]
    fn light_load_latency_is_service_time() {
        let run = run_at(10_000.0);
        assert_eq!(run.latency.len(), 2_000);
        assert!(run.utilization < 0.9);
        // At light load there is effectively no queueing: p99 within a
        // small factor of median.
        let ratio = run.latency.p99().as_ns() / run.latency.median().as_ns();
        assert!(ratio < 20.0, "p99/median {ratio}");
    }

    #[test]
    fn heavy_load_inflates_tail_latency() {
        let light = run_at(20_000.0);
        let heavy = run_at(20_000_000.0); // far beyond ~4M/s capacity
        assert!(
            heavy.latency.p99() > light.latency.p99() * 2.0,
            "heavy p99 {} vs light {}",
            heavy.latency.p99(),
            light.latency.p99()
        );
        assert!(
            heavy.mean_batch > light.mean_batch,
            "batcher packs under load"
        );
    }

    #[test]
    fn achieved_throughput_saturates() {
        let modest = run_at(50_000.0);
        // Near the offered load when below capacity.
        assert!(
            (modest.achieved - 50_000.0).abs() / 50_000.0 < 0.25,
            "achieved {} at offered 50k",
            modest.achieved
        );
        let extreme = run_at(50_000_000.0);
        assert!(
            extreme.achieved < 50_000_000.0 * 0.9,
            "cannot serve far beyond capacity: {}",
            extreme.achieved
        );
    }

    #[test]
    fn unbounded_run_serves_everything() {
        let run = run_at(100_000.0);
        assert_eq!(run.offered, 2_000);
        assert_eq!(run.served, 2_000);
        assert_eq!(run.shed_queue + run.shed_deadline, 0);
        assert_eq!(run.shed_rate(), 0.0);
        assert_eq!(run.availability(), 1.0, "flat store cannot fail");
    }

    #[test]
    fn bounded_queue_sheds_under_overload() {
        let (mut eng, mut gen) = engine();
        let run = serve(
            &mut eng,
            &mut gen,
            &ServerConfig {
                queue_capacity: Some(64),
                ..open_config(20_000_000.0)
            },
        );
        assert!(run.shed_queue > 0, "overload must overflow a 64-deep queue");
        assert_eq!(run.served + run.shed_queue + run.shed_deadline, run.offered);
        assert_eq!(run.latency.len() as u64, run.served);
        assert!(run.shed_rate() > 0.0);
        assert!(run.availability() < 1.0);
        // Admitted requests see a bounded queue, so their tail stays far
        // below the unbounded run's.
        let unbounded = run_at(20_000_000.0);
        assert!(
            run.latency.p99() < unbounded.latency.p99(),
            "bounded p99 {} vs unbounded {}",
            run.latency.p99(),
            unbounded.latency.p99()
        );
    }

    #[test]
    fn deadline_sheds_stale_waiters_and_bounds_served_wait() {
        let deadline = Ns::from_us(300.0);
        let (mut eng, mut gen) = engine();
        let run = serve(
            &mut eng,
            &mut gen,
            &ServerConfig {
                deadline: Some(deadline),
                ..open_config(20_000_000.0)
            },
        );
        assert!(run.shed_deadline > 0, "overload must age out waiters");
        assert_eq!(run.served + run.shed_queue + run.shed_deadline, run.offered);
        // Every served request waited at most the deadline before its
        // batch started; its latency is that wait plus one service time.
        let unbounded = run_at(20_000_000.0);
        assert!(
            run.latency.quantile(1.0) < unbounded.latency.quantile(1.0),
            "deadline-shed max {} vs unbounded {}",
            run.latency.quantile(1.0),
            unbounded.latency.quantile(1.0)
        );
    }

    #[test]
    fn empty_run_reports_zero_utilization() {
        let (mut eng, mut gen) = engine();
        let cfg = ServerConfig {
            requests: 0,
            ..open_config(100_000.0)
        };
        let run = serve(&mut eng, &mut gen, &cfg);
        assert_eq!(run.offered, 0);
        assert_eq!(run.achieved, 0.0);
        assert_eq!(run.utilization, 0.0, "nothing ran, so nothing was busy");
    }

    #[test]
    fn every_executed_batch_carries_requests() {
        // A queue bound above `max_batch` leaves waiters behind a served
        // batch, and a tight deadline then sheds all of them while the
        // stream runs dry: the window is empty and must not reach the
        // engine as a zero-sample batch (which would count in
        // `mean_batch` and the busy time).
        let (mut eng, mut gen) = engine();
        let cfg = ServerConfig {
            max_batch: 8,
            requests: 500,
            queue_capacity: Some(24),
            deadline: Some(Ns::from_us(100.0)),
            ..open_config(19_000_000.0)
        };
        warm_up(&mut eng, &mut gen, &cfg);
        let source = arrivals(&cfg, Vec::new(), eng.gpu().now());
        let mut sizes = Vec::new();
        let tally = drive_windows(&mut eng, &cfg, source, |eng, count| {
            sizes.push(count);
            eng.run_batch(&gen.next_batch(count));
        });
        assert!(sizes.iter().all(|&n| (1..=cfg.max_batch).contains(&n)));
        let run = tally.finish(&eng);
        assert_eq!(run.served, sizes.iter().sum::<usize>() as u64);
        assert_eq!(run.lifetime.batches, sizes.len() as u64);
        assert!(run.shed_queue > 0 && run.shed_deadline > 0);
        assert_eq!(run.served + run.shed_queue + run.shed_deadline, run.offered);
    }

    #[test]
    #[should_panic(expected = "offered load")]
    fn zero_load_rejected() {
        let (mut eng, mut gen) = engine();
        serve(
            &mut eng,
            &mut gen,
            &ServerConfig {
                offered_load: 0.0,
                max_batch: 16,
                requests: 10,
                warmup_requests: 0,
                queue_capacity: None,
                deadline: None,
            },
        );
    }
}
