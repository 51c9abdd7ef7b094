//! Pipelined multi-worker serving front-end.
//!
//! [`server`](crate::server) holds the one serving loop, in simulated
//! time only (its module doc has the stage diagram). This module
//! adds the host-side concurrency a real serving deployment has — and
//! measures it in *wall-clock* time, which the simulator cannot fake:
//!
//! * a [`ShardedQueue`] — the bounded MPMC work queue. A feeder thread
//!   draws the global Poisson arrival stream (the one serial
//!   [`serve`](crate::serve) draws in-thread) and shards it round-robin
//!   across per-worker lanes;
//! * N workers, each owning a full engine replica (built *inside* the
//!   worker thread by a caller-supplied factory, so engines never cross
//!   threads and need no `Send` bound). Without a linger a worker feeds
//!   its lane to the window loop `serve` runs, with an execute step that
//!   adds wall-clock timing and paced dwell;
//! * a [`MicroBatcher`] — pure logical-time request coalescing under a
//!   latency budget: a batch seals at `first_arrival + linger` or when
//!   `max_batch` requests have arrived, whichever is earlier, and
//!   over-age requests are shed against the deadline at seal time;
//! * under a linger, a pipelined executor per worker — a prep stage (seal,
//!   batch assembly, dedup) runs one bounded channel ahead of the execute
//!   stage, so batch `N+1`'s host work overlaps batch `N`'s device dwell.
//!
//! ## Where wall-clock scaling comes from
//!
//! The simulated GPU is a data structure; "running" a batch costs host
//! CPU only. A real serving host, by contrast, spends most of each batch
//! *blocked on the device*. [`ConcurrentConfig::pace`] restores that
//! duty cycle: after each batch the worker sleeps `pace ×` the batch's
//! *simulated* time. Sleeps overlap across workers (even on one core),
//! exactly as device dwell overlaps across real streams — so throughput
//! scales with workers until host CPU saturates. Pacing never touches
//! simulated state: every simulated metric is bit-identical at any pace,
//! and determinism checks run at `pace = 0`.
//!
//! ## Determinism
//!
//! Each worker's simulation is self-contained (own engine, own clock, own
//! trace stream) and its shard receives its requests in arrival order, so
//! every simulated output is independent of thread scheduling. One worker
//! without a linger differs from serial `serve` only in where the window
//! loop's arrivals come from, so the two are bit-identical (asserted by
//! `tests/serve_props.rs` and the `serve_scaling` drill).

use crate::engine::{InferenceEngine, InferenceTiming};
use crate::server::{arrivals, drive_windows, misses_deadline, warm_up};
use crate::server::{Admission, ServedRun, Tally};
use fleche_gpu::{declare_pipeline_handoffs, Ns, RaceChecker};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::Deduped;
use fleche_workload::{Batch, BurstWindow, TraceGenerator};
use std::collections::VecDeque;
use std::iter::Peekable;
use std::sync::mpsc;
use std::sync::{Barrier, Condvar, Mutex};
use std::time::Duration;
// Wall-clock reads are confined to this module (and the serve_scaling
// drill) by the analyzer's no-wall-clock rule: simulated results must
// never depend on them, only the scaling report does.
use std::time::Instant;

/// Default prep→execute channel depth: one batch of prep runs ahead of
/// the executor. The hand-off is `std::sync::mpsc::sync_channel`, whose
/// publish and credit edges the race checker verifies under
/// `serve_scaling --analyze`.
pub const DEFAULT_PIPELINE_DEPTH: usize = 2;

/// Default per-lane bound of the sharded arrival queue.
pub const DEFAULT_SHARD_CAPACITY: usize = 4096;

/// One queued request: its global sequence number and absolute arrival
/// time on the (shared) post-warmup simulated clock.
#[derive(Clone, Copy, Debug)]
pub struct QueuedRequest {
    /// Position in the global arrival stream.
    pub seq: u64,
    /// Absolute arrival time.
    pub arrival: Ns,
}

/// The state of one [`ShardedQueue`] lane and its three critical
/// sections. Each method runs under the lane's mutex and returns what the
/// caller must do next with the two condvars; the caller owns every wait
/// and every notify. `ShardedQueue` runs these under `std::sync`, and
/// `fleche-verify`'s queue model runs the same functions under its
/// modelled mutex and condvars, so the checker explores this code.
#[derive(Clone, Debug)]
pub struct Lane<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Outcome of [`Lane::try_push`].
#[derive(Debug)]
pub enum Push<T> {
    /// Queued: the caller signals `not_empty`.
    Queued,
    /// The lane is at capacity: the caller waits on `not_full` and
    /// retries with the item.
    Full(T),
    /// The lane is closed: the item is dropped.
    Closed,
}

/// Outcome of [`Lane::try_pop`].
#[derive(Debug)]
pub enum Pop<T> {
    /// Dequeued: the caller signals `not_full`.
    Item(T),
    /// Open and empty: the caller waits on `not_empty` and retries.
    Empty,
    /// Closed and drained.
    Closed,
}

impl<T> Lane<T> {
    /// Appends `item` unless the lane is closed or holds `capacity`
    /// items. The closed check comes first, so a pusher blocked on a full
    /// lane drops its item once the lane closes.
    pub fn try_push(&mut self, item: T, capacity: usize) -> Push<T> {
        if self.closed {
            Push::Closed
        } else if self.items.len() >= capacity {
            Push::Full(item)
        } else {
            self.items.push_back(item);
            Push::Queued
        }
    }

    /// Takes the oldest item; a closed lane still drains before it
    /// reports [`Pop::Closed`].
    pub fn try_pop(&mut self) -> Pop<T> {
        match self.items.pop_front() {
            Some(item) => Pop::Item(item),
            None if self.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }

    /// Marks the lane closed; the caller then wakes every waiter on both
    /// condvars.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// The queued items, oldest first.
    pub fn items(&self) -> &VecDeque<T> {
        &self.items
    }

    /// True once [`Lane::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.closed
    }
}

/// An open, empty lane.
impl<T> Default for Lane<T> {
    fn default() -> Lane<T> {
        Lane {
            items: VecDeque::new(),
            closed: false,
        }
    }
}

struct Shard<T> {
    state: Mutex<Lane<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// A bounded multi-producer multi-consumer queue, sharded into
/// independent lanes so producers and consumers on different lanes never
/// contend on one lock. The serving front-end uses one lane per worker
/// with the feeder sharding round-robin; nothing restricts a lane to one
/// producer or consumer.
pub struct ShardedQueue<T> {
    shards: Vec<Shard<T>>,
    capacity: usize,
}

impl<T> ShardedQueue<T> {
    /// A queue with `shards` lanes of `capacity` items each.
    pub fn new(shards: usize, capacity: usize) -> ShardedQueue<T> {
        assert!(shards > 0, "need at least one shard");
        assert!(capacity > 0, "shard capacity must be positive");
        ShardedQueue {
            shards: (0..shards)
                .map(|_| Shard {
                    state: Mutex::new(Lane::default()),
                    not_empty: Condvar::new(),
                    not_full: Condvar::new(),
                })
                .collect(),
            capacity,
        }
    }

    /// Number of lanes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Pushes onto lane `shard`, blocking while it is full. An item
    /// pushed after [`ShardedQueue::close`] is dropped.
    pub fn push(&self, shard: usize, mut item: T) {
        let lane = &self.shards[shard % self.shards.len()];
        let mut st = lane.state.lock().expect("queue lock poisoned");
        loop {
            match st.try_push(item, self.capacity) {
                Push::Queued => return lane.not_empty.notify_one(),
                Push::Full(back) => {
                    item = back;
                    st = lane.not_full.wait(st).expect("queue lock poisoned");
                }
                Push::Closed => return,
            }
        }
    }

    /// Pops from lane `shard`, blocking while it is empty and open.
    /// Returns `None` once the lane is closed *and* drained.
    pub fn pop(&self, shard: usize) -> Option<T> {
        let lane = &self.shards[shard % self.shards.len()];
        let mut st = lane.state.lock().expect("queue lock poisoned");
        loop {
            match st.try_pop() {
                Pop::Item(item) => {
                    lane.not_full.notify_one();
                    return Some(item);
                }
                Pop::Empty => st = lane.not_empty.wait(st).expect("queue lock poisoned"),
                Pop::Closed => return None,
            }
        }
    }

    /// Closes every lane: blocked pushers drop their item and return,
    /// blocked poppers drain what remains and then see `None`.
    pub fn close(&self) {
        for lane in &self.shards {
            let mut st = lane.state.lock().expect("queue lock poisoned");
            st.close();
            lane.not_empty.notify_all();
            lane.not_full.notify_all();
        }
    }
}

/// Logical-time coalescing policy for [`MicroBatcher::plan`].
#[derive(Clone, Copy, Debug)]
pub struct MicroBatcherConfig {
    /// Seal a batch once this many requests have joined.
    pub max_batch: usize,
    /// Seal a batch this long after its first request arrives, even if
    /// not full — the latency budget spent waiting for co-riders.
    pub linger: Ns,
    /// Shed a request whose wait at seal time already exceeds this.
    pub deadline: Option<Ns>,
}

/// One planned batch: the requests riding it and the logical time it
/// sealed (execution may start no earlier).
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// Seal time: `min(first_arrival + linger, arrival of the
    /// max_batch-th request)`.
    pub seal: Ns,
    /// `(seq, arrival)` of each member, in arrival order.
    pub members: Vec<(u64, Ns)>,
}

/// Output of [`MicroBatcher::plan`]: the batches plus everything shed.
#[derive(Clone, Debug, Default)]
pub struct MicroBatchPlan {
    /// Planned batches, in arrival order.
    pub batches: Vec<BatchPlan>,
    /// Requests shed at plan time (deadline exceeded at seal).
    pub shed: Vec<(u64, Ns)>,
}

/// Pure logical-time micro-batcher. Sealing is a function of arrival
/// times only — no clocks, no threads — so its invariants (no request
/// dropped or duplicated, batches within `max_batch`, linger budget
/// respected) are property-testable in isolation, and a plan executes
/// identically at any pipeline depth.
pub struct MicroBatcher;

impl MicroBatcher {
    /// Partitions `arrivals` (sorted ascending by arrival) into batches.
    pub fn plan(arrivals: &[(u64, Ns)], cfg: &MicroBatcherConfig) -> MicroBatchPlan {
        debug_assert!(
            arrivals.windows(2).all(|w| w[0].1 <= w[1].1),
            "arrivals must be sorted"
        );
        let mut stream = arrivals.iter().copied().peekable();
        let mut plan = MicroBatchPlan::default();
        while let Some((batch, shed)) = MicroBatcher::seal_next(&mut stream, cfg) {
            plan.shed.extend(shed);
            if !batch.members.is_empty() {
                plan.batches.push(batch);
            }
        }
        plan
    }

    /// The seal rule, one batch at a time: the batch at the head of
    /// `stream` and the requests it sheds (`None` once the stream ends).
    /// Pulls `stream` only as far as deciding this batch needs — at most
    /// one arrival beyond its window stays buffered in the `Peekable` —
    /// so the pipelined prep stage seals straight off its bounded lane
    /// with the rule [`MicroBatcher::plan`]'s property tests pin.
    pub(crate) fn seal_next(
        stream: &mut Peekable<impl Iterator<Item = (u64, Ns)>>,
        cfg: &MicroBatcherConfig,
    ) -> Option<(BatchPlan, Vec<(u64, Ns)>)> {
        assert!(cfg.max_batch > 0, "max batch must be positive");
        assert!(cfg.linger.as_ns() >= 0.0, "linger must be non-negative");
        let first = stream.next()?;
        let seal_by_linger = first.1 + cfg.linger;
        let mut members = vec![first];
        while members.len() < cfg.max_batch {
            let Some(rider) = stream.next_if(|r| r.1 <= seal_by_linger) else {
                break;
            };
            members.push(rider);
        }
        // Full batches seal when their last rider arrives; short ones
        // wait out the full linger.
        let seal = if members.len() == cfg.max_batch {
            members[members.len() - 1].1
        } else {
            seal_by_linger
        };
        let mut shed = Vec::new();
        if let Some(dl) = cfg.deadline {
            members.retain(|&r| {
                let late = misses_deadline(seal, r.1, dl);
                if late {
                    shed.push(r);
                }
                !late
            });
        }
        Some((BatchPlan { seal, members }, shed))
    }
}

/// Configuration of [`serve_concurrent`].
#[derive(Clone, Debug)]
pub struct ConcurrentConfig {
    /// Worker (engine replica) count.
    pub workers: usize,
    /// Offered load in requests per second, across all workers.
    pub offered_load: f64,
    /// Maximum samples per engine invocation.
    pub max_batch: usize,
    /// Requests to simulate (after warm-up), across all workers.
    pub requests: usize,
    /// Sizes each worker's cache warm-up (not measured), by the rule on
    /// [`ServerConfig::warmup_requests`](crate::ServerConfig::warmup_requests).
    pub warmup_requests: usize,
    /// Streaming-batcher admission bound (see
    /// [`ServerConfig`](crate::ServerConfig)); ignored under a linger.
    pub queue_capacity: Option<usize>,
    /// Shed requests waiting longer than this.
    pub deadline: Option<Ns>,
    /// `None`: engine-feedback streaming batching, bit-identical to the
    /// serial server per worker. `Some(l)`: micro-batch with linger `l`
    /// and pipeline prep against execution.
    pub linger: Option<Ns>,
    /// Prep→execute channel depth under a linger (min 1).
    pub pipeline_depth: usize,
    /// Real seconds slept per simulated second of batch time, modelling
    /// the host blocking on device completion. Zero disables pacing.
    pub pace: f64,
    /// Overload windows modulating the arrival stream.
    pub bursts: Vec<BurstWindow>,
    /// Replay the queue and pipeline hand-off protocols through the race
    /// checker after the run.
    pub analyze: bool,
    /// Per-lane bound of the arrival queue.
    pub shard_capacity: usize,
}

impl ConcurrentConfig {
    /// A front-end mirroring a serial [`ServerConfig`](crate::ServerConfig)
    /// with `workers` replicas: streaming batcher, no pacing — the
    /// configuration whose one-worker run is bit-identical to
    /// [`serve`](crate::serve).
    pub fn mirror_serial(config: &crate::ServerConfig, workers: usize) -> ConcurrentConfig {
        ConcurrentConfig {
            workers,
            offered_load: config.offered_load,
            max_batch: config.max_batch,
            requests: config.requests,
            warmup_requests: config.warmup_requests,
            queue_capacity: config.queue_capacity,
            deadline: config.deadline,
            linger: None,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
            pace: 0.0,
            bursts: Vec::new(),
            analyze: false,
            shard_capacity: DEFAULT_SHARD_CAPACITY,
        }
    }

    /// The inverse of [`ConcurrentConfig::mirror_serial`]: what the
    /// shared warm-up, arrival stream and window loop read.
    fn serial(&self) -> crate::ServerConfig {
        crate::ServerConfig {
            offered_load: self.offered_load,
            max_batch: self.max_batch,
            requests: self.requests,
            warmup_requests: self.warmup_requests,
            queue_capacity: self.queue_capacity,
            deadline: self.deadline,
        }
    }
}

/// Real (wall-clock) seconds each pipeline stage of one worker spent
/// working, summed over batches. `prep` and `exec` exclude time blocked
/// on the hand-off channel; `dwell` is the paced device-dwell sleep.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageWall {
    /// Batch assembly + dedup on the prep stage.
    pub prep_secs: f64,
    /// Engine execution on the executor stage.
    pub exec_secs: f64,
    /// Paced device dwell on the executor stage.
    pub dwell_secs: f64,
}

/// One worker's result.
#[derive(Debug)]
pub struct WorkerRun {
    /// Worker index.
    pub worker: usize,
    /// The worker's serving results on its own simulated clock (same
    /// shape as the serial server's).
    pub run: ServedRun,
    /// Batches the worker executed.
    pub batches: u64,
    /// Per-stage wall time.
    pub stage: StageWall,
    /// Requests received through the sharded arrival queue.
    pub queue_handoffs: u64,
    /// Prepared batches received through the prep→execute channel.
    pub pipeline_handoffs: u64,
    /// Requests that aged past the deadline *between* plan-time seal and
    /// execution (the executor re-checks at dequeue; these are included
    /// in the run's `shed_deadline` total).
    pub shed_at_dequeue: u64,
}

/// Result of a concurrent serving run.
#[derive(Debug)]
pub struct ConcurrentRun {
    /// Per-worker results, indexed by worker.
    pub workers: Vec<WorkerRun>,
    /// Wall-clock seconds from the post-warmup start barrier to the last
    /// worker finishing. The only machine-dependent field.
    pub wall_secs: f64,
    /// Races found replaying the hand-off protocols (`Some` only when
    /// [`ConcurrentConfig::analyze`] was set).
    pub races: Option<usize>,
}

impl ConcurrentRun {
    /// Requests offered across workers.
    pub fn offered(&self) -> u64 {
        self.workers.iter().map(|w| w.run.offered).sum()
    }

    /// Requests served across workers.
    pub fn served(&self) -> u64 {
        self.workers.iter().map(|w| w.run.served).sum()
    }

    /// Requests shed across workers (admission + deadline).
    pub fn shed(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.run.shed_queue + w.run.shed_deadline)
            .sum()
    }

    /// Wall-clock throughput: served requests per real second. The
    /// scaling figure — machine-dependent by construction.
    pub fn wall_throughput(&self) -> f64 {
        self.served() as f64 / self.wall_secs.max(1e-12)
    }

    /// Aggregate simulated throughput (sum of per-worker achieved rates;
    /// workers simulate the same horizon in parallel).
    pub fn sim_achieved(&self) -> f64 {
        self.workers.iter().map(|w| w.run.achieved).sum()
    }
}

/// Runs the concurrent serving front-end.
///
/// `factory(worker)` builds worker `worker`'s engine replica and trace
/// generator; it is called *inside* the worker's thread, so neither needs
/// to be `Send`. Every worker must be built identically (same specs,
/// same seeds) — the feeder asserts their post-warmup clocks agree
/// bit-for-bit, since the shared arrival stream is anchored there.
///
/// Worker `w` serves every `workers`-th request of the global stream.
/// Each replica draws its samples from its own generator (same seed:
/// replicas see identically-distributed traffic, as replicated serving
/// instances of one model do), so all simulated outputs are deterministic
/// regardless of thread scheduling.
pub fn serve_concurrent<S, F>(factory: F, config: &ConcurrentConfig) -> ConcurrentRun
where
    S: EmbeddingCacheSystem,
    F: Fn(usize) -> (InferenceEngine<S>, TraceGenerator) + Sync,
{
    assert!(config.workers >= 1, "need at least one worker");
    assert!(config.offered_load > 0.0, "offered load must be positive");
    assert!(config.max_batch > 0, "max batch must be positive");
    let w = config.workers;
    let serial = config.serial();
    let queue: ShardedQueue<QueuedRequest> = ShardedQueue::new(w, config.shard_capacity.max(1));
    let base_now: Mutex<Vec<Option<f64>>> = Mutex::new(vec![None; w]);
    // Workers + feeder + the timing thread all release together, after
    // every warmup is done, so wall time measures only the serving phase.
    let start_barrier = Barrier::new(w + 2);
    let results: Mutex<Vec<Option<WorkerRun>>> = Mutex::new((0..w).map(|_| None).collect());
    let mut wall_start: Option<Instant> = None;

    std::thread::scope(|scope| {
        // Feeder: draws the one global arrival stream and shards it.
        scope.spawn(|| {
            start_barrier.wait();
            let base = {
                let g = base_now.lock().expect("base-now lock poisoned");
                let first = g[0].expect("worker 0 published its clock");
                for (i, b) in g.iter().enumerate() {
                    let b = b.expect("worker published its clock");
                    assert_eq!(
                        b.to_bits(),
                        first.to_bits(),
                        "worker {i} warmup diverged: clock {b} vs {first}"
                    );
                }
                first
            };
            // The serial server's stream, anchored at the same
            // post-warmup clock, so arrivals are bit-identical.
            for (arrival, seq) in arrivals(0, &serial, config.bursts.clone(), Ns(base)).zip(0..) {
                queue.push(seq as usize % w, QueuedRequest { seq, arrival });
            }
            queue.close();
        });

        for wid in 0..w {
            let factory = &factory;
            let queue = &queue;
            let base_now = &base_now;
            let start_barrier = &start_barrier;
            let results = &results;
            let serial = &serial;
            scope.spawn(move || {
                let (mut engine, mut gen) = factory(wid);
                warm_up(&mut engine, std::slice::from_mut(&mut gen), serial);
                base_now.lock().expect("base-now lock poisoned")[wid] =
                    Some(engine.gpu().now().as_ns());
                start_barrier.wait();
                let mut stage = StageWall::default();
                let lane = std::iter::from_fn(|| queue.pop(wid));
                let (tally, pipeline_handoffs, shed_at_dequeue) = match config.linger {
                    // Streaming: serial `serve`'s window loop, fed from the lane.
                    None => {
                        let run = |engine: &mut InferenceEngine<S>, _, count| {
                            let batch = || engine.run_batch(&gen.next_batch(count));
                            timed_exec(config.pace, &mut stage, batch)
                        };
                        let lane = lane.map(|r| (0, r.arrival));
                        let open = Admission::default();
                        (drive_windows(&mut engine, serial, open, lane, run), 0, 0)
                    }
                    Some(linger) => {
                        pipelined_drive(&mut engine, gen, lane, config, linger, &mut stage)
                    }
                };
                let run = WorkerRun {
                    worker: wid,
                    batches: tally.batches,
                    queue_handoffs: tally.offered,
                    run: tally.finish(&engine),
                    stage,
                    pipeline_handoffs,
                    shed_at_dequeue,
                };
                results.lock().expect("results lock poisoned")[wid] = Some(run);
            });
        }

        start_barrier.wait();
        wall_start = Some(Instant::now());
    });

    let wall_secs = wall_start
        .expect("start barrier released")
        .elapsed()
        .as_secs_f64();
    let workers: Vec<WorkerRun> = results
        .into_inner()
        .expect("results lock poisoned")
        .into_iter()
        .map(|r| r.expect("worker finished"))
        .collect();

    let races = config.analyze.then(|| {
        let mut total = 0;
        for wr in &workers {
            // Feeder→worker lane of the sharded queue, then the worker's
            // prep→execute pipeline ring. Fresh checker per ring (event
            // history grows per hand-off).
            let mut c = RaceChecker::new();
            declare_pipeline_handoffs(
                &mut c,
                wr.worker as u16,
                0,
                config.shard_capacity.max(1) as u32,
                wr.queue_handoffs,
                true,
            );
            total += c.race_count();
            let mut c = RaceChecker::new();
            declare_pipeline_handoffs(
                &mut c,
                wr.worker as u16,
                1 << 16,
                config.pipeline_depth.max(1) as u32,
                wr.pipeline_handoffs,
                true,
            );
            total += c.race_count();
        }
        total
    });

    ConcurrentRun {
        workers,
        wall_secs,
        races,
    }
}

/// The pipelined drive: seal micro-batches in logical time on a prep
/// stage that runs one bounded channel ahead of the executor. Simulated
/// results are independent of pipeline depth — the prepared path charges
/// the identical dedup cost — so only wall time changes. Returns the
/// tally, the prepared batches received and the requests shed at dequeue.
///
/// Nothing in the path grows with offered load: the lane is bounded
/// (`shard_capacity`), [`MicroBatcher::seal_next`] buffers at most one
/// arrival beyond the batch it seals, and the prep→execute channel is
/// bounded by the pipeline depth — so a slow executor backpressures all
/// the way to the feeder.
///
/// Deadlines are enforced twice: at seal time (the micro-batcher's rule)
/// and again at dequeue against the executor's clock, so requests that
/// aged out while queued behind earlier batches do not burn a pipeline
/// slot pretending to be servable.
fn pipelined_drive<S: EmbeddingCacheSystem>(
    engine: &mut InferenceEngine<S>,
    mut gen: TraceGenerator,
    lane: impl Iterator<Item = QueuedRequest> + Send,
    config: &ConcurrentConfig,
    linger: Ns,
    stage: &mut StageWall,
) -> (Tally, u64, u64) {
    let rule = MicroBatcherConfig {
        max_batch: config.max_batch,
        linger,
        deadline: config.deadline,
    };
    // Prepared batches cross the prep→execute channel sealed, assembled
    // and deduped.
    let (tx, rx) = mpsc::sync_channel::<(BatchPlan, Batch, Deduped)>(config.pipeline_depth.max(1));
    let (mut recvs, mut shed_at_dequeue) = (0u64, 0u64);
    let mut tally = Tally::start(engine.gpu().now(), 1, config.requests);
    let (offered, shed_at_seal, prep_secs) = std::thread::scope(|scope| {
        let prep = scope.spawn(move || {
            let (mut offered, mut shed, mut prep_secs) = (0u64, 0u64, 0.0f64);
            let mut stream = lane
                .inspect(|_| offered += 1)
                .map(|r| (r.seq, r.arrival))
                .peekable();
            while let Some((plan, late)) = MicroBatcher::seal_next(&mut stream, &rule) {
                shed += late.len() as u64;
                if plan.members.is_empty() {
                    continue;
                }
                let p0 = Instant::now();
                let batch = gen.next_batch(plan.members.len());
                let dedup = Deduped::from_batch(&batch);
                prep_secs += p0.elapsed().as_secs_f64();
                if tx.send((plan, batch, dedup)).is_err() {
                    break;
                }
            }
            (offered, shed, prep_secs)
        });
        while let Ok((plan, batch, dedup)) = rx.recv() {
            recvs += 1;
            // Dequeue-time deadline re-check: the seal judged waits
            // against the seal time, but by now the executor may be far
            // past it. Requests already over budget are shed here.
            let start = engine.gpu().now().max(plan.seal);
            let mut live: Vec<Ns> = plan.members.iter().map(|m| m.1).collect();
            if let Some(dl) = config.deadline {
                live.retain(|&arr| !misses_deadline(start, arr, dl));
                shed_at_dequeue += (plan.members.len() - live.len()) as u64;
            }
            if live.is_empty() {
                // Every rider aged out while queued: skip the device
                // instead of burning the slot on dead work.
                continue;
            }
            tally.execute(engine, 0, plan.seal, 0.0, live.into_iter(), |engine| {
                timed_exec(config.pace, stage, || {
                    engine.run_batch_prepared(&batch, dedup)
                })
            });
        }
        prep.join().expect("prep thread panicked")
    });
    stage.prep_secs = prep_secs;
    tally.offered = offered;
    tally.tenants[0].shed_deadline = shed_at_seal + shed_at_dequeue;
    (tally, recvs, shed_at_dequeue)
}

/// Runs one batch under the wall clock, then sleeps `pace ×` its simulated
/// time: the host-side duty cycle of waiting on the device. The sleeps
/// overlap across worker threads, which is exactly where the wall-clock
/// scaling of multiple workers comes from.
fn timed_exec(pace: f64, stage: &mut StageWall, run: impl FnOnce() -> InferenceTiming) {
    let e0 = Instant::now();
    let timing = run();
    stage.exec_secs += e0.elapsed().as_secs_f64();
    if pace > 0.0 {
        let d0 = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(timing.total.as_secs() * pace));
        stage.dwell_secs += d0.elapsed().as_secs_f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseModel;
    use crate::engine::ModelMode;
    use crate::server::ServerConfig;
    use fleche_core::{FlecheConfig, FlecheSystem};
    use fleche_gpu::{DeviceSpec, DramSpec, Gpu};
    use fleche_store::CpuStore;
    use fleche_workload::{spec, DatasetSpec};

    fn dataset() -> DatasetSpec {
        spec::synthetic(8, 5_000, 16, -1.3)
    }

    fn build(wid: usize) -> (InferenceEngine<FlecheSystem>, TraceGenerator) {
        let _ = wid;
        let ds = dataset();
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

    fn serial_config(load: f64) -> ServerConfig {
        ServerConfig {
            offered_load: load,
            max_batch: 256,
            requests: 2_000,
            warmup_requests: 2_000,
            queue_capacity: None,
            deadline: None,
        }
    }

    fn assert_bit_identical(serial: &ServedRun, conc: &ServedRun) {
        assert_eq!(serial.offered, conc.offered);
        assert_eq!(serial.served, conc.served);
        assert_eq!(serial.shed_queue, conc.shed_queue);
        assert_eq!(serial.shed_deadline, conc.shed_deadline);
        assert_eq!(serial.latency.len(), conc.latency.len());
        assert_eq!(serial.achieved.to_bits(), conc.achieved.to_bits());
        assert_eq!(serial.mean_batch.to_bits(), conc.mean_batch.to_bits());
        assert_eq!(serial.utilization.to_bits(), conc.utilization.to_bits());
        for (a, b) in [
            (serial.latency.median(), conc.latency.median()),
            (serial.latency.p99(), conc.latency.p99()),
            (serial.latency.mean(), conc.latency.mean()),
            (serial.latency.total(), conc.latency.total()),
        ] {
            assert_eq!(a.as_ns().to_bits(), b.as_ns().to_bits());
        }
        assert_eq!(serial.lifetime.hits, conc.lifetime.hits);
        assert_eq!(serial.lifetime.misses, conc.lifetime.misses);
        assert_eq!(serial.lifetime.batches, conc.lifetime.batches);
    }

    #[test]
    fn idle_worker_reports_zero_utilization() {
        // More workers than requests: lanes 2 and 3 never see one.
        let mut cfg = ConcurrentConfig::mirror_serial(&serial_config(400_000.0), 4);
        cfg.requests = 2;
        for linger in [None, Some(Ns::from_us(200.0))] {
            cfg.linger = linger;
            let run = serve_concurrent(build, &cfg);
            assert_eq!(run.served(), 2);
            for w in &run.workers[2..] {
                assert_eq!(w.run.offered, 0);
                assert_eq!(w.run.utilization, 0.0, "an idle worker was never busy");
            }
        }
    }

    #[test]
    fn multi_worker_run_is_deterministic_and_complete() {
        let cfg = ConcurrentConfig::mirror_serial(&serial_config(400_000.0), 3);
        let a = serve_concurrent(build, &cfg);
        let b = serve_concurrent(build, &cfg);
        assert_eq!(a.offered(), 2_000);
        assert_eq!(a.served(), 2_000);
        for (x, y) in a.workers.iter().zip(&b.workers) {
            assert_bit_identical(&x.run, &y.run);
        }
    }

    #[test]
    fn pipelined_results_are_depth_invariant() {
        let mut cfg = ConcurrentConfig::mirror_serial(&serial_config(400_000.0), 2);
        cfg.linger = Some(Ns::from_us(200.0));
        let a = serve_concurrent(build, &cfg);
        cfg.pipeline_depth = 8;
        let b = serve_concurrent(build, &cfg);
        assert!(a.served() > 0);
        for (x, y) in a.workers.iter().zip(&b.workers) {
            assert_bit_identical(&x.run, &y.run);
            assert!(x.pipeline_handoffs > 0);
        }
    }

    #[test]
    fn pipelined_dequeue_sheds_aged_requests() {
        // Overload with a deadline the plan-time check cannot violate
        // (linger < deadline bounds every wait at seal): all shedding
        // must come from the dequeue-time re-check as the executor falls
        // behind, and fully-aged batches must not burn a pipeline slot.
        let mut cfg = ConcurrentConfig::mirror_serial(&serial_config(50_000_000.0), 1);
        cfg.linger = Some(Ns::from_us(200.0));
        cfg.deadline = Some(Ns::from_us(300.0));
        let a = serve_concurrent(build, &cfg);
        let w = &a.workers[0];
        assert!(w.shed_at_dequeue > 0, "executor backlog must age requests");
        assert_eq!(w.run.shed_deadline, w.shed_at_dequeue);
        assert_eq!(
            w.run.offered,
            w.run.served + w.run.shed_deadline,
            "every request is served or shed exactly once"
        );
        assert!(
            w.batches < w.pipeline_handoffs,
            "fully-aged batches must skip the device: {} executed of {} received",
            w.batches,
            w.pipeline_handoffs
        );
        let b = serve_concurrent(build, &cfg);
        assert_bit_identical(&a.workers[0].run, &b.workers[0].run);
        assert_eq!(a.workers[0].shed_at_dequeue, b.workers[0].shed_at_dequeue);
    }

    #[test]
    fn pipelined_backpressure_survives_tiny_lanes() {
        // A 4-deep lane forces the feeder to block on the planner, which
        // blocks on the executor — the run only completes if the bounded
        // chain drains end to end, and the bound must not change any
        // simulated result.
        let mut cfg = ConcurrentConfig::mirror_serial(&serial_config(400_000.0), 2);
        cfg.linger = Some(Ns::from_us(200.0));
        let a = serve_concurrent(build, &cfg);
        cfg.shard_capacity = 4;
        let b = serve_concurrent(build, &cfg);
        assert_eq!(b.offered(), 2_000);
        assert_eq!(b.served(), 2_000);
        for (x, y) in a.workers.iter().zip(&b.workers) {
            assert_bit_identical(&x.run, &y.run);
        }
    }

    #[test]
    fn pacing_never_touches_simulated_results() {
        let mut cfg = ConcurrentConfig::mirror_serial(&serial_config(400_000.0), 2);
        cfg.linger = Some(Ns::from_us(200.0));
        cfg.requests = 400;
        cfg.warmup_requests = 400;
        let a = serve_concurrent(build, &cfg);
        cfg.pace = 0.5;
        let b = serve_concurrent(build, &cfg);
        for (x, y) in a.workers.iter().zip(&b.workers) {
            assert_bit_identical(&x.run, &y.run);
            assert!(y.stage.dwell_secs > 0.0);
        }
    }

    #[test]
    fn analyze_mode_finds_no_races_in_the_protocol() {
        let mut cfg = ConcurrentConfig::mirror_serial(&serial_config(400_000.0), 2);
        cfg.linger = Some(Ns::from_us(200.0));
        cfg.requests = 500;
        cfg.warmup_requests = 400;
        cfg.analyze = true;
        let run = serve_concurrent(build, &cfg);
        assert_eq!(run.races, Some(0));
    }

    #[test]
    fn micro_batcher_partitions_without_loss() {
        let arrivals: Vec<(u64, Ns)> = (0..1_000u64).map(|i| (i, Ns(i as f64 * 137.0))).collect();
        let cfg = MicroBatcherConfig {
            max_batch: 48,
            linger: Ns::from_us(2.0),
            deadline: None,
        };
        let plan = MicroBatcher::plan(&arrivals, &cfg);
        let mut seen: Vec<u64> = plan
            .batches
            .iter()
            .flat_map(|b| b.members.iter().map(|&(s, _)| s))
            .chain(plan.shed.iter().map(|&(s, _)| s))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1_000).collect::<Vec<_>>());
        for b in &plan.batches {
            assert!(b.members.len() <= cfg.max_batch);
            let first = b.members[0].1;
            assert!(b.seal.saturating_sub(first) <= cfg.linger);
            for &(_, arr) in &b.members {
                assert!(arr <= b.seal);
            }
        }
    }

    #[test]
    fn micro_batcher_seals_full_batches_early() {
        // 10 requests at t=0: with max_batch 4 the first two batches seal
        // immediately, not after the linger.
        let arrivals: Vec<(u64, Ns)> = (0..10u64).map(|i| (i, Ns::ZERO)).collect();
        let plan = MicroBatcher::plan(
            &arrivals,
            &MicroBatcherConfig {
                max_batch: 4,
                linger: Ns::from_ms(1.0),
                deadline: None,
            },
        );
        assert_eq!(plan.batches.len(), 3);
        assert_eq!(plan.batches[0].seal, Ns::ZERO);
        assert_eq!(plan.batches[1].seal, Ns::ZERO);
        // The last, short batch waits out the linger.
        assert_eq!(plan.batches[2].seal, Ns::from_ms(1.0));
    }

    #[test]
    fn sharded_queue_close_drains_then_ends() {
        let q: ShardedQueue<u32> = ShardedQueue::new(2, 4);
        q.push(0, 1);
        q.push(0, 2);
        q.push(1, 3);
        q.close();
        assert_eq!(q.pop(0), Some(1));
        assert_eq!(q.pop(0), Some(2));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), Some(3));
        assert_eq!(q.pop(1), None);
        assert_eq!(q.shard_count(), 2);
    }
}
