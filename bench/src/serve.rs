//! The serving workload (`avazu_serve`): the real front-end.
//!
//! `serve_concurrent` with one worker, no pacing and the streaming drive:
//! a feeder thread and one worker thread. Arrivals are an open loop on the
//! *simulated* clock; the host runs as fast as the bounded lanes allow.
//! The loop belongs to `serve_concurrent`, so everything the benchmark
//! sees comes from `Timed` around the system and from `ConcurrentRun`.
//!
//! One run is several sub-runs of a fixed number of requests, each with a
//! fresh engine, because the feeder/worker hand-off is visibly
//! scheduler-modal between otherwise identical runs: throughput and
//! `setup_s` are medians over sub-runs.

use crate::layers;
use crate::metrics::RunOutput;
use crate::micro;
use crate::probe::{Finished, Oracle, Probe, CHECK_EVERY_UNTRACED};
use crate::stats::{median, percentile, sort};
use crate::twin::Twin;
use crate::workloads::{build_engine, key_bits, ServeParams};
use fleche_gpu::Ns;
use fleche_model::{serve_concurrent, ConcurrentConfig, ConcurrentRun};
use fleche_workload::{DatasetSpec, TraceGenerator};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Requests per sub-run for each second of `--seconds`, with a floor and
/// a ceiling: long enough to average the hand-off modes, short enough for
/// several sub-runs per run.
const REQUESTS_PER_SECOND: f64 = 20_000.0;
const MIN_REQUESTS: usize = 20_000;
const MAX_REQUESTS: usize = 240_000;
/// Batches generated to price in-loop trace generation.
const GENERATION_REPLAYS: usize = 2_000;

/// What one sub-run is asked to record.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Untraced,
    Traced,
}

struct SubRun {
    run: ConcurrentRun,
    seen: Finished,
    /// Seconds outside `wall_secs`: engine build + cache warm-up.
    setup_s: f64,
}

fn sub_run(p: &ServeParams, ds: &DatasetSpec, cfg: &ConcurrentConfig, mode: Mode) -> SubRun {
    let sink = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    let run = serve_concurrent(
        |_worker| {
            let mut probe = Probe::new(Oracle::new(ds, None));
            probe.keep_completions = true;
            probe.sink = Some(Arc::clone(&sink));
            if mode == Mode::Traced {
                probe.check_every = 1;
                probe.trace_after_warmup = true;
                probe.count_allocs = true;
                probe.inline_twin = Some(Twin::new(ds, p.cache_fraction, key_bits()));
            } else {
                probe.check_every = CHECK_EVERY_UNTRACED;
            }
            (
                build_engine(ds, p.cache_fraction, probe),
                TraceGenerator::new(ds),
            )
        },
        cfg,
    );
    let total = t0.elapsed().as_secs_f64();
    let seen = sink
        .lock()
        .expect("the worker finished cleanly")
        .pop()
        .expect("the one worker left its record");
    SubRun {
        setup_s: total - run.wall_secs,
        run,
        seen,
    }
}

/// Gaps between consecutive batch completions, µs.
fn completion_gaps_us(sub: &SubRun) -> impl Iterator<Item = f64> + '_ {
    sub.seen
        .rec
        .completions
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
}

fn failed_of(sub: &SubRun) -> u64 {
    sub.run.shed() + sub.seen.oracle.bad_samples + sub.seen.rec.impaired_samples
}

/// Runs the serving workload.
pub fn run(p: &ServeParams, seed: u64, seconds: f64, traced: bool) -> RunOutput {
    let mut ds = p.dataset.clone();
    ds.seed = seed;
    let requests = ((seconds * REQUESTS_PER_SECOND) as usize).clamp(MIN_REQUESTS, MAX_REQUESTS);
    let cfg = ConcurrentConfig {
        workers: 1,
        offered_load: p.offered_load,
        max_batch: p.max_batch,
        requests,
        warmup_requests: p.warmup_requests,
        queue_capacity: None,
        deadline: None,
        linger: None,
        pipeline_depth: fleche_model::DEFAULT_PIPELINE_DEPTH,
        pace: 0.0,
        bursts: Vec::new(),
        analyze: false,
        shard_capacity: fleche_model::DEFAULT_SHARD_CAPACITY,
    };
    let mut out = RunOutput::default();

    if !traced {
        let mut subs = Vec::new();
        let mut measured = 0.0;
        let mut peak_rss_mb = 0.0;
        loop {
            let sub = sub_run(p, &ds, &cfg, Mode::Untraced);
            if subs.is_empty() {
                // After one sub-run, so it does not depend on how many the
                // host fits into the run.
                peak_rss_mb = micro::peak_rss_mb();
            }
            measured += sub.run.wall_secs;
            subs.push(sub);
            if measured >= seconds {
                break;
            }
        }
        // Same seed, same requests: every sub-run simulates the same
        // thing, so the first one's simulated numbers stand for all.
        let first = &subs[0];
        let rates: Vec<f64> = subs.iter().map(|s| s.run.wall_throughput()).collect();
        let setups: Vec<f64> = subs.iter().map(|s| s.setup_s).collect();
        // Percentiles per sub-run, then the median sub-run: one sub-run in
        // a slow scheduling mode must not own the pooled tail.
        let gap_percentile = |q: f64| {
            let per_sub: Vec<f64> = subs
                .iter()
                .map(|s| {
                    let mut gaps: Vec<f64> = completion_gaps_us(s).collect();
                    sort(&mut gaps);
                    percentile(&gaps, q)
                })
                .collect();
            median(&per_sub)
        };
        let gaps = first.seen.rec.completions.len().saturating_sub(1);
        out.set("setup_s", median(&setups));
        out.set("host_samples_per_s", median(&rates));
        out.set("host_batch_p50_us", gap_percentile(0.5));
        out.set("host_batch_p99_us", gap_percentile(0.99));
        out.set("sim_samples_per_s", first.run.sim_achieved());
        out.set(
            "sim_latency_p99_us",
            first.run.workers[0].run.latency.p99().as_us(),
        );
        out.set("peak_rss_mb", peak_rss_mb);
        out.attempted = subs.iter().map(|s| s.run.offered()).sum();
        out.failed = subs.iter().map(failed_of).sum();
        let checked: u64 = subs.iter().map(|s| s.seen.oracle.checked_rows).sum();
        out.correct = out.failed == 0 && checked > 0;
        out.notes.push(format!(
            "open loop at {} req/s on the simulated clock, feeder + 1 worker thread; {} sub-runs of {requests} requests, {measured:.2} s measured; host percentiles per sub-run over {gaps} completion gaps, median sub-run reported; oracle checked {checked} rows",
            p.offered_load,
            subs.len()
        ));
        return out;
    }

    // ---- Traced: one untraced reference sub-run, one traced, one
    // pipelined, and the isolated replays ---------------------------------
    let plain = sub_run(p, &ds, &cfg, Mode::Untraced);
    let mut with_trace = sub_run(p, &ds, &cfg, Mode::Traced);
    let piped_cfg = ConcurrentConfig {
        linger: Some(Ns::from_us(400.0)),
        requests: requests / 2,
        ..cfg.clone()
    };
    let piped = sub_run(p, &ds, &piped_cfg, Mode::Untraced);

    out.attempted = plain.run.offered() + with_trace.run.offered() + piped.run.offered();
    out.failed = failed_of(&plain) + failed_of(&with_trace) + failed_of(&piped);
    out.correct = out.failed == 0 && with_trace.seen.oracle.checked_rows > 0;

    let spans = std::mem::take(&mut with_trace.seen.tracer.spans);
    let seen = &with_trace.seen;
    let worker = &with_trace.run.workers[0];
    let batches = seen.rec.batches as f64;
    let twin = seen.twin.expect("the traced sub-run drives a twin");
    let dim = ds.tables[0].dim as usize;
    layers::set_shared(&mut out, &spans, batches, &twin, &seen.rec, dim);

    // `serve_concurrent` generates each batch inside its loop; replay the
    // same call to price it.
    let mut gen = TraceGenerator::new(&ds);
    let mean_batch = worker.run.mean_batch.round().max(1.0) as usize;
    let t0 = Instant::now();
    for _ in 0..GENERATION_REPLAYS {
        std::hint::black_box(gen.next_batch(mean_batch));
    }
    let next_batch_us = t0.elapsed().as_nanos() as f64 / 1e3 / GENERATION_REPLAYS as f64;
    out.set("workload.trace.next_batch_us", next_batch_us);
    out.set("core.flat_cache.evict_passes", seen.evict_passes as f64);
    // `run_batch` is inside `serve_concurrent`: its time is the worker's
    // exec time less trace generation and the bench's own in-call work.
    let run_batch_us = (worker.stage.exec_secs * 1e6 - seen.rec.overhead_ns as f64 / 1e3) / batches
        - next_batch_us;
    out.set("model.engine.run_batch_us", run_batch_us);
    out.set(
        "model.engine.post_embed_us",
        run_batch_us - out.get("core.system.query_batch_us"),
    );

    // The front-end's own numbers come from the untraced sub-run.
    let w = &plain.run.workers[0];
    let exec_share = w.stage.exec_secs / plain.run.wall_secs;
    out.set("model.concurrent.wall_s", plain.run.wall_secs);
    out.set("model.concurrent.exec_busy_share", exec_share);
    out.set("model.concurrent.handoff_share", 1.0 - exec_share);
    out.set("model.concurrent.batches", w.batches as f64);
    out.set("model.concurrent.mean_batch", w.run.mean_batch);
    out.set("model.concurrent.queue_handoffs", w.queue_handoffs as f64);
    out.set(
        "model.concurrent.queue_roundtrip_ns",
        micro::queue_roundtrip_ns(),
    );
    out.set(
        "model.concurrent.plan_ns_per_request",
        micro::plan_ns_per_request(p.offered_load, p.max_batch),
    );
    let pw = &piped.run.workers[0];
    let prep = pw.stage.prep_secs / piped.run.wall_secs;
    let exec = pw.stage.exec_secs / piped.run.wall_secs;
    out.set(
        "model.concurrent.pipelined_samples_per_s",
        piped.run.wall_throughput(),
    );
    out.set("model.concurrent.pipelined_prep_busy_share", prep);
    out.set("model.concurrent.pipelined_exec_busy_share", exec);
    out.set(
        "model.concurrent.pipelined_stall_share",
        1.0 - prep.max(exec),
    );

    // The traced sub-run also carries the twin and the per-batch checks
    // on its one worker thread; that time is the bench's own work, not
    // tracing overhead, and comes out of its wall time first.
    let traced_wall = with_trace.run.wall_secs - seen.rec.overhead_ns as f64 / 1e9;
    out.set(
        "trace.overhead_share",
        1.0 - with_trace.run.served() as f64 / traced_wall / plain.run.wall_throughput(),
    );
    out.notes.push(format!(
        "traced: sub-runs of {requests} requests — untraced reference {:.2} s, traced {:.2} s ({} batches), pipelined (linger 400 us, depth 2, {} requests) {:.2} s; oracle checked {} rows, {} bad",
        plain.run.wall_secs,
        with_trace.run.wall_secs,
        seen.rec.batches,
        piped_cfg.requests,
        piped.run.wall_secs,
        seen.oracle.checked_rows,
        seen.oracle.bad_rows
    ));
    out.spans = spans;
    out
}
