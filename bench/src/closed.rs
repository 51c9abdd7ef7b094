//! The closed-loop driver (`kaggle_hit`, `tb_miss`, `kaggle_update`).
//!
//! One client, one thread. Batches come from `TraceGenerator` in untimed
//! chunks; the timers wrap only the calls into the system (`run_batch`,
//! and for the update workload `commit_updates` + `push_updates`).

use crate::layers;
use crate::metrics::RunOutput;
use crate::micro;
use crate::probe::{Oracle, Probe, Timed, CHECK_EVERY_UNTRACED};
use crate::stats::{median, percentile, segment_median_rate, segment_rates, sort};
use crate::trace;
use crate::twin::Twin;
use crate::workloads::{build_engine, key_bits, ClosedParams, UPDATE_CANDIDATES};
use fleche_core::StalenessStats;
use fleche_model::InferenceEngine;
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::{UpdatePush, UpdateStream};
use fleche_workload::{Batch, TraceGenerator, WorkloadStats};
use std::time::{Duration, Instant};

/// How long a run measures.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Wall-clock seconds, generation gaps included (the benchmark).
    Seconds(f64),
    /// A fixed number of batches (tests: exactly repeatable).
    #[cfg_attr(not(test), allow(dead_code))]
    Batches(u64),
}

/// Batches generated per untimed gap.
const CHUNK: usize = 32;
/// Equal runs of batches `host_samples_per_s` is the median over.
const SEGMENTS: usize = 10;

/// One measured batch.
struct BatchRec {
    samples: f64,
    /// Seconds in the timed calls, the bench's own in-call work taken out.
    host_s: f64,
    /// Simulated time the iteration advanced the device clock by, and the
    /// batch's own simulated latency and dense part.
    sim_elapsed_ns: f64,
    sim_total_ns: f64,
    sim_dense_ns: f64,
}

/// Facts read when the counted window closes, so they do not depend on
/// how many batches the host fits into the run.
struct WindowEnd {
    peak_rss_mb: f64,
    evict_passes: u64,
    staleness: StalenessStats,
}

struct Driver<'a> {
    p: &'a ClosedParams,
    engine: InferenceEngine<Timed>,
    twin: Option<Twin>,
    gen: TraceGenerator,
    hot: Vec<(u16, u64)>,
    recs: Vec<BatchRec>,
    gen_ns: u64,
    gen_batches: u64,
    window_end: Option<WindowEnd>,
}

impl Driver<'_> {
    fn window_end(&self) -> WindowEnd {
        let sys = &self.engine.system().inner;
        WindowEnd {
            peak_rss_mb: micro::peak_rss_mb(),
            evict_passes: sys.cache().evict_passes(),
            staleness: sys.staleness_stats(),
        }
    }

    /// Measures until `stop` (given the batches done so far) says so and
    /// returns how many that was; `traced` turns spans, per-batch oracle
    /// checks and allocation counting (inside `Timed`) on.
    fn measure(&mut self, traced: bool, mut stop: impl FnMut(u64) -> bool) -> u64 {
        {
            let probe = &mut self.engine.system_mut().probe;
            probe.tracer.enabled = traced;
            probe.count_allocs = traced;
            probe.check_every = if traced { 1 } else { CHECK_EVERY_UNTRACED };
        }
        let mut done = 0u64;
        loop {
            if stop(done) {
                return done;
            }
            let g0 = Instant::now();
            let chunk = self.gen.batches(CHUNK, self.p.batch);
            self.gen_ns += g0.elapsed().as_nanos() as u64;
            self.gen_batches += CHUNK as u64;
            for batch in &chunk {
                self.one_batch(batch);
                done += 1;
                if stop(done) {
                    return done;
                }
            }
        }
    }

    fn one_batch(&mut self, batch: &Batch) {
        let pushes: Vec<UpdatePush> = match &mut self.engine.system_mut().probe.oracle.updates {
            Some(stream) => stream.next_burst_from(&self.hot, self.p.update_burst),
            None => Vec::new(),
        };
        let id = self.engine.system().probe.rec.batches;
        let counted = id < self.p.counted_batches;
        let unified_target = self.engine.system().inner.cache().unified_target();
        let sim0 = self.engine.gpu().now();
        let whole = self.engine.system_mut().probe.tracer.begin("batch", id);

        let t0 = Instant::now();
        if !pushes.is_empty() {
            let (sys, gpu) = self.engine.system_and_gpu_mut();
            let s = sys.probe.tracer.begin("core.system.commit_updates", id);
            sys.inner.commit_updates(gpu, &pushes);
            sys.probe.tracer.end(s);
            let s = sys.probe.tracer.begin("core.system.push_updates", id);
            sys.inner.push_updates(gpu, &pushes);
            sys.probe.tracer.end(s);
        }
        let s = self
            .engine
            .system_mut()
            .probe
            .tracer
            .begin("model.engine.run_batch", id);
        let timing = self.engine.run_batch(batch);
        self.engine.system_mut().probe.tracer.end(s);
        let timed = t0.elapsed();

        let probe = &mut self.engine.system_mut().probe;
        let in_call = Duration::from_nanos(probe.rec.last_overhead_ns);
        if let Some(twin) = &mut self.twin {
            twin.run_batch(batch, &mut probe.tracer, id, unified_target, counted);
        }
        probe.tracer.end(whole);
        self.recs.push(BatchRec {
            samples: batch.len() as f64,
            host_s: timed.saturating_sub(in_call).as_secs_f64(),
            sim_elapsed_ns: (self.engine.gpu().now() - sim0).as_ns(),
            sim_total_ns: timing.total.as_ns(),
            sim_dense_ns: timing.dense.as_ns(),
        });
        if id + 1 == self.p.counted_batches {
            self.window_end = Some(self.window_end());
        }
    }
}

/// Runs one closed-loop workload.
pub fn run(p: &ClosedParams, seed: u64, budget: Budget, traced: bool) -> RunOutput {
    // The seed goes in after the spec is built: corpora stay fixed, the
    // trace (and which ids are hot) changes.
    let mut ds = p.dataset.clone();
    ds.seed = seed;
    // Set-up: build + warm-up, several times so `setup_s` is a median.
    // Each repeat replays the same warm-up trace from a fresh generator,
    // in chunks, so the bench never holds the whole trace; only the calls
    // into the system are timed.
    let mut setup_s = Vec::new();
    let mut built = None;
    let mut hot: Option<Vec<(u16, u64)>> = (p.update_burst == 0).then(Vec::new);
    for _ in 0..if traced { 1 } else { p.setup_reps } {
        drop(built.take());
        let mut gen = TraceGenerator::new(&ds);
        let mut seen = WorkloadStats::new();
        let t0 = Instant::now();
        let updates = (p.update_burst > 0).then(|| UpdateStream::new(&ds, seed));
        let mut probe = Probe::new(Oracle::new(&ds, updates));
        probe.count_prefix = p.counted_batches;
        let mut engine = build_engine(&ds, p.cache_fraction, probe);
        let mut twin = traced.then(|| Twin::new(&ds, p.cache_fraction, key_bits()));
        let mut timed = t0.elapsed();
        let mut left = p.warmup_batches;
        while left > 0 {
            let chunk = gen.batches(left.min(CHUNK), p.batch);
            left -= chunk.len();
            if hot.is_none() {
                chunk.iter().for_each(|b| seen.observe(b));
            }
            let t0 = Instant::now();
            for b in &chunk {
                let target = engine.system().inner.cache().unified_target();
                engine.run_batch(b);
                if let Some(t) = &mut twin {
                    t.run_batch(b, &mut engine.system_mut().probe.tracer, 0, target, false);
                }
            }
            timed += t0.elapsed();
        }
        // The trainer re-embeds the keys serving touches most.
        hot.get_or_insert_with(|| seen.update_candidates(UPDATE_CANDIDATES, 2));
        EmbeddingCacheSystem::reset_stats(engine.system_mut());
        setup_s.push(timed.as_secs_f64());
        built = Some((engine, twin, gen));
    }
    let (engine, twin, gen) = built.expect("at least one set-up");
    let mut d = Driver {
        p,
        engine,
        twin,
        gen,
        hot: hot.unwrap_or_default(),
        recs: Vec::new(),
        gen_ns: 0,
        gen_batches: 0,
        window_end: None,
    };
    let evict_passes_before = d.engine.system().inner.cache().evict_passes();

    // A traced run first measures a fixed stretch with tracing off, as
    // the reference its overhead is taken against.
    let planned = if traced { p.counted_batches / 3 } else { 0 };
    let start = Instant::now();
    let reference = match budget {
        Budget::Seconds(s) => {
            let quarter = start + Duration::from_secs_f64(s / 4.0);
            let deadline = start + Duration::from_secs_f64(s);
            let r = d.measure(false, |n| n >= planned || Instant::now() >= quarter);
            d.measure(traced, |_| Instant::now() >= deadline);
            r
        }
        Budget::Batches(total) => {
            let r = d.measure(false, |n| n >= planned.min(total / 4));
            d.measure(traced, |n| n + r >= total);
            r
        }
    } as usize;
    let window_end = d.window_end.take().unwrap_or_else(|| d.window_end());

    let mut out = RunOutput::default();
    let probe = &d.engine.system().probe;
    let n = d.recs.len();
    assert!(n >= SEGMENTS, "measured only {n} batches");
    out.attempted = d.recs.iter().map(|r| r.samples as u64).sum();
    out.failed = probe.oracle.bad_samples + probe.rec.impaired_samples;
    out.correct = out.failed == 0 && probe.oracle.checked_rows > 0;
    out.notes.push(format!(
        "closed loop, 1 client, 1 thread; {n} measured batches of {} in {:.2} s; oracle checked {} rows in {} batches, {} bad",
        p.batch,
        start.elapsed().as_secs_f64(),
        probe.oracle.checked_rows,
        probe.oracle.checked_batches,
        probe.oracle.bad_rows
    ));

    let counted = &d.recs[..n.min(p.counted_batches as usize)];
    let sim_samples: f64 = counted.iter().map(|r| r.samples).sum();
    let sim_elapsed: f64 = counted.iter().map(|r| r.sim_elapsed_ns).sum();
    let mut sim_lat: Vec<f64> = counted.iter().map(|r| r.sim_total_ns / 1e3).collect();
    sort(&mut sim_lat);

    if !traced {
        let mut host_us: Vec<f64> = d.recs.iter().map(|r| r.host_s * 1e6).collect();
        sort(&mut host_us);
        let timed: Vec<(f64, f64)> = d.recs.iter().map(|r| (r.samples, r.host_s)).collect();
        out.set("setup_s", median(&setup_s));
        out.set("host_samples_per_s", segment_median_rate(&timed, SEGMENTS));
        out.set("host_batch_p50_us", percentile(&host_us, 0.5));
        out.set("host_batch_p99_us", percentile(&host_us, 0.99));
        out.set("sim_samples_per_s", sim_samples / (sim_elapsed / 1e9));
        out.set("sim_latency_p99_us", percentile(&sim_lat, 0.99));
        out.set("peak_rss_mb", window_end.peak_rss_mb);
        out.notes.push(format!(
            "segment rates, samples/s: {:.0?}",
            segment_rates(&timed, SEGMENTS)
        ));
        out.notes.push(format!(
            "host percentiles over {n} timed calls; sim metrics and peak_rss_mb over the first {} batches; setup_s median of {} set-ups",
            counted.len(),
            setup_s.len()
        ));
        return out;
    }

    // ---- Per-layer metrics of the traced pass ---------------------------
    assert!(n > reference, "the run ended before any batch was traced");
    let traced_batches = (n - reference) as f64;
    let twin = d.twin.as_ref().expect("traced runs drive a twin").counts;
    let dim = ds.tables[0].dim as usize;
    let spans = std::mem::take(&mut d.engine.system_mut().probe.tracer.spans);
    let rec = &d.engine.system().probe.rec;
    layers::set_shared(&mut out, &spans, traced_batches, &twin, rec, dim);
    let totals = trace::totals(&spans);
    let us = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e3) / traced_batches;

    out.set(
        "workload.trace.next_batch_us",
        d.gen_ns as f64 / 1e3 / d.gen_batches as f64,
    );
    out.set(
        "core.flat_cache.evict_passes",
        (window_end.evict_passes - evict_passes_before) as f64,
    );
    out.set(
        "core.system.commit_updates_us",
        us("core.system.commit_updates"),
    );
    out.set(
        "core.system.push_updates_us",
        us("core.system.push_updates"),
    );
    let st = &window_end.staleness;
    out.set("core.system.updates_applied", st.updates_applied as f64);
    out.set(
        "core.system.updates_superseded",
        st.updates_superseded as f64,
    );
    out.set("core.system.updates_absent", st.updates_absent as f64);
    out.set("core.system.stale_serves", st.stale_serves as f64);
    out.set("core.system.max_lag", st.max_lag as f64);

    let run_batch_us = us("model.engine.run_batch") - us("bench.oracle_check");
    out.set("model.engine.run_batch_us", run_batch_us);
    out.set(
        "model.engine.post_embed_us",
        run_batch_us - us("core.system.query_batch"),
    );
    out.set(
        "sim.dense_us",
        counted.iter().map(|r| r.sim_dense_ns).sum::<f64>() / 1e3 / counted.len() as f64,
    );

    // Tracing overhead: how much longer the median timed call takes with
    // spans, per-batch checks and allocation counting on.
    let p50 = |recs: &[BatchRec]| {
        let mut v: Vec<f64> = recs.iter().map(|r| r.host_s).collect();
        sort(&mut v);
        percentile(&v, 0.5)
    };
    if reference > 0 {
        let (plain, with_trace) = d.recs.split_at(reference);
        out.set("trace.overhead_share", 1.0 - p50(plain) / p50(with_trace));
    }
    out.notes.push(format!(
        "traced: {reference} reference batches untraced, then {traced_batches} traced; counts over the first {} batches; self time of model.engine.run_batch less core.system.query_batch and bench.oracle_check = post_embed_us",
        twin.batches
    ));
    out.spans = spans;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use fleche_workload::spec;

    fn small(update_burst: usize) -> ClosedParams {
        ClosedParams {
            dataset: spec::avazu_small_for_tests(),
            cache_fraction: 0.05,
            batch: 64,
            warmup_batches: 8,
            setup_reps: 2,
            update_burst,
            counted_batches: 40,
        }
    }

    /// Metrics on the host clock; everything else must repeat exactly.
    fn host_clocked(name: &str, unit: &str) -> bool {
        let simulated = name.starts_with("sim.") || name.starts_with("sim_");
        matches!(unit, "us" | "ns" | "s" | "1/s" | "MB") && !simulated || name.ends_with("_share")
    }

    #[test]
    fn same_seed_repeats_every_simulated_and_count_metric() {
        for (burst, traced) in [(0, false), (16, false), (0, true), (16, true)] {
            let a = run(&small(burst), 7, Budget::Batches(60), traced);
            let b = run(&small(burst), 7, Budget::Batches(60), traced);
            assert!(a.correct && b.correct, "burst {burst} traced {traced}");
            assert_eq!((a.attempted, a.failed), (60 * 64, 0));
            let defs: Vec<(&str, &str)> = if traced {
                PER_LAYER.iter().map(|d| (d.name, d.unit)).collect()
            } else {
                END_TO_END.iter().map(|(d, _)| (d.name, d.unit)).collect()
            };
            let mut exact = 0;
            for (name, unit) in defs {
                if !host_clocked(name, unit) {
                    assert_eq!(
                        a.get(name).to_bits(),
                        b.get(name).to_bits(),
                        "{name} differs between two runs of seed 7 (burst {burst}, traced {traced})"
                    );
                    exact += 1;
                }
            }
            assert!(exact >= 2, "the filter kept {exact} metrics");
        }
    }

    #[test]
    fn another_seed_is_another_trace() {
        let a = run(&small(0), 1, Budget::Batches(60), true);
        let b = run(&small(0), 2, Budget::Batches(60), true);
        assert_ne!(
            a.get("store.dedup.unique_keys"),
            b.get("store.dedup.unique_keys")
        );
        assert_ne!(a.get("sim.embedding_us"), b.get("sim.embedding_us"));
    }

    #[test]
    fn traced_pass_splits_reference_and_traced_batches_and_tracks_the_real_cache() {
        let out = run(&small(16), 3, Budget::Batches(60), true);
        // counted_batches / 3 = 13 reference batches, 47 traced.
        assert_eq!(out.get("trace.batches"), 47.0);
        assert_eq!(out.get("core.flat_cache.twin_hit_rate_delta"), 0.0);
        assert!(out.get("core.system.updates_applied") > 0.0);
        assert!(out.get("core.system.query_batch_us") > 0.0);
        assert!(out
            .spans
            .iter()
            .any(|s| s.name == "batch" && s.parent.is_none()));
        let run_batch = out
            .spans
            .iter()
            .position(|s| s.name == "model.engine.run_batch")
            .expect("a run_batch span");
        assert!(out
            .spans
            .iter()
            .any(|s| s.name == "core.system.query_batch" && s.parent == Some(run_batch as u32)));
    }
}
