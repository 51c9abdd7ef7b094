//! Chaos suite: fault injection and graceful degradation across the stack.
//!
//! Sweeps remote-fetch fault rates over the full Fleche serving stack in
//! giant-model (tiered) mode and compares recovery configurations:
//!
//! * `none`        — no retries, no fallback: every failed fetch is a
//!   zero-filled row (the no-recovery baseline).
//! * `retry`       — per-batch deadline, exponential backoff + jitter, and
//!   a hedged second fetch.
//! * `retry+stale` — retries plus stale-serve fallback from the DRAM
//!   layer's evicted-but-unscrubbed copies.
//! * `full`        — retries + stale fallback + per-slot checksums, while
//!   *also* injecting HBM bit flips into live cache slots and transient
//!   GPU launch faults, with the circuit breaker armed.
//!
//! Every fault schedule derives from one fixed seed, so two runs of this
//! binary print byte-identical tables. Rows are verified against a
//! procedural ground-truth store: a served row is *corrupt* when it is
//! neither the true value nor the zero fill of an admitted failure.
//!
//! Run: `cargo run --release -p fleche-bench -- chaos_suite [--quick] [--analyze]`
//!
//! `--analyze` arms the GPU's happens-before race checker for every cell
//! and fails the run (exit 1, with a sorted race report) if any pair of
//! conflicting slot accesses is unordered — the determinism scenario
//! doubles as a race-freedom regression test in CI.

use std::process::ExitCode;

use crate::drill::{Drill, RacesFound};
use crate::{fmt_ns, xeon_dram, xeon_store, Args, TextTable};
use fleche_chaos::{BreakerConfig, BreakerTransitions, FaultPlan, RetryPolicy};
use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::Ns;
use fleche_model::LatencyRecorder;
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::{RemoteSpec, TieredStore};
use fleche_workload::{spec, DatasetSpec, TraceGenerator};

const SEED: u64 = 0xC4A0_5EED;
const DRAM_FRACTION: f64 = 0.08;
const CACHE_FRACTION: f64 = 0.05;
const BATCH: usize = 256;

#[derive(Clone, Copy, PartialEq)]
enum Recovery {
    /// No retries, no fallback.
    None,
    /// Deadline + backoff + hedged retries.
    Retry,
    /// Retries plus stale-serve fallback.
    RetryStale,
    /// Retries + stale + checksums + breaker, under added GPU faults and
    /// HBM bit flips.
    Full,
}

impl Recovery {
    fn label(self) -> &'static str {
        match self {
            Recovery::None => "none",
            Recovery::Retry => "retry",
            Recovery::RetryStale => "retry+stale",
            Recovery::Full => "full",
        }
    }
}

#[derive(Clone)]
struct CellResult {
    availability: f64,
    p99_batch: Ns,
    stale_rate: f64,
    corrupt_served: u64,
    corrupt_detected: u64,
    degraded_batches: u64,
    degraded_wall: Ns,
    breaker: BreakerTransitions,
}

fn dataset(outages: bool) -> DatasetSpec {
    if outages {
        // The drill wants a churning working set: a small corpus that is
        // re-referenced in full but never fits the (shrunken) tiers, so
        // misses during an outage are mostly *recently evicted* keys —
        // the population only the stale buffer can rescue.
        spec::synthetic(8, 2_000, 16, -1.05)
    } else {
        // Mild skew keeps the DRAM tier's miss rate high enough that
        // remote faults actually bite.
        spec::synthetic(8, 60_000, 16, -1.05)
    }
}

fn run_cell(
    d: &Drill,
    fault_rate: f64,
    outages: bool,
    recovery: Recovery,
    batches: usize,
) -> Result<CellResult, RacesFound> {
    let ds = dataset(outages);
    let truth = xeon_store(&ds);

    let mut plan = FaultPlan::quiet(SEED);
    plan.remote.fetch_failure_rate = fault_rate;
    if outages {
        // Hard parameter-server outages longer than the (SLA-tightened)
        // retry budget below: only stale-serve can rescue keys hit
        // mid-window.
        plan.remote.outage_period = Ns::from_ms(2.0);
        plan.remote.outage_duration = Ns::from_ms(1.4);
    }
    if recovery == Recovery::Full {
        plan.gpu.launch_failure_rate = 0.02;
        plan.gpu.stall_rate = 0.01;
        plan.gpu.stall = Ns::from_us(20.0);
        plan.corruption.bitflips_per_batch = 2.0;
    }

    // Drill tiers: GPU cache + DRAM together hold ~55% of the corpus, so
    // roughly half the working set lives outside the tiers at any moment
    // and cycles through the DRAM layer's stale buffer.
    let dram_fraction = if outages { 0.35 } else { DRAM_FRACTION };
    let cache_fraction = if outages { 0.2 } else { CACHE_FRACTION };
    let mut store = TieredStore::new(&ds, xeon_dram(), RemoteSpec::datacenter(), dram_fraction);
    store.set_fault_injector(Some(plan.remote_injector()));
    store.set_retry_policy(match recovery {
        Recovery::None => RetryPolicy::none(),
        // The outage drill serves under a tight SLA: the 1.2 ms budget
        // fits one 1 ms attempt (plus its hedge) but never a second, so
        // a window longer than one timeout cannot be ridden out.
        _ if outages => RetryPolicy {
            max_attempts: 2,
            deadline: Some(Ns::from_ms(1.2)),
            ..RetryPolicy::standard()
        },
        _ => RetryPolicy::standard(),
    });
    store.set_stale_serve(matches!(recovery, Recovery::RetryStale | Recovery::Full));

    let config = FlecheConfig {
        checksums: recovery == Recovery::Full,
        breaker: if recovery == Recovery::Full {
            Some(BreakerConfig::default())
        } else {
            None
        },
        ..FlecheConfig::full(cache_fraction)
    };
    let mut sys = FlecheSystem::with_tiered_store(&ds, store, config);
    let mut gpu = d.gpu();
    if recovery == Recovery::Full {
        gpu.set_fault_hook(Some(Box::new(plan.gpu_injector())));
    }
    let mut corruption = plan.corruption_injector();
    let mut gen = TraceGenerator::new(&ds);

    // Warm both tiers before measuring.
    for _ in 0..batches / 2 {
        sys.query_batch(&mut gpu, &gen.next_batch(BATCH));
    }
    sys.reset_stats();

    let mut walls = LatencyRecorder::new();
    let mut corrupt_served = 0u64;
    for _ in 0..batches {
        if recovery == Recovery::Full {
            for _ in 0..corruption.flips_this_batch() {
                let live = sys.cache_mut().live_value_count();
                if live > 0 {
                    let nth = corruption.pick(live);
                    let word = corruption.pick(u64::from(ds.tables[0].dim)) as u32;
                    let bit = corruption.pick_bit();
                    sys.cache_mut().corrupt_nth_live(nth, word, bit);
                }
            }
        }
        let batch = gen.next_batch(BATCH);
        let out = sys.query_batch(&mut gpu, &batch);
        walls.record(out.stats.wall);
        for ((t, id), row) in batch.iter_accesses().zip(&out.rows) {
            if *row != truth.read(t, id) && row.iter().any(|&v| v != 0.0) {
                corrupt_served += 1;
            }
        }
    }

    let cell = format!(
        "cell (rate {fault_rate}, {}, outages {outages})",
        recovery.label()
    );
    d.check_races(&gpu, &cell)?;

    let life = sys.lifetime_stats();
    let breaker = sys
        .breaker()
        .map(|b| b.transitions_at(gpu.now()))
        .unwrap_or_default();
    Ok(CellResult {
        availability: life.availability(),
        p99_batch: walls.p99(),
        stale_rate: life.stale_rate(),
        corrupt_served,
        corrupt_detected: life.corrupt_detected,
        degraded_batches: life.degraded_batches,
        degraded_wall: life.degraded_wall,
        breaker,
    })
}

pub(crate) fn main(args: &Args) -> ExitCode {
    let mut d = Drill::start(
        args,
        "Chaos suite: availability vs latency vs staleness under injected faults",
    );
    let batches = if d.args.quick { 24 } else { 60 };
    let rates = [0.0, 0.1, 0.3, 0.5];
    let configs = [
        Recovery::None,
        Recovery::Retry,
        Recovery::RetryStale,
        Recovery::Full,
    ];

    let mut table = TextTable::new(&[
        "fault rate",
        "recovery",
        "avail",
        "p99 batch",
        "stale",
        "corrupt srv",
        "corrupt det",
        "degraded",
    ]);
    let mut worst_none_avail: f64 = 1.0;
    let mut worst_recovered_avail: f64 = 1.0;
    let mut total_corrupt_served_full = 0u64;
    let mut total_corrupt_detected_full = 0u64;
    let mut full_cells: Vec<(f64, CellResult)> = Vec::new();
    let mut all_cells: Vec<(f64, &'static str, CellResult)> = Vec::new();
    for &rate in &rates {
        for &rec in &configs {
            let Ok(r) = run_cell(&d, rate, false, rec, batches) else {
                return ExitCode::FAILURE;
            };
            if rate == *rates.last().expect("nonempty") {
                match rec {
                    Recovery::None => worst_none_avail = r.availability,
                    Recovery::RetryStale => worst_recovered_avail = r.availability,
                    _ => {}
                }
            }
            if rec == Recovery::Full {
                total_corrupt_served_full += r.corrupt_served;
                total_corrupt_detected_full += r.corrupt_detected;
            }
            table.row(&[
                format!("{rate:.1}"),
                rec.label().to_string(),
                format!("{:.2}%", r.availability * 100.0),
                fmt_ns(r.p99_batch),
                format!("{:.2}%", r.stale_rate * 100.0),
                format!("{}", r.corrupt_served),
                format!("{}", r.corrupt_detected),
                format!("{}", r.degraded_batches),
            ]);
            all_cells.push((rate, rec.label(), r));
        }
    }
    println!("{}", table.render());
    for (rate, label, r) in &all_cells {
        if *label == "full" {
            full_cells.push((*rate, r.clone()));
        }
    }

    println!("breaker + degraded-path surface (full-recovery cells; state transitions");
    println!("and how long the system actually ran in each fallback regime):");
    let mut bt = TextTable::new(&[
        "fault rate",
        "opened",
        "half-opened",
        "closed",
        "time open",
        "time half-open",
        "time degraded",
    ]);
    for (rate, r) in &full_cells {
        bt.row(&[
            format!("{rate:.1}"),
            format!("{}", r.breaker.opened),
            format!("{}", r.breaker.half_opened),
            format!("{}", r.breaker.closed),
            fmt_ns(r.breaker.time_open),
            fmt_ns(r.breaker.time_half_open),
            fmt_ns(r.degraded_wall),
        ]);
    }
    println!("{}", bt.render());

    println!("outage drill: periodic hard parameter-server outages (1.4ms every 2ms),");
    println!("no per-fetch faults — retries cannot outlast a window, stale-serve can.");
    let mut drill = TextTable::new(&["recovery", "avail", "p99 batch", "stale", "degraded"]);
    let mut outage_cells: Vec<(&'static str, CellResult)> = Vec::new();
    for &rec in &[Recovery::None, Recovery::Retry, Recovery::RetryStale] {
        let Ok(r) = run_cell(&d, 0.0, true, rec, batches) else {
            return ExitCode::FAILURE;
        };
        drill.row(&[
            rec.label().to_string(),
            format!("{:.2}%", r.availability * 100.0),
            fmt_ns(r.p99_batch),
            format!("{:.2}%", r.stale_rate * 100.0),
            format!("{}", r.degraded_batches),
        ]);
        outage_cells.push((rec.label(), r));
    }
    println!("{}", drill.render());

    d.accept(
        "a",
        worst_none_avail < 0.90 && worst_recovered_avail >= 0.99,
        &format!(
            "at fault rate {:.1}, no-recovery availability {:.2}% (target < 90%),\n                \
             retries+fallback availability {:.2}% (target >= 99%)",
            rates.last().expect("nonempty"),
            worst_none_avail * 100.0,
            worst_recovered_avail * 100.0,
        ),
    );
    d.accept(
        "b",
        total_corrupt_served_full == 0,
        &format!(
            "corrupt embeddings served with checksums on: {total_corrupt_served_full} \
             (detected {total_corrupt_detected_full})"
        ),
    );
    let mut j = d.report();
    j.begin_arr("cells");
    for (rate, label, r) in &all_cells {
        j.begin_elem();
        j.field_f64("fault_rate", *rate);
        j.field_str("recovery", label);
        j.field_f64("availability", r.availability);
        j.field_f64("p99_batch_ns", r.p99_batch.as_ns());
        j.field_f64("stale_rate", r.stale_rate);
        j.field_u64("corrupt_served", r.corrupt_served);
        j.field_u64("corrupt_detected", r.corrupt_detected);
        j.field_u64("degraded_batches", r.degraded_batches);
        j.field_u64("breaker_opened", r.breaker.opened);
        j.end_obj();
    }
    j.end_arr();
    j.begin_arr("outage_drill");
    for (label, r) in &outage_cells {
        j.begin_elem();
        j.field_str("recovery", label);
        j.field_f64("availability", r.availability);
        j.field_f64("p99_batch_ns", r.p99_batch.as_ns());
        j.field_f64("stale_rate", r.stale_rate);
        j.field_u64("degraded_batches", r.degraded_batches);
        j.end_obj();
    }
    j.end_arr();
    d.finish("BENCH_chaos.json", j, Some((EXPECTED, "every cell")))
}

const EXPECTED: &str = "\
the no-recovery column degrades linearly with the fault rate
while retries+hedging push failures into the tail and the stale-serve
fallback absorbs what is left; checksums turn silent HBM corruption into
detected quarantines (corrupt srv stays 0), and the breaker converts a
faulty GPU into DRAM-only batches instead of retry storms.";
