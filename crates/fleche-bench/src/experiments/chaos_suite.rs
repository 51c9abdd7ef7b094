//! Chaos suite: fault injection and graceful degradation across the stack.
//!
//! Sweeps remote-fetch fault rates over the full Fleche serving stack in
//! giant-model (tiered) mode and compares the [`Recovery`] configurations.
//! Rows are verified against a procedural ground-truth store: a served
//! row is *corrupt* when it is neither the true value nor the zero fill
//! of an admitted failure.
//!
//! Run: `cargo run --release -p fleche-bench -- chaos_suite [--quick] [--analyze]`

use std::process::ExitCode;

use crate::drill::{serve, Drill, RacesFound, Step};
use crate::{fmt_ns, fmt_pct, xeon_dram, xeon_store, Args, TextTable};
use fleche_chaos::{BreakerConfig, BreakerTransitions, FaultPlan, RetryPolicy};
use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::Ns;
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::{LifetimeStats, RemoteSpec, TieredStore};
use fleche_workload::{spec, DatasetSpec, TraceGenerator};

const SEED: u64 = 0xC4A0_5EED;
const RATES: [f64; 4] = [0.0, 0.1, 0.3, 0.5];

#[derive(Clone, Copy, PartialEq)]
enum Recovery {
    /// `none`: no retries, no fallback; every failed fetch is a
    /// zero-filled row (the no-recovery baseline).
    None,
    /// `retry`: per-batch deadline, exponential backoff + jitter, and a
    /// hedged second fetch.
    Retry,
    /// `retry+stale`: retries plus stale-serve fallback from the DRAM
    /// layer's evicted-but-unscrubbed copies.
    RetryStale,
    /// `full`: retries + stale fallback + per-slot checksums, while *also*
    /// injecting HBM bit flips into live cache slots and transient GPU
    /// launch faults, with the circuit breaker armed.
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

/// One cell: `batches` measured batches after a warm-up of half as many.
/// Returns the lifetime counters, the p99 batch wall, the corrupt rows
/// served and the breaker's transitions.
fn run_cell(
    d: &Drill,
    fault_rate: f64,
    outages: bool,
    recovery: Recovery,
    batches: u64,
) -> Result<(LifetimeStats, Ns, u64, BreakerTransitions), RacesFound> {
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
    let full = recovery == Recovery::Full;
    if full {
        plan.gpu.launch_failure_rate = 0.02;
        plan.gpu.stall_rate = 0.01;
        plan.gpu.stall = Ns::from_us(20.0);
        plan.corruption.bitflips_per_batch = 2.0;
    }

    // Drill tiers: GPU cache + DRAM together hold ~55% of the corpus, so
    // roughly half the working set lives outside the tiers at any moment
    // and cycles through the DRAM layer's stale buffer.
    let dram_fraction = if outages { 0.35 } else { 0.08 };
    let cache_fraction = if outages { 0.2 } else { 0.05 };
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
        checksums: full,
        breaker: full.then(BreakerConfig::default),
        ..FlecheConfig::full(cache_fraction)
    };
    let mut s = d.single(FlecheSystem::with_tiered_store(&ds, store, config));
    if full {
        s.gpu.set_fault_hook(Some(Box::new(plan.gpu_injector())));
    }
    let mut corruption = plan.corruption_injector();
    let mut gen = TraceGenerator::new(&ds);
    s.warm_up(&mut gen, batches / 2);

    let mut corrupt_served = 0u64;
    let log = serve(&mut s, &mut gen, batches, |s, _, step| match step {
        Step::Before(_) if full => {
            for _ in 0..corruption.flips_this_batch() {
                let live = s.sys.cache().live_value_count();
                if live > 0 {
                    let nth = corruption.pick(live);
                    let word = corruption.pick(u64::from(ds.tables[0].dim)) as u32;
                    let bit = corruption.pick_bit();
                    s.sys.corrupt_nth_live(nth, word, bit);
                }
            }
        }
        Step::Served(_, batch, rows) => {
            for ((t, id), row) in batch.iter_accesses().zip(rows) {
                if *row != truth.read(t, id) && row.iter().any(|&v| v != 0.0) {
                    corrupt_served += 1;
                }
            }
        }
        Step::Before(_) => {}
    });

    let label = recovery.label();
    d.check_races(
        &s.gpu,
        &format!("cell (rate {fault_rate}, {label}, outages {outages})"),
    )?;
    let breaker = s.sys.breaker().map(|b| b.transitions_at(s.gpu.now()));
    Ok((
        s.sys.lifetime_stats(),
        log.p99(),
        corrupt_served,
        breaker.unwrap_or_default(),
    ))
}

pub(crate) fn main(args: &Args) -> ExitCode {
    let title = "Chaos suite: availability vs latency vs staleness under injected faults";
    Drill::run(
        args,
        title,
        "BENCH_chaos.json",
        Some((EXPECTED, "every cell")),
        false,
        |d, j| {
            let batches = if d.args.quick { 24 } else { 60 };
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
            let mut bt = TextTable::new(&[
                "fault rate",
                "opened",
                "half-opened",
                "closed",
                "time open",
                "time half-open",
                "time degraded",
            ]);
            let (mut worst_none_avail, mut worst_recovered_avail) = (1.0, 1.0);
            let (mut corrupt_served_full, mut corrupt_detected_full) = (0, 0);
            j.begin_arr("cells");
            for rate in RATES {
                for rec in [
                    Recovery::None,
                    Recovery::Retry,
                    Recovery::RetryStale,
                    Recovery::Full,
                ] {
                    let (life, p99, corrupt_served, breaker) =
                        run_cell(d, rate, false, rec, batches)?;
                    let avail = life.availability();
                    if rate == RATES[3] {
                        match rec {
                            Recovery::None => worst_none_avail = avail,
                            Recovery::RetryStale => worst_recovered_avail = avail,
                            _ => {}
                        }
                    }
                    table.row(&[
                        format!("{rate:.1}"),
                        rec.label().to_string(),
                        fmt_pct(avail),
                        fmt_ns(p99),
                        fmt_pct(life.stale_rate()),
                        format!("{corrupt_served}"),
                        format!("{}", life.corrupt_detected),
                        format!("{}", life.degraded_batches),
                    ]);
                    j.begin_elem();
                    j.field_f64("fault_rate", rate);
                    j.field_str("recovery", rec.label());
                    j.field_f64("availability", avail);
                    j.field_f64("p99_batch_ns", p99.as_ns());
                    j.field_f64("stale_rate", life.stale_rate());
                    j.field_u64("corrupt_served", corrupt_served);
                    j.field_u64("corrupt_detected", life.corrupt_detected);
                    j.field_u64("degraded_batches", life.degraded_batches);
                    j.field_u64("breaker_opened", breaker.opened);
                    j.end_obj();
                    if rec == Recovery::Full {
                        corrupt_served_full += corrupt_served;
                        corrupt_detected_full += life.corrupt_detected;
                        bt.row(&[
                            format!("{rate:.1}"),
                            format!("{}", breaker.opened),
                            format!("{}", breaker.half_opened),
                            format!("{}", breaker.closed),
                            fmt_ns(breaker.time_open),
                            fmt_ns(breaker.time_half_open),
                            fmt_ns(life.degraded_wall),
                        ]);
                    }
                }
            }
            j.end_arr();
            println!("{}", table.render());
            println!("breaker + degraded-path surface (full-recovery cells; state transitions");
            println!("and how long the system actually ran in each fallback regime):");
            println!("{}", bt.render());

            println!("outage drill: periodic hard parameter-server outages (1.4ms every 2ms),");
            println!("no per-fetch faults — retries cannot outlast a window, stale-serve can.");
            let mut drill =
                TextTable::new(&["recovery", "avail", "p99 batch", "stale", "degraded"]);
            j.begin_arr("outage_drill");
            for rec in [Recovery::None, Recovery::Retry, Recovery::RetryStale] {
                let (life, p99, _, _) = run_cell(d, 0.0, true, rec, batches)?;
                drill.row(&[
                    rec.label().to_string(),
                    fmt_pct(life.availability()),
                    fmt_ns(p99),
                    fmt_pct(life.stale_rate()),
                    format!("{}", life.degraded_batches),
                ]);
                j.begin_elem();
                j.field_str("recovery", rec.label());
                j.field_f64("availability", life.availability());
                j.field_f64("p99_batch_ns", p99.as_ns());
                j.field_f64("stale_rate", life.stale_rate());
                j.field_u64("degraded_batches", life.degraded_batches);
                j.end_obj();
            }
            j.end_arr();
            println!("{}", drill.render());

            d.accept(
                "a",
                worst_none_avail < 0.90 && worst_recovered_avail >= 0.99,
                &format!(
                "at fault rate {:.1}, no-recovery availability {} (target < 90%),\n                \
                 retries+fallback availability {} (target >= 99%)",
                RATES[3],
                fmt_pct(worst_none_avail),
                fmt_pct(worst_recovered_avail),
            ),
            );
            d.accept(
                "b",
                corrupt_served_full == 0,
                &format!(
                    "corrupt embeddings served with checksums on: {corrupt_served_full} \
                 (detected {corrupt_detected_full})"
                ),
            );
            Ok(())
        },
    )
}

const EXPECTED: &str = "\
the no-recovery column degrades linearly with the fault rate
while retries+hedging push failures into the tail and the stale-serve
fallback absorbs what is left; checksums turn silent HBM corruption into
detected quarantines (corrupt srv stays 0), and the breaker converts a
faulty GPU into DRAM-only batches instead of retry storms.";
