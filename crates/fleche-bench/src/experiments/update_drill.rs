//! Update drill: consistent online embedding updates under serving.
//!
//! Three deterministic drills over the trainer-push update pipeline
//! (versioned writes, batch-boundary visibility, incremental checkpoint
//! deltas, and staleness-bounded degradation): updates racing serving,
//! device loss mid-stream, and an update-stream outage.
//!
//! Writes `results/BENCH_update.json`. Run: `cargo run --release -p fleche-bench -- update_drill [--quick] [--analyze]`
//! (under `--analyze`, ledger commits, batch-boundary applies, delta scans
//! and re-warm replays all declare their accesses).

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::drill::{field_batches, serve, Drill, RacesFound, Step, VICTIM};
use crate::{fmt_ns, fmt_pct, xeon_store, Args, JsonEmitter, TextTable};
use fleche_chaos::{FaultPlan, StalenessConfig, UpdateFaultSpec};
use fleche_core::{FlecheConfig, FlecheSystem, MultiGpuFleche};
use fleche_store::{versioned_embedding_value, UpdateStream};
use fleche_workload::{spec, TraceGenerator, WorkloadStats};

const SEED: u64 = 0x5741_1E55;
const SHARDS: usize = 3;

/// Decodes which committed version a served row carries: scans from the
/// trainer's latest version for the key down to the frozen table value
/// (version 0) and returns the first bit-exact match — `None` marks a
/// torn row that matches no committed version at all.
fn match_version(
    table: u16,
    id: u64,
    latest: u64,
    row: &[f32],
    scratch: &mut Vec<f32>,
) -> Option<u64> {
    scratch.resize(row.len(), 0.0);
    let mut v = latest;
    loop {
        versioned_embedding_value(table, id, v, scratch);
        if scratch.as_slice() == row {
            return Some(v);
        }
        if v == 0 {
            return None;
        }
        v -= 1;
    }
}

/// Drill A — updates racing serving. A seeded [`UpdateStream`]
/// pushes hot-biased versioned updates through a faulty channel
/// (drops, duplicates, adjacent reorders, periodic burst storms) while
/// a [`FlecheSystem`] serves a skewed trace. A per-row oracle decodes
/// which committed version every served row carries and asserts two
/// properties: **no torn reads** (every row bit-matches exactly one
/// committed version — a mid-batch apply would produce a row matching
/// none) and **per-key version monotonicity** (a key's served version
/// never moves backwards, across hits, misses, evictions, and
/// re-admissions).
fn drill_race(d: &mut Drill, j: &mut JsonEmitter) -> Result<(), RacesFound> {
    let ds = spec::synthetic(6, 8_000, 16, -1.2);
    let batches: u64 = if d.args.quick { 90 } else { 180 };
    let nominal: usize = 128;

    let mut plan = FaultPlan::quiet(SEED);
    plan.update = UpdateFaultSpec {
        drop_rate: 0.05,
        duplicate_rate: 0.05,
        reorder_rate: 0.10,
        burst_every: 16,
        burst_factor: 4,
        outage_every: 0,
        outage_batches: 0,
    };
    let mut inj = plan.update_injector();

    let mut s = d.single(FlecheSystem::new(
        &ds,
        xeon_store(&ds),
        FlecheConfig::full(0.05),
    ));
    let mut gen = TraceGenerator::new(&ds);
    let mut stream = UpdateStream::new(&ds, SEED);

    // Warm the cache and learn the serving hot set: the trainer re-embeds
    // the keys serving actually touches — those are the updates that race.
    let hot = s.warm_up(&mut gen, 24).update_candidates(1_024, 2);

    let mut last_served: BTreeMap<(u16, u64), u64> = BTreeMap::new();
    let mut scratch: Vec<f32> = Vec::new();
    let (mut torn, mut regressions, mut max_served_lag) = (0u64, 0u64, 0u64);
    let log = serve(&mut s, &mut gen, batches, |s, _, step| match step {
        // Trainer turn: commit every push to the reliable ledger channel,
        // then run the same pushes through the lossy cache channel.
        Step::Before(b) => {
            let n = nominal * inj.burst_multiplier(b) as usize;
            let pushes = stream.next_burst_from(&hot, n);
            s.sys.commit_updates(&mut s.gpu, &pushes);
            let delivered = inj.filter(pushes);
            s.sys.push_updates(&mut s.gpu, &delivered);
        }
        // Serving turn: the batch raced the staged updates; staged values
        // must only become visible at the boundary after it.
        Step::Served(_, batch, rows) => {
            for ((t, id), row) in batch.iter_accesses().zip(rows) {
                let latest = stream.version_of(t, id);
                match match_version(t, id, latest, row, &mut scratch) {
                    None => torn += 1,
                    Some(v) => {
                        let prev = last_served.get(&(t, id)).copied().unwrap_or(0);
                        if v < prev {
                            regressions += 1;
                        }
                        max_served_lag = max_served_lag.max(latest - v);
                        last_served.insert((t, id), v.max(prev));
                    }
                }
            }
        }
    });
    d.check_races(&s.gpu, "drill A update race")?;

    let st = s.sys.staleness_stats();
    let (generated, mean_hit, p99) = (stream.total_pushed(), log.mean_hit(), log.p99());
    let (dropped, duplicated, reordered) = (inj.dropped(), inj.duplicated(), inj.reordered());
    println!("drill A: hot-biased trainer pushes race serving through a faulty channel");
    let (applied, superseded, absent) =
        (st.updates_applied, st.updates_superseded, st.updates_absent);
    let mut ta = TextTable::new(&["metric", "value"]);
    for (metric, value) in [
        ("pushes generated", format!("{generated}")),
        ("dropped in flight", format!("{dropped}")),
        ("duplicated", format!("{duplicated}")),
        ("reordered", format!("{reordered}")),
        (
            "applied / superseded / absent",
            format!("{applied} / {superseded} / {absent}"),
        ),
        ("mean hit rate", fmt_pct(mean_hit)),
        ("p99 batch wall", fmt_ns(p99)),
        (
            "staleness (max / mean lag)",
            format!("{} / {:.3}", st.max_lag, st.mean_lag()),
        ),
        ("stale serves", format!("{}", st.stale_serves)),
        ("max served lag", format!("{max_served_lag}")),
    ] {
        ta.row(&[metric.into(), value]);
    }
    println!("{}", ta.render());

    d.accept(
        "a",
        generated >= 10_000 && torn == 0 && regressions == 0,
        &format!(
            "oracle over {generated} updates racing serving: {torn} torn reads, {regressions} version regressions"
        ),
    );

    j.begin_obj("drill_a");
    j.field_u64("updates_generated", generated);
    j.field_u64("dropped", dropped);
    j.field_u64("duplicated", duplicated);
    j.field_u64("reordered", reordered);
    j.field_u64("torn_rows", torn);
    j.field_u64("version_regressions", regressions);
    j.field_u64("max_served_lag", max_served_lag);
    j.field_f64("mean_hit_rate", mean_hit);
    j.field_f64("p99_batch_ns", p99.as_ns());
    j.begin_obj("staleness");
    j.field_u64("max_lag", st.max_lag);
    j.field_f64("mean_lag", st.mean_lag());
    j.field_u64("stale_serves", st.stale_serves);
    j.field_u64("updates_applied", applied);
    j.field_u64("updates_superseded", superseded);
    j.field_u64("updates_absent", absent);
    j.end_obj();
    j.end_obj();
    Ok(())
}

/// The newest version the trainer has committed (every shard's ledger
/// sees every commit).
fn ledger_max(mg: &MultiGpuFleche) -> u64 {
    mg.shard_system(0).updates().ledger().max_version()
}

/// Drill B — device loss mid-update-stream. A sharded
/// [`MultiGpuFleche`] takes a full base checkpoint, then keeps cutting
/// incremental deltas while updates keep flowing. One shard dies
/// mid-stream and returns later: its re-warm replays base + ordered
/// deltas and must land on the latest *checkpointed* version — newer
/// than the stale base — while the timeline shows the hit-rate dip and
/// recovery.
fn drill_delta_rewarm(d: &mut Drill, j: &mut JsonEmitter) -> Result<(), RacesFound> {
    let ds = spec::synthetic(6, 6_000, 16, -1.2);
    let batches: u64 = if d.args.quick { 72 } else { 120 };
    let updates_from: u64 = 8;
    let base_at: u64 = 16;
    let delta_every: u64 = 8;
    let pushes_per_batch: usize = 96;

    let mut stream = UpdateStream::new(&ds, SEED ^ 0xB);
    let mut hot_stats = WorkloadStats::new();
    // Newest version in the victim's base image — what a base-only
    // re-warm would recover to — and the ledger's at the last delta.
    let (mut base_version, mut last_delta_version) = (0u64, 0u64);
    let mut scratch: Vec<f32> = Vec::new();
    let mut torn = 0u64;
    let mut ledger_trace: Vec<u64> = Vec::new();
    let sweep = d.device_loss_sweep(
        &ds,
        SHARDS,
        0.08,
        batches,
        // Checkpoint cadence: one full base, then cumulative deltas.
        |b, mg, log| {
            if b == base_at {
                mg.checkpoint();
                base_version = mg.shard_base_max_version(VICTIM).unwrap_or(0);
                log.events.insert(b, "base checkpoint");
            } else if b > base_at && (b - base_at).is_multiple_of(delta_every) {
                mg.delta_checkpoint();
                last_delta_version = ledger_max(mg);
                log.events.entry(b).or_insert("delta checkpoint");
            }
        },
        |mg, step| match step {
            // The update stream never stops: commits broadcast to every
            // shard (failover may re-route any key), pushes route to the
            // owner.
            Step::Before(b) => {
                if b >= updates_from {
                    let hot = hot_stats.update_candidates(768, 2);
                    let pushes = stream.next_burst_from(&hot, pushes_per_batch);
                    mg.commit_updates(&pushes);
                    mg.push_updates(&pushes);
                }
            }
            Step::Served(_, batch, rows) => {
                hot_stats.observe(batch);
                ledger_trace.push(ledger_max(mg));
                for ((t, id), row) in batch.iter_accesses().zip(rows) {
                    let latest = stream.version_of(t, id);
                    if match_version(t, id, latest, row, &mut scratch).is_none() {
                        torn += 1;
                    }
                }
            }
        },
    )?;

    let f = sweep.mg.failover_stats();
    let ledger_latest = ledger_max(&sweep.mg);
    println!("{};", sweep.header());
    println!(
        "base checkpoint + cumulative deltas cut every {delta_every} batches under a live stream"
    );
    println!(
        "{}",
        sweep.timeline("ledger max ver", |b| format!("{}", ledger_trace[b]))
    );
    println!(
        "  re-warm: {} entries replayed (base + deltas) to version {}  (victim base held {base_version}, ledger was at {last_delta_version} at the last delta, latest {ledger_latest})",
        f.rewarm_restored_entries, f.rewarm_max_version,
    );
    match sweep.recovery {
        Some(n) => println!("  hit-rate recovery after restore: {n} batches"),
        None => println!("  hit-rate recovery after restore: NOT REACHED in window"),
    }
    println!();

    let b_ok = f.rewarm_restored_entries > 0
        && f.snapshot_rejected == 0
        && torn == 0
        && f.rewarm_max_version > base_version
        && f.rewarm_max_version <= ledger_latest;
    d.accept(
        "b",
        b_ok,
        &format!(
            "delta re-warm recovered to version {} > stale base {base_version} (ledger latest {ledger_latest}), {torn} torn rows",
            f.rewarm_max_version,
        ),
    );

    j.begin_obj("drill_b");
    j.field_u64("shards", SHARDS as u64);
    j.field_u64("lost_at", sweep.lost_at);
    j.field_u64("restored_at", sweep.restored_at);
    j.field_u64("base_version", base_version);
    j.field_u64("last_delta_version", last_delta_version);
    j.field_u64("rewarm_max_version", f.rewarm_max_version);
    j.field_u64("ledger_latest", ledger_latest);
    j.field_u64("rewarm_restored_entries", f.rewarm_restored_entries);
    j.field_u64("snapshot_rejected", f.snapshot_rejected);
    j.field_u64("torn_rows", torn);
    field_batches(j, "recovery_batches", sweep.recovery);
    j.end_obj();
    Ok(())
}

/// Drill C — update-stream outage. Ledger commits keep flowing but
/// no push reaches the cache for a scheduled window, so resident rows
/// age. The staleness policy must enter its declared degraded mode,
/// and while degraded the oracle asserts **no served row is older than
/// the configured lag bound** (over-bound hits are demoted to misses
/// and refreshed). When the stream returns, the drill shows a clean
/// catch-up: the policy exits and pending refreshes drain.
fn drill_outage(d: &mut Drill, j: &mut JsonEmitter) -> Result<(), RacesFound> {
    let ds = spec::synthetic(6, 5_000, 16, -1.2);
    let batches: u64 = if d.args.quick { 72 } else { 144 };
    let pushes_per_batch: usize = 96;
    // Steady-state raw lag equals a key's commit count within the current
    // burst (everything staged is applied at each boundary), which for the
    // hottest key runs ~4–9. The bound must sit above that so only an
    // outage's accumulation trips it, and the resume threshold above the
    // steady-state worst so the policy can actually exit.
    let staleness = StalenessConfig {
        max_lag: 16,
        resume_lag: 8,
    };

    let mut plan = FaultPlan::quiet(SEED);
    plan.update = UpdateFaultSpec {
        outage_every: 24,
        outage_batches: 8,
        ..UpdateFaultSpec::default()
    };
    let inj = plan.update_injector();

    let config = FlecheConfig {
        staleness: Some(staleness),
        ..FlecheConfig::full(0.08)
    };
    let mut s = d.single(FlecheSystem::new(&ds, xeon_store(&ds), config));
    let mut gen = TraceGenerator::new(&ds);
    let mut stream = UpdateStream::new(&ds, SEED ^ 0xC);
    let hot = s.warm_up(&mut gen, 24).update_candidates(512, 2);

    let mut scratch: Vec<f32> = Vec::new();
    let (mut violations, mut degraded_batches) = (0u64, 0u64);
    let mut degraded_before = false;
    let mut last_demoted = 0u64;
    let cadence = (batches / 18).max(1);
    let mut tc = TextTable::new(&[
        "batch",
        "outage",
        "degraded",
        "max served lag",
        "demoted",
        "hit rate",
    ]);
    let yes = |on: bool| if on { "yes" } else { "" }.to_string();
    let degraded = |sys: &FlecheSystem| sys.updates().policy().is_some_and(|p| p.degraded());
    let log = serve(&mut s, &mut gen, batches, |s, log, step| match step {
        // Commits always reach the ledger; the outage silences only the
        // push channel, so resident rows age while the ledger advances.
        Step::Before(b) => {
            let pushes = stream.next_burst_from(&hot, pushes_per_batch);
            s.sys.commit_updates(&mut s.gpu, &pushes);
            if !inj.in_outage(b) {
                s.sys.push_updates(&mut s.gpu, &pushes);
            }
            degraded_before = degraded(&s.sys);
            degraded_batches += u64::from(degraded_before);
        }
        Step::Served(b, batch, rows) => {
            let mut batch_max_lag = 0u64;
            for ((t, id), row) in batch.iter_accesses().zip(rows) {
                let latest = s.sys.updates().ledger().get(t, id);
                if let Some(v) = match_version(t, id, latest, row, &mut scratch) {
                    let lag = latest - v;
                    batch_max_lag = batch_max_lag.max(lag);
                    if degraded_before && lag > staleness.max_lag {
                        violations += 1;
                    }
                }
            }
            let demoted = s.sys.staleness_stats().demoted;
            let state_change = degraded_before != degraded(&s.sys);
            if b % cadence == 0 || state_change || inj.in_outage(b) != inj.in_outage(b + 1) {
                tc.row(&[
                    format!("{b}"),
                    yes(inj.in_outage(b)),
                    yes(degraded_before),
                    format!("{batch_max_lag}"),
                    format!("{}", demoted - last_demoted),
                    fmt_pct(log.rates[b as usize]),
                ]);
            }
            last_demoted = demoted;
        }
    });
    d.check_races(&s.gpu, "drill C outage")?;

    let policy = s.sys.updates().policy().expect("configured above");
    let (entries, exits) = (policy.entries(), policy.exits());
    let (degraded_at_end, pending_at_end) = (policy.degraded(), s.sys.updates().pending_len());
    let st = s.sys.staleness_stats();
    println!(
        "drill C: update-stream outages ({} batches every {}) under a staleness bound of {} (resume at {})",
        plan.update.outage_batches, plan.update.outage_every, staleness.max_lag, staleness.resume_lag
    );
    println!("{}", tc.render());
    println!(
        "  policy: {entries} entries, {exits} exits, worst raw lag {}, {degraded_batches} degraded batches, {} demotions, {} refreshes",
        policy.worst_lag(),
        st.demoted,
        st.refreshes,
    );
    println!();

    let c_ok =
        violations == 0 && entries >= 1 && exits >= 1 && !degraded_at_end && pending_at_end == 0;
    d.accept(
        "c",
        c_ok,
        &format!(
            "{violations} rows served over the lag bound across {degraded_batches} degraded batches; \
             {entries} entries / {exits} exits, clean at end"
        ),
    );

    j.begin_obj("drill_c");
    j.field_u64("lag_bound", staleness.max_lag);
    j.field_u64("resume_lag", staleness.resume_lag);
    j.field_u64("violations", violations);
    j.field_u64("degraded_batches", degraded_batches);
    j.field_u64("entries", entries);
    j.field_u64("exits", exits);
    j.field_bool("degraded_at_end", degraded_at_end);
    j.field_u64("pending_at_end", pending_at_end as u64);
    j.field_u64("worst_raw_lag", policy.worst_lag());
    j.field_u64("demoted", st.demoted);
    j.field_u64("refreshes", st.refreshes);
    j.field_f64("mean_hit_rate", log.mean_hit());
    j.field_f64("p99_batch_ns", log.p99().as_ns());
    j.end_obj();
    Ok(())
}

pub(crate) fn main(args: &Args) -> ExitCode {
    let title = "Update drill: versioned writes, delta re-warm, bounded staleness";
    Drill::run(
        args,
        title,
        "BENCH_update.json",
        Some((EXPECTED, "all drills")),
        true,
        |d, j| {
            drill_race(d, j)?;
            drill_delta_rewarm(d, j)?;
            drill_outage(d, j)
        },
    )
}

const EXPECTED: &str = "\
staged pushes only become visible at batch boundaries, so every
served row decodes to exactly one committed version and per-key versions
never regress even under drops, duplicates, reorders, and burst storms;
a returning device replays its base checkpoint plus the delta chain and
lands on the latest checkpointed version rather than the stale base; and
an update-stream outage trips the declared staleness-degraded mode, which
demotes over-bound hits to fresh miss-fills until the stream catches up.";
