//! Update drill: consistent online embedding updates under serving.
//!
//! Three deterministic drills over the trainer-push update pipeline
//! (versioned writes, batch-boundary visibility, incremental checkpoint
//! deltas, and staleness-bounded degradation):
//!
//! * **Drill A — updates racing serving.** A seeded [`UpdateStream`]
//!   pushes hot-biased versioned updates through a faulty channel
//!   (drops, duplicates, adjacent reorders, periodic burst storms) while
//!   a [`FlecheSystem`] serves a skewed trace. A per-row oracle decodes
//!   which committed version every served row carries and asserts two
//!   properties: **no torn reads** (every row bit-matches exactly one
//!   committed version — a mid-batch apply would produce a row matching
//!   none) and **per-key version monotonicity** (a key's served version
//!   never moves backwards, across hits, misses, evictions, and
//!   re-admissions).
//! * **Drill B — device loss mid-update-stream.** A sharded
//!   [`MultiGpuFleche`] takes a full base checkpoint, then keeps cutting
//!   incremental deltas while updates keep flowing. One shard dies
//!   mid-stream and returns later: its re-warm replays base + ordered
//!   deltas and must land on the latest *checkpointed* version — newer
//!   than the stale base — while the timeline shows the hit-rate dip and
//!   recovery.
//! * **Drill C — update-stream outage.** Ledger commits keep flowing but
//!   no push reaches the cache for a scheduled window, so resident rows
//!   age. The staleness policy must enter its declared degraded mode,
//!   and while degraded the oracle asserts **no served row is older than
//!   the configured lag bound** (over-bound hits are demoted to misses
//!   and refreshed). When the stream returns, the drill shows a clean
//!   catch-up: the policy exits and pending refreshes drain.
//!
//! Every schedule derives from one fixed seed, so two runs print
//! byte-identical output — CI diffs them. A machine-readable summary is
//! written to `results/BENCH_update.json`.
//!
//! Run: `cargo run --release -p fleche-bench -- update_drill [--quick] [--analyze]`
//!
//! `--analyze` arms the happens-before race checker on every GPU (ledger
//! commits, batch-boundary applies, delta scans, and re-warm replays all
//! declare their accesses) and fails the run (exit 1) on any unordered
//! conflicting pair.

use std::collections::BTreeMap;

use std::process::ExitCode;

use crate::drill::{batches_to_recover, timeline_batches, Drill, RacesFound};
use crate::{fmt_ns, rolling_mean, xeon_store, Args, JsonEmitter, TextTable};
use fleche_chaos::{DeviceLossSpec, FaultPlan, StalenessConfig, UpdateFaultSpec};
use fleche_core::{FlecheConfig, FlecheSystem, InterconnectSpec, MultiGpuFleche, StalenessStats};
use fleche_gpu::Ns;
use fleche_model::LatencyRecorder;
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::{versioned_embedding_value, UpdateStream};
use fleche_workload::{spec, DatasetSpec, TraceGenerator, WorkloadStats};

const SEED: u64 = 0x5741_1E55;
const BATCH: usize = 256;
/// Rolling window (batches) for the drill-B recovery threshold.
const ROLL: usize = 4;

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

// ---------------------------------------------------------------------
// Drill A: a faulty push channel races updates against normal serving.
// ---------------------------------------------------------------------

struct RaceReport {
    generated: u64,
    dropped: u64,
    duplicated: u64,
    reordered: u64,
    torn: u64,
    regressions: u64,
    max_served_lag: u64,
    mean_hit: f64,
    p99: Ns,
    staleness: StalenessStats,
}

fn drill_race(d: &Drill) -> Result<RaceReport, RacesFound> {
    let ds: DatasetSpec = spec::synthetic(6, 8_000, 16, -1.2);
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

    let mut sys = FlecheSystem::new(&ds, xeon_store(&ds), FlecheConfig::full(0.05));
    let mut gpu = d.gpu();
    let mut gen = TraceGenerator::new(&ds);
    let mut stream = UpdateStream::new(&ds, SEED);

    // Warm the cache and learn the serving hot set: the trainer re-embeds
    // the keys serving actually touches — those are the updates that race.
    let mut hot_stats = WorkloadStats::new();
    for _ in 0..24 {
        let batch = gen.next_batch(BATCH);
        hot_stats.observe(&batch);
        sys.query_batch(&mut gpu, &batch);
    }
    let hot = hot_stats.update_candidates(1_024, 2);
    sys.reset_stats();

    let mut last_served: BTreeMap<(u16, u64), u64> = BTreeMap::new();
    let mut scratch: Vec<f32> = Vec::new();
    let mut torn = 0u64;
    let mut regressions = 0u64;
    let mut max_served_lag = 0u64;
    let mut rates: Vec<f64> = Vec::new();
    let mut walls = LatencyRecorder::new();
    for b in 0..batches {
        // Trainer turn: commit every push to the reliable ledger channel,
        // then run the same pushes through the lossy cache channel.
        let n = nominal * inj.burst_multiplier(b) as usize;
        let pushes = stream.next_burst_from(&hot, n);
        sys.commit_updates(&mut gpu, &pushes);
        let delivered = inj.filter(pushes);
        sys.push_updates(&mut gpu, &delivered);

        // Serving turn: the batch races the staged updates; staged values
        // must only become visible at the boundary after this batch.
        let batch = gen.next_batch(BATCH);
        let out = sys.query_batch(&mut gpu, &batch);
        rates.push(out.stats.hit_rate());
        walls.record(out.stats.wall);

        for ((t, id), row) in batch.iter_accesses().zip(&out.rows) {
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
    d.check_races(&gpu, "drill A update race")?;

    Ok(RaceReport {
        generated: stream.total_pushed(),
        dropped: inj.dropped(),
        duplicated: inj.duplicated(),
        reordered: inj.reordered(),
        torn,
        regressions,
        max_served_lag,
        mean_hit: rates.iter().sum::<f64>() / rates.len() as f64,
        p99: walls.p99(),
        staleness: sys.staleness_stats(),
    })
}

// ---------------------------------------------------------------------
// Drill B: lose a device mid-update-stream, re-warm past the stale base.
// ---------------------------------------------------------------------

struct TimelinePoint {
    batch: u64,
    alive: usize,
    hit_rate: f64,
    ledger_max: u64,
    event: &'static str,
}

struct DeltaRewarmReport {
    lost_at: u64,
    restored_at: u64,
    /// Newest version in the victim's base image — what a base-only
    /// re-warm would recover to.
    base_version: u64,
    last_delta_version: u64,
    ledger_latest: u64,
    recovery_batches: Option<u64>,
    torn: u64,
    timeline: Vec<TimelinePoint>,
    failover: fleche_core::FailoverStats,
}

const SHARDS: usize = 3;
const VICTIM: usize = 1;

fn drill_delta_rewarm(d: &Drill) -> Result<DeltaRewarmReport, RacesFound> {
    let ds: DatasetSpec = spec::synthetic(6, 6_000, 16, -1.2);
    let batches: u64 = if d.args.quick { 72 } else { 120 };
    let updates_from: u64 = 8;
    let base_at: u64 = 16;
    let delta_every: u64 = 8;
    let lost_at = batches * 2 / 5;
    let restored_at = batches * 3 / 5;
    let pushes_per_batch: usize = 96;

    let mut plan = FaultPlan::quiet(SEED);
    plan.device_loss = DeviceLossSpec {
        victim: VICTIM,
        lost_at_batch: Some(lost_at),
        restored_at_batch: Some(restored_at),
    };
    let inj = plan.device_loss_injector();

    let mut mg = d.shards(MultiGpuFleche::new(
        &ds,
        SHARDS,
        0.08,
        FlecheConfig::full(0.08),
        InterconnectSpec::pcie_p2p(),
    ));
    let mut gen = TraceGenerator::new(&ds);
    let mut stream = UpdateStream::new(&ds, SEED ^ 0xB);
    let mut hot_stats = WorkloadStats::new();

    let mut currently_lost = false;
    let mut base_version = 0u64;
    let mut last_delta_version = 0u64;
    let mut scratch: Vec<f32> = Vec::new();
    let mut torn = 0u64;
    let mut rates: Vec<f64> = Vec::new();
    let mut alive_trace: Vec<usize> = Vec::new();
    let mut events: BTreeMap<u64, &'static str> = BTreeMap::new();
    let mut ledger_trace: Vec<u64> = Vec::new();
    for b in 0..batches {
        // Checkpoint cadence: one full base, then cumulative deltas.
        if b == base_at {
            mg.checkpoint();
            base_version = mg.shard_base_max_version(VICTIM).unwrap_or(0);
            events.insert(b, "base checkpoint");
        } else if b > base_at && (b - base_at) % delta_every == 0 {
            mg.delta_checkpoint();
            last_delta_version = mg.shard_system(0).updates().ledger().max_version();
            events.entry(b).or_insert("delta checkpoint");
        }
        if let Some(fault) = inj.transition(currently_lost, b) {
            currently_lost = !currently_lost;
            mg.shard_gpu_mut(inj.victim()).inject_device_fault(fault);
            events.insert(
                b,
                if currently_lost {
                    "device lost"
                } else {
                    "device restored"
                },
            );
        }
        // The update stream never stops: commits broadcast to every shard
        // (failover may re-route any key), pushes route to the owner.
        if b >= updates_from {
            let hot = hot_stats.update_candidates(768, 2);
            let pushes = stream.next_burst_from(&hot, pushes_per_batch);
            mg.commit_updates(&pushes);
            mg.push_updates(&pushes);
        }
        let batch = gen.next_batch(BATCH);
        hot_stats.observe(&batch);
        let (rows, _, stats) = mg.query_batch(&batch);
        rates.push(stats.hit_rate());
        alive_trace.push(mg.alive_count());
        ledger_trace.push(mg.shard_system(0).updates().ledger().max_version());
        for ((t, id), row) in batch.iter_accesses().zip(&rows) {
            let latest = stream.version_of(t, id);
            if match_version(t, id, latest, row, &mut scratch).is_none() {
                torn += 1;
            }
        }
    }
    d.check_shard_races(&mut mg, "drill B delta re-warm")?;

    // Recovery point: rolling hit rate back to 99% of pre-loss steady.
    let steady = rolling_mean(&rates[..lost_at as usize], 16);
    let target = 0.99 * steady;
    let recovery_batches = batches_to_recover(&rates, restored_at as usize, ROLL, target);
    if let Some(n) = recovery_batches {
        events.entry(restored_at + n - 1).or_insert("hit rate recovered");
    }
    let timeline = timeline_batches(batches, &events)
        .into_iter()
        .map(|(b, event)| TimelinePoint {
            batch: b,
            alive: alive_trace[b as usize],
            hit_rate: rates[b as usize],
            ledger_max: ledger_trace[b as usize],
            event,
        })
        .collect();

    Ok(DeltaRewarmReport {
        lost_at,
        restored_at,
        base_version,
        last_delta_version,
        ledger_latest: mg.shard_system(0).updates().ledger().max_version(),
        recovery_batches,
        torn,
        timeline,
        failover: mg.failover_stats(),
    })
}

// ---------------------------------------------------------------------
// Drill C: update-stream outage, bounded-staleness serving, catch-up.
// ---------------------------------------------------------------------

struct OutagePoint {
    batch: u64,
    outage: bool,
    degraded: bool,
    max_served_lag: u64,
    demoted: u64,
    hit_rate: f64,
}

struct OutageReport {
    lag_bound: u64,
    resume_lag: u64,
    violations: u64,
    degraded_batches: u64,
    entries: u64,
    exits: u64,
    degraded_at_end: bool,
    pending_at_end: usize,
    worst_raw_lag: u64,
    mean_hit: f64,
    p99: Ns,
    staleness: StalenessStats,
    timeline: Vec<OutagePoint>,
}

fn drill_outage(d: &Drill) -> Result<OutageReport, RacesFound> {
    let ds: DatasetSpec = spec::synthetic(6, 5_000, 16, -1.2);
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
    let mut sys = FlecheSystem::new(&ds, xeon_store(&ds), config);
    let mut gpu = d.gpu();
    let mut gen = TraceGenerator::new(&ds);
    let mut stream = UpdateStream::new(&ds, SEED ^ 0xC);

    let mut hot_stats = WorkloadStats::new();
    for _ in 0..24 {
        let batch = gen.next_batch(BATCH);
        hot_stats.observe(&batch);
        sys.query_batch(&mut gpu, &batch);
    }
    let hot = hot_stats.update_candidates(512, 2);
    sys.reset_stats();

    let mut scratch: Vec<f32> = Vec::new();
    let mut violations = 0u64;
    let mut degraded_batches = 0u64;
    let mut rates: Vec<f64> = Vec::new();
    let mut walls = LatencyRecorder::new();
    let mut timeline: Vec<OutagePoint> = Vec::new();
    let mut last_demoted = 0u64;
    for b in 0..batches {
        // Commits always reach the ledger; the outage silences only the
        // push channel, so resident rows age while the ledger advances.
        let pushes = stream.next_burst_from(&hot, pushes_per_batch);
        sys.commit_updates(&mut gpu, &pushes);
        let in_outage = inj.in_outage(b);
        if !in_outage {
            sys.push_updates(&mut gpu, &pushes);
        }

        let degraded_before = sys.updates().policy().is_some_and(|p| p.degraded());
        if degraded_before {
            degraded_batches += 1;
        }
        let batch = gen.next_batch(BATCH);
        let out = sys.query_batch(&mut gpu, &batch);
        rates.push(out.stats.hit_rate());
        walls.record(out.stats.wall);

        let mut batch_max_lag = 0u64;
        for ((t, id), row) in batch.iter_accesses().zip(&out.rows) {
            let latest = sys.updates().ledger().get(t, id);
            if let Some(v) = match_version(t, id, latest, row, &mut scratch) {
                let lag = latest - v;
                batch_max_lag = batch_max_lag.max(lag);
                if degraded_before && lag > staleness.max_lag {
                    violations += 1;
                }
            }
        }

        let st = sys.staleness_stats();
        let cadence = (batches / 18).max(1);
        let state_change = degraded_before != sys.updates().policy().is_some_and(|p| p.degraded());
        if b % cadence == 0 || state_change || inj.in_outage(b) != inj.in_outage(b + 1) {
            timeline.push(OutagePoint {
                batch: b,
                outage: in_outage,
                degraded: degraded_before,
                max_served_lag: batch_max_lag,
                demoted: st.demoted - last_demoted,
                hit_rate: out.stats.hit_rate(),
            });
        }
        last_demoted = st.demoted;
    }
    d.check_races(&gpu, "drill C outage")?;

    let policy = sys.updates().policy().expect("configured above");
    Ok(OutageReport {
        lag_bound: staleness.max_lag,
        resume_lag: staleness.resume_lag,
        violations,
        degraded_batches,
        entries: policy.entries(),
        exits: policy.exits(),
        degraded_at_end: policy.degraded(),
        pending_at_end: sys.updates().pending_len(),
        worst_raw_lag: policy.worst_lag(),
        mean_hit: rates.iter().sum::<f64>() / rates.len() as f64,
        p99: walls.p99(),
        staleness: sys.staleness_stats(),
        timeline,
    })
}

// ---------------------------------------------------------------------

fn emit_json(j: &mut JsonEmitter, a: &RaceReport, b: &DeltaRewarmReport, c: &OutageReport) {
    j.begin_obj("drill_a");
    j.field_u64("updates_generated", a.generated);
    j.field_u64("dropped", a.dropped);
    j.field_u64("duplicated", a.duplicated);
    j.field_u64("reordered", a.reordered);
    j.field_u64("torn_rows", a.torn);
    j.field_u64("version_regressions", a.regressions);
    j.field_u64("max_served_lag", a.max_served_lag);
    j.field_f64("mean_hit_rate", a.mean_hit);
    j.field_f64("p99_batch_ns", a.p99.as_ns());
    j.begin_obj("staleness");
    j.field_u64("max_lag", a.staleness.max_lag);
    j.field_f64("mean_lag", a.staleness.mean_lag());
    j.field_u64("stale_serves", a.staleness.stale_serves);
    j.field_u64("updates_applied", a.staleness.updates_applied);
    j.field_u64("updates_superseded", a.staleness.updates_superseded);
    j.field_u64("updates_absent", a.staleness.updates_absent);
    j.end_obj();
    j.end_obj();

    j.begin_obj("drill_b");
    j.field_u64("shards", SHARDS as u64);
    j.field_u64("lost_at", b.lost_at);
    j.field_u64("restored_at", b.restored_at);
    j.field_u64("base_version", b.base_version);
    j.field_u64("last_delta_version", b.last_delta_version);
    j.field_u64("rewarm_max_version", b.failover.rewarm_max_version);
    j.field_u64("ledger_latest", b.ledger_latest);
    j.field_u64(
        "rewarm_restored_entries",
        b.failover.rewarm_restored_entries,
    );
    j.field_u64("snapshot_rejected", b.failover.snapshot_rejected);
    j.field_u64("torn_rows", b.torn);
    match b.recovery_batches {
        Some(n) => j.field_u64("recovery_batches", n),
        None => j.field_str("recovery_batches", "not reached"),
    }
    j.end_obj();

    j.begin_obj("drill_c");
    j.field_u64("lag_bound", c.lag_bound);
    j.field_u64("resume_lag", c.resume_lag);
    j.field_u64("violations", c.violations);
    j.field_u64("degraded_batches", c.degraded_batches);
    j.field_u64("entries", c.entries);
    j.field_u64("exits", c.exits);
    j.field_bool("degraded_at_end", c.degraded_at_end);
    j.field_u64("pending_at_end", c.pending_at_end as u64);
    j.field_u64("worst_raw_lag", c.worst_raw_lag);
    j.field_u64("demoted", c.staleness.demoted);
    j.field_u64("refreshes", c.staleness.refreshes);
    j.field_f64("mean_hit_rate", c.mean_hit);
    j.field_f64("p99_batch_ns", c.p99.as_ns());
    j.end_obj();
}

pub(crate) fn main(args: &Args) -> ExitCode {
    let mut d = Drill::start(
        args,
        "Update drill: versioned writes, delta re-warm, bounded staleness",
    );

    // ---- Drill A --------------------------------------------------------
    let Ok(a) = drill_race(&d) else {
        return ExitCode::FAILURE;
    };
    println!("drill A: hot-biased trainer pushes race serving through a faulty channel");
    let mut ta = TextTable::new(&["metric", "value"]);
    ta.row(&["pushes generated".into(), format!("{}", a.generated)]);
    ta.row(&["dropped in flight".into(), format!("{}", a.dropped)]);
    ta.row(&["duplicated".into(), format!("{}", a.duplicated)]);
    ta.row(&["reordered".into(), format!("{}", a.reordered)]);
    ta.row(&[
        "applied / superseded / absent".into(),
        format!(
            "{} / {} / {}",
            a.staleness.updates_applied, a.staleness.updates_superseded, a.staleness.updates_absent
        ),
    ]);
    ta.row(&[
        "mean hit rate".into(),
        format!("{:.2}%", a.mean_hit * 100.0),
    ]);
    ta.row(&["p99 batch wall".into(), fmt_ns(a.p99)]);
    ta.row(&[
        "staleness (max / mean lag)".into(),
        format!("{} / {:.3}", a.staleness.max_lag, a.staleness.mean_lag()),
    ]);
    ta.row(&[
        "stale serves".into(),
        format!("{}", a.staleness.stale_serves),
    ]);
    ta.row(&["max served lag".into(), format!("{}", a.max_served_lag)]);
    println!("{}", ta.render());

    // ---- Drill B --------------------------------------------------------
    let Ok(b) = drill_delta_rewarm(&d) else {
        return ExitCode::FAILURE;
    };
    println!(
        "drill B: {SHARDS} shards, shard {VICTIM} lost at batch {} and restored at batch {};",
        b.lost_at, b.restored_at
    );
    println!("base checkpoint + cumulative deltas cut every 8 batches under a live stream");
    let mut tb = TextTable::new(&["batch", "alive", "hit rate", "ledger max ver", "event"]);
    for p in &b.timeline {
        tb.row(&[
            format!("{}", p.batch),
            format!("{}/{SHARDS}", p.alive),
            format!("{:.2}%", p.hit_rate * 100.0),
            format!("{}", p.ledger_max),
            p.event.to_string(),
        ]);
    }
    println!("{}", tb.render());
    let f = &b.failover;
    println!(
        "  re-warm: {} entries replayed (base + deltas) to version {}  (victim base held {}, ledger was at {} at the last delta, latest {})",
        f.rewarm_restored_entries,
        f.rewarm_max_version,
        b.base_version,
        b.last_delta_version,
        b.ledger_latest,
    );
    match b.recovery_batches {
        Some(n) => println!("  hit-rate recovery after restore: {n} batches"),
        None => println!("  hit-rate recovery after restore: NOT REACHED in window"),
    }
    println!();

    // ---- Drill C --------------------------------------------------------
    let Ok(c) = drill_outage(&d) else {
        return ExitCode::FAILURE;
    };
    println!(
        "drill C: update-stream outages (8 batches every 24) under a staleness bound of {} (resume at {})",
        c.lag_bound, c.resume_lag
    );
    let mut tc = TextTable::new(&[
        "batch",
        "outage",
        "degraded",
        "max served lag",
        "demoted",
        "hit rate",
    ]);
    for p in &c.timeline {
        tc.row(&[
            format!("{}", p.batch),
            if p.outage { "yes" } else { "" }.to_string(),
            if p.degraded { "yes" } else { "" }.to_string(),
            format!("{}", p.max_served_lag),
            format!("{}", p.demoted),
            format!("{:.2}%", p.hit_rate * 100.0),
        ]);
    }
    println!("{}", tc.render());
    println!(
        "  policy: {} entries, {} exits, worst raw lag {}, {} degraded batches, {} demotions, {} refreshes",
        c.entries,
        c.exits,
        c.worst_raw_lag,
        c.degraded_batches,
        c.staleness.demoted,
        c.staleness.refreshes,
    );
    println!();

    // ---- Acceptance -----------------------------------------------------
    d.accept(
        "a",
        a.generated >= 10_000 && a.torn == 0 && a.regressions == 0,
        &format!(
            "oracle over {} updates racing serving: {} torn reads, {} version regressions",
            a.generated, a.torn, a.regressions,
        ),
    );
    let b_ok = f.rewarm_restored_entries > 0
        && f.snapshot_rejected == 0
        && b.torn == 0
        && f.rewarm_max_version > b.base_version
        && f.rewarm_max_version <= b.ledger_latest;
    d.accept(
        "b",
        b_ok,
        &format!(
            "delta re-warm recovered to version {} > stale base {} (ledger latest {}), {} torn rows",
            f.rewarm_max_version, b.base_version, b.ledger_latest, b.torn,
        ),
    );
    let c_ok = c.violations == 0
        && c.entries >= 1
        && c.exits >= 1
        && !c.degraded_at_end
        && c.pending_at_end == 0;
    d.accept(
        "c",
        c_ok,
        &format!(
            "{} rows served over the lag bound across {} degraded batches; \
             {} entries / {} exits, clean at end",
            c.violations, c.degraded_batches, c.entries, c.exits,
        ),
    );
    println!();

    let mut j = d.report();
    emit_json(&mut j, &a, &b, &c);
    d.finish("BENCH_update.json", j, Some((EXPECTED, "all drills")))
}

const EXPECTED: &str = "\
staged pushes only become visible at batch boundaries, so every
served row decodes to exactly one committed version and per-key versions
never regress even under drops, duplicates, reorders, and burst storms;
a returning device replays its base checkpoint plus the delta chain and
lands on the latest checkpointed version rather than the stale base; and
an update-stream outage trips the declared staleness-degraded mode, which
demotes over-bound hits to fresh miss-fills until the stream catches up.";
