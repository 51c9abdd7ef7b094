//! Recovery drill: crash recovery and device-loss failover, measured.
//!
//! Two deterministic drills over the checkpoint/restore and multi-GPU
//! failover machinery:
//!
//! * **Drill A — kill the process.** A single Fleche system serves to
//!   steady state while checkpointing its flat cache every few batches.
//!   The process is then "killed" (system and GPU dropped) and restarted
//!   three ways: cold (empty cache), warm (restore the latest
//!   checkpoint), and from a *corrupted* checkpoint (one byte flipped at
//!   a seeded offset), which must be rejected at restore and fall back
//!   to the workload-stats warm-up replayer. The figure of merit is
//!   batches until the rolling hit rate reaches 95% of steady state.
//! * **Drill B — kill a GPU mid-sweep.** A 4-shard [`MultiGpuFleche`]
//!   loses one device at a scheduled batch and gets it back later.
//!   Rendezvous routing re-homes only the dead shard's keys, the drill
//!   oracle-verifies every served row against a ground-truth store, and
//!   on return the shard re-warms from its last checkpoint. Reported:
//!   the hit-rate timeline, time-in-degraded, and simulated time until
//!   the rolling hit rate is back to 99% of its pre-loss steady state.
//!
//! Both drills derive every schedule from one fixed seed, so two runs
//! print byte-identical output — CI diffs them.
//!
//! Run: `cargo run --release -p fleche-bench -- recovery_drill [--quick] [--analyze]`
//!
//! `--analyze` arms the happens-before race checker on every GPU in both
//! drills (checkpoint scans, restore replays, wipes, and failover
//! re-warms all declare their slot accesses) and fails the run (exit 1)
//! if any conflicting pair is unordered.

use std::process::ExitCode;

use crate::drill::{Drill, RacesFound};
use crate::{fmt_ns, rolling_mean, Args, TextTable};
use fleche_chaos::{DeviceLossSpec, FaultPlan};
use fleche_core::{CheckpointChain, FlecheConfig, FlecheSystem, InterconnectSpec, MultiGpuFleche};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu, Ns};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::CpuStore;
use fleche_workload::{spec, DatasetSpec, TraceGenerator, WorkloadStats};

const SEED: u64 = 0xFA11_BACC;
const BATCH: usize = 256;
/// Rolling window (batches) for the recovery hit-rate threshold.
const ROLL: usize = 4;
/// Checkpoint cadence in batches for both drills.
const CKPT_EVERY: u64 = 10;

fn restart_dataset() -> DatasetSpec {
    // A corpus much larger than the cache with moderate skew: the cold
    // climb back to steady state takes long enough that a warm restart's
    // advantage is measurable in whole batches.
    spec::synthetic(8, 20_000, 16, -1.1)
}
const RESTART_FRACTION: f64 = 0.08;

fn failover_dataset() -> DatasetSpec {
    spec::synthetic(6, 8_000, 16, -1.2)
}
const FAILOVER_FRACTION: f64 = 0.05;
const SHARDS: usize = 4;
const VICTIM: usize = 1;

// ---------------------------------------------------------------------
// Drill A: kill the process, restart cold / warm / from a rotten image.
// ---------------------------------------------------------------------

struct RestartCell {
    label: &'static str,
    prefetch_batches: u64,
    batches_to_95: u64,
    first_batch_hit: f64,
    note: String,
}

struct RestartReport {
    steady_hit: f64,
    snapshot_bytes: u64,
    snapshot_entries: u64,
    checkpoint_time: Ns,
    restore_time: Ns,
    cells: Vec<RestartCell>,
    cold_batches: u64,
    warm_batches: u64,
    corrupt_rejected: bool,
    fallback_used_warmup: bool,
}

fn fresh_restart_system(ds: &DatasetSpec, analyze: bool) -> (FlecheSystem, Gpu) {
    let store = CpuStore::new(ds, DramSpec::xeon_6252());
    let sys = FlecheSystem::new(ds, store, FlecheConfig::full(RESTART_FRACTION));
    let mut gpu = Gpu::new(DeviceSpec::t4());
    if analyze {
        gpu.enable_race_checker();
    }
    (sys, gpu)
}

/// Serves batches from a fresh trace until the rolling hit rate reaches
/// `target`, returning `(batches served, first-batch hit rate)`.
fn batches_to_target(
    sys: &mut FlecheSystem,
    gpu: &mut Gpu,
    ds: &DatasetSpec,
    target: f64,
    max_batches: u64,
) -> (u64, f64) {
    let mut gen = TraceGenerator::new(ds);
    let mut rates: Vec<f64> = Vec::new();
    let mut first = 0.0;
    for b in 1..=max_batches {
        let out = sys.query_batch(gpu, &gen.next_batch(BATCH));
        if b == 1 {
            first = out.stats.hit_rate();
        }
        rates.push(out.stats.hit_rate());
        if rolling_mean(&rates, ROLL) >= target {
            return (b, first);
        }
    }
    (max_batches, first)
}

fn drill_restart(d: &Drill) -> Result<RestartReport, RacesFound> {
    let ds = restart_dataset();
    let analyze = d.args.analyze;
    let steady_batches: u64 = if d.args.quick { 48 } else { 96 };
    let max_measure: u64 = 4 * steady_batches;

    let mut plan = FaultPlan::quiet(SEED);
    plan.restart.kill_after_batch = Some(steady_batches - 1);
    plan.snapshot.corruption_rate = 1.0;

    // ---- Steady phase: serve, observe the workload, checkpoint. -----
    let (mut sys, mut gpu) = fresh_restart_system(&ds, analyze);
    let mut gen = TraceGenerator::new(&ds);
    let mut hot_stats = WorkloadStats::new();
    let mut rates: Vec<f64> = Vec::new();
    let mut snapshot: Option<CheckpointChain> = None;
    let mut checkpoint_time = Ns::ZERO;
    for b in 0..steady_batches {
        let batch = gen.next_batch(BATCH);
        hot_stats.observe(&batch);
        let out = sys.query_batch(&mut gpu, &batch);
        rates.push(out.stats.hit_rate());
        if (b + 1) % CKPT_EVERY == 0 {
            let t0 = gpu.now();
            snapshot = Some(sys.checkpoint(&mut gpu));
            checkpoint_time = gpu.now() - t0;
        }
        if plan.restart.kill_due(b) {
            break;
        }
    }
    d.check_races(&gpu, "drill A steady phase")?;
    let steady_hit = rolling_mean(&rates, 16);
    let target = 0.95 * steady_hit;
    let snap = snapshot.expect("steady phase longer than one checkpoint interval");
    drop(sys);
    drop(gpu);

    // ---- Cold restart: empty cache, climb from nothing. -------------
    let (mut cold_sys, mut cold_gpu) = fresh_restart_system(&ds, analyze);
    let (cold_batches, cold_first) =
        batches_to_target(&mut cold_sys, &mut cold_gpu, &ds, target, max_measure);
    d.check_races(&cold_gpu, "drill A cold restart")?;

    // ---- Warm restart: restore the latest checkpoint, then serve. ---
    let (mut warm_sys, mut warm_gpu) = fresh_restart_system(&ds, analyze);
    let report = warm_sys
        .restore_checkpoint(&mut warm_gpu, &snap)
        .expect("intact checkpoint restores");
    let restore_time = warm_gpu.now();
    let (warm_batches, warm_first) =
        batches_to_target(&mut warm_sys, &mut warm_gpu, &ds, target, max_measure);
    d.check_races(&warm_gpu, "drill A warm restart")?;

    // ---- Rotten image: must be rejected, then warm up from stats. ---
    let mut rotten = snap.clone();
    let off = plan
        .snapshot_injector()
        .corrupt_offset(rotten.byte_len())
        .expect("corruption rate 1.0 always rots");
    assert!(rotten.corrupt_byte(off), "offset in bounds");
    let (mut fb_sys, mut fb_gpu) = fresh_restart_system(&ds, analyze);
    let (corrupt_rejected, reject_note) = match fb_sys.restore_checkpoint(&mut fb_gpu, &rotten) {
        Err(e) => (true, format!("rejected: {e}")),
        Ok(_) => (false, "ACCEPTED A ROTTEN IMAGE".to_string()),
    };
    let hot_k =
        (ds.tables.iter().map(|t| t.corpus).sum::<u64>() as f64 * RESTART_FRACTION) as usize;
    let prefetch_batches = fb_sys.warm_up(&mut fb_gpu, &hot_stats.hottest(hot_k), BATCH);
    let (fb_batches, fb_first) =
        batches_to_target(&mut fb_sys, &mut fb_gpu, &ds, target, max_measure);
    d.check_races(&fb_gpu, "drill A corrupt-image fallback")?;

    Ok(RestartReport {
        steady_hit,
        snapshot_bytes: snap.byte_len(),
        snapshot_entries: report.restored + report.bypassed,
        checkpoint_time,
        restore_time,
        cells: vec![
            RestartCell {
                label: "cold",
                prefetch_batches: 0,
                batches_to_95: cold_batches,
                first_batch_hit: cold_first,
                note: "empty cache".to_string(),
            },
            RestartCell {
                label: "warm",
                prefetch_batches: 0,
                batches_to_95: warm_batches,
                first_batch_hit: warm_first,
                note: format!("restored {} entries", report.restored),
            },
            RestartCell {
                label: "corrupt->warm-up",
                prefetch_batches,
                batches_to_95: fb_batches,
                first_batch_hit: fb_first,
                note: reject_note,
            },
        ],
        cold_batches,
        warm_batches,
        corrupt_rejected,
        fallback_used_warmup: prefetch_batches > 0,
    })
}

// ---------------------------------------------------------------------
// Drill B: kill one GPU mid-sweep, serve degraded, re-warm on return.
// ---------------------------------------------------------------------

struct TimelinePoint {
    batch: u64,
    alive: usize,
    hit_rate: f64,
    wall: Ns,
    event: &'static str,
}

struct FailoverReport {
    steady_hit: f64,
    corrupt_rows: u64,
    lost_at: u64,
    restored_at: u64,
    recovery_batches: Option<u64>,
    recovery_time: Ns,
    timeline: Vec<TimelinePoint>,
    failover: fleche_core::FailoverStats,
}

fn drill_failover(d: &Drill) -> Result<FailoverReport, RacesFound> {
    let ds = failover_dataset();
    let batches: u64 = if d.args.quick { 60 } else { 120 };
    let lost_at = batches * 2 / 5;
    let restored_at = batches * 3 / 5;

    let mut plan = FaultPlan::quiet(SEED);
    plan.device_loss = DeviceLossSpec {
        victim: VICTIM,
        lost_at_batch: Some(lost_at),
        restored_at_batch: Some(restored_at),
    };
    let inj = plan.device_loss_injector();

    let mut mg = MultiGpuFleche::new(
        &ds,
        SHARDS,
        FAILOVER_FRACTION,
        FlecheConfig::full(FAILOVER_FRACTION),
        InterconnectSpec::pcie_p2p(),
    );
    if d.args.analyze {
        mg.enable_race_checkers();
    }
    let truth = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut gen = TraceGenerator::new(&ds);

    let mut currently_lost = false;
    let mut corrupt_rows = 0u64;
    let mut rates: Vec<f64> = Vec::new();
    let mut walls: Vec<Ns> = Vec::new();
    let mut alive_trace: Vec<usize> = Vec::new();
    for b in 0..batches {
        if b > 0 && b % CKPT_EVERY == 0 {
            mg.checkpoint();
        }
        if let Some(fault) = inj.transition(currently_lost, b) {
            currently_lost = !currently_lost;
            mg.shard_gpu_mut(inj.victim()).inject_device_fault(fault);
        }
        let batch = gen.next_batch(BATCH);
        let (rows, timing, stats) = mg.query_batch(&batch);
        let mut k = 0;
        for (t, ids) in batch.table_ids.iter().enumerate() {
            for &id in ids {
                if rows[k] != truth.read(t as u16, id) {
                    corrupt_rows += 1;
                }
                k += 1;
            }
        }
        rates.push(stats.hit_rate());
        walls.push(timing.total);
        alive_trace.push(mg.alive_count());
    }
    d.check_shard_races(&mut mg, "drill B failover sweep")?;

    // Pre-loss steady state and the post-restore recovery point.
    let steady_hit = rolling_mean(&rates[..lost_at as usize], 16);
    let target = 0.99 * steady_hit;
    let mut recovery_batches = None;
    let mut recovery_time = Ns::ZERO;
    for b in restored_at..batches {
        recovery_time += walls[b as usize];
        // Window starts at the restore: degraded batches must not
        // pollute the recovery average.
        let lo = restored_at.max((b + 1).saturating_sub(ROLL as u64)) as usize;
        let m = rates[lo..=b as usize].iter().sum::<f64>() / (b as usize - lo + 1) as f64;
        if m >= target {
            recovery_batches = Some(b - restored_at + 1);
            break;
        }
    }

    // Sampled timeline: a coarse cadence plus every state-change batch.
    let tick = (batches / 12).max(1);
    let recovered_batch = recovery_batches.map(|n| restored_at + n - 1);
    let mut timeline = Vec::new();
    for b in 0..batches {
        let event = if b == lost_at {
            "device lost"
        } else if b == restored_at {
            "device restored"
        } else if Some(b) == recovered_batch {
            "hit rate recovered"
        } else if b % tick == 0 {
            ""
        } else {
            continue;
        };
        timeline.push(TimelinePoint {
            batch: b,
            alive: alive_trace[b as usize],
            hit_rate: rates[b as usize],
            wall: walls[b as usize],
            event,
        });
    }

    Ok(FailoverReport {
        steady_hit,
        corrupt_rows,
        lost_at,
        restored_at,
        recovery_batches,
        recovery_time,
        timeline,
        failover: mg.failover_stats(),
    })
}

pub(crate) fn main(args: &Args) -> ExitCode {
    let mut d = Drill::start(
        args,
        "Recovery drill: warm restart from checkpoints + device-loss failover",
    );

    // ---- Drill A --------------------------------------------------------
    let Ok(a) = drill_restart(&d) else {
        return ExitCode::FAILURE;
    };
    println!("drill A: kill the process after steady state, restart three ways");
    println!(
        "steady hit rate {:.2}%; checkpoint image {} bytes ({} entries), written in {}, restored in {}",
        a.steady_hit * 100.0,
        a.snapshot_bytes,
        a.snapshot_entries,
        fmt_ns(a.checkpoint_time),
        fmt_ns(a.restore_time),
    );
    let mut ta = TextTable::new(&[
        "restart",
        "prefetch batches",
        "batches to 95% steady",
        "first-batch hit",
        "note",
    ]);
    for c in &a.cells {
        ta.row(&[
            c.label.to_string(),
            format!("{}", c.prefetch_batches),
            format!("{}", c.batches_to_95),
            format!("{:.2}%", c.first_batch_hit * 100.0),
            c.note.clone(),
        ]);
    }
    println!("{}", ta.render());

    // ---- Drill B --------------------------------------------------------
    let Ok(b) = drill_failover(&d) else {
        return ExitCode::FAILURE;
    };
    println!(
        "drill B: {SHARDS} shards, shard {VICTIM} lost at batch {} and restored at batch {}",
        b.lost_at, b.restored_at
    );
    let mut tb = TextTable::new(&["batch", "alive", "hit rate", "batch wall", "event"]);
    for p in &b.timeline {
        tb.row(&[
            format!("{}", p.batch),
            format!("{}/{SHARDS}", p.alive),
            format!("{:.2}%", p.hit_rate * 100.0),
            fmt_ns(p.wall),
            p.event.to_string(),
        ]);
    }
    println!("{}", tb.render());

    let f = b.failover;
    println!("failover state transitions (satellite view of the breaker/failover machinery):");
    println!(
        "  device losses {}  restores {}  moved-key accesses {}  degraded batches {}  time degraded {}",
        f.device_losses, f.device_restores, f.moved_keys, f.degraded_batches,
        fmt_ns(f.time_degraded),
    );
    println!(
        "  re-warm: {} entries replayed from checkpoint in {}  (cold starts {}, images rejected {})",
        f.rewarm_restored_entries,
        fmt_ns(f.rewarm_time),
        f.rewarm_cold_starts,
        f.snapshot_rejected,
    );
    match b.recovery_batches {
        Some(n) => println!(
            "  recovery to 99% of steady hit rate ({:.2}%): {n} batches / {} after restore",
            b.steady_hit * 100.0,
            fmt_ns(b.recovery_time),
        ),
        None => println!(
            "  recovery to 99% of steady hit rate ({:.2}%): NOT REACHED in window",
            b.steady_hit * 100.0
        ),
    }
    println!();

    // ---- Acceptance -----------------------------------------------------
    let warm_fast = a.warm_batches * 10 <= a.cold_batches;
    d.accept(
        "a",
        warm_fast,
        &format!(
            "warm restart hit 95% of steady in {} batches vs {} cold (target <= {})",
            a.warm_batches,
            a.cold_batches,
            a.cold_batches / 10,
        ),
    );
    d.accept(
        "b",
        a.corrupt_rejected && a.fallback_used_warmup,
        &format!(
            "corrupted checkpoint rejected at restore, fell back to warm-up ({} prefetch batches)",
            a.cells[2].prefetch_batches,
        ),
    );
    d.accept(
        "c",
        b.corrupt_rows == 0,
        &format!(
            "rows differing from ground truth across the device-loss sweep: {}",
            b.corrupt_rows
        ),
    );
    let window_ok = f.degraded_batches == b.restored_at - b.lost_at
        && f.device_losses == 1
        && f.device_restores == 1;
    d.accept(
        "d",
        window_ok && f.rewarm_restored_entries > 0,
        &format!(
            "degraded window matched the schedule ({} batches) and re-warm replayed {} entries",
            f.degraded_batches, f.rewarm_restored_entries,
        ),
    );

    let mut j = d.report();
    j.begin_obj("drill_a");
    j.field_f64("steady_hit_rate", a.steady_hit);
    j.field_u64("snapshot_bytes", a.snapshot_bytes);
    j.field_u64("snapshot_entries", a.snapshot_entries);
    j.field_f64("checkpoint_ns", a.checkpoint_time.as_ns());
    j.field_f64("restore_ns", a.restore_time.as_ns());
    j.begin_arr("restarts");
    for c in &a.cells {
        j.begin_elem();
        j.field_str("restart", c.label);
        j.field_u64("prefetch_batches", c.prefetch_batches);
        j.field_u64("batches_to_95pct_steady", c.batches_to_95);
        j.field_f64("first_batch_hit_rate", c.first_batch_hit);
        j.end_obj();
    }
    j.end_arr();
    j.field_bool("corrupt_rejected", a.corrupt_rejected);
    j.end_obj();
    j.begin_obj("drill_b");
    j.field_f64("steady_hit_rate", b.steady_hit);
    j.field_u64("lost_at", b.lost_at);
    j.field_u64("restored_at", b.restored_at);
    j.field_u64("corrupt_rows", b.corrupt_rows);
    j.field_u64("degraded_batches", f.degraded_batches);
    j.field_u64("rewarm_restored_entries", f.rewarm_restored_entries);
    j.field_f64("rewarm_ns", f.rewarm_time.as_ns());
    match b.recovery_batches {
        Some(n) => j.field_u64("recovery_batches", n),
        None => j.field_str("recovery_batches", "not reached"),
    }
    j.field_f64("recovery_ns", b.recovery_time.as_ns());
    j.end_obj();
    d.finish("BENCH_recovery.json", j, Some((EXPECTED, "both drills")))
}

const EXPECTED: &str = "\
a warm restart replays the checkpoint into the insert workflow
and starts within a rolling window of steady state, while a cold restart
re-learns the working set one miss at a time; a rotten image is always
refused by its checksum and the warm-up replayer rebuilds from workload
stats instead; losing a device re-homes only its rendezvous range, serves
those keys degraded from DRAM at full fidelity, and the returning device
replays its last checkpoint rather than starting cold.";
