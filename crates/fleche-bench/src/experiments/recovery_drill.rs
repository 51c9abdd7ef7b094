//! Recovery drill: crash recovery and device-loss failover, measured.
//!
//! Two deterministic drills over the checkpoint/restore and multi-GPU
//! failover machinery: drill A kills the process, drill B a GPU.
//!
//! Run: `cargo run --release -p fleche-bench -- recovery_drill [--quick] [--analyze]`
//! (under `--analyze`, checkpoint scans, restore replays, wipes and
//! failover re-warms all declare their slot accesses).

use std::process::ExitCode;

use crate::drill::{field_batches, serve, Drill, RacesFound, Single, Step, BATCH, ROLL};
use crate::{fmt_ns, fmt_pct, rolling_mean, xeon_store, Args, JsonEmitter, TextTable};
use fleche_chaos::FaultPlan;
use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::Ns;
use fleche_workload::{spec, DatasetSpec, TraceGenerator, WorkloadStats};

const SEED: u64 = 0xFA11_BACC;
/// Checkpoint cadence in batches for both drills.
const CKPT_EVERY: u64 = 10;
const RESTART_FRACTION: f64 = 0.08;
const SHARDS: usize = 4;

/// Serves batches from a fresh trace until the rolling hit rate reaches
/// `target`, returning `(batches served, first-batch hit rate)`.
fn batches_to_target(s: &mut Single, ds: &DatasetSpec, target: f64, max: u64) -> (u64, f64) {
    let log = serve(s, &mut TraceGenerator::new(ds), max, |_, log, step| {
        if matches!(step, Step::Served(..)) && rolling_mean(&log.rates, ROLL) >= target {
            log.stop();
        }
    });
    (log.rates.len() as u64, log.rates[0])
}

/// Drill A — kill the process. A single Fleche system serves to
/// steady state while checkpointing its flat cache every few batches.
/// The process is then "killed" (system and GPU dropped) and restarted
/// three ways: cold (empty cache), warm (restore the latest
/// checkpoint), and from a *corrupted* checkpoint (one byte flipped at
/// a seeded offset), which must be rejected at restore and fall back
/// to the workload-stats warm-up replayer. The figure of merit is
/// batches until the rolling hit rate reaches 95% of steady state.
fn drill_restart(d: &mut Drill, j: &mut JsonEmitter) -> Result<(), RacesFound> {
    // A corpus much larger than the cache with moderate skew: the cold
    // climb back to steady state takes long enough that a warm restart's
    // advantage is measurable in whole batches.
    let ds = spec::synthetic(8, 20_000, 16, -1.1);
    let steady_batches: u64 = if d.args.quick { 48 } else { 96 };
    let max_measure: u64 = 4 * steady_batches;
    let fresh = || {
        let sys = FlecheSystem::new(&ds, xeon_store(&ds), FlecheConfig::full(RESTART_FRACTION));
        d.single(sys)
    };

    let mut plan = FaultPlan::quiet(SEED);
    plan.snapshot.corruption_rate = 1.0;

    // ---- Steady phase: serve, observe the workload, checkpoint. -----
    let mut s = fresh();
    let mut hot_stats = WorkloadStats::new();
    let mut snapshot = None;
    let mut checkpoint_time = Ns::ZERO;
    let log = serve(
        &mut s,
        &mut TraceGenerator::new(&ds),
        steady_batches,
        |s, _, step| {
            if let Step::Served(b, batch, _) = step {
                hot_stats.observe(batch);
                if (b + 1) % CKPT_EVERY == 0 {
                    let t0 = s.gpu.now();
                    snapshot = Some(s.sys.checkpoint(&mut s.gpu));
                    checkpoint_time = s.gpu.now() - t0;
                }
            }
        },
    );
    d.check_races(&s.gpu, "drill A steady phase")?;
    drop(s);
    let steady_hit = rolling_mean(&log.rates, 16);
    let target = 0.95 * steady_hit;
    let snap = snapshot.expect("steady phase longer than one checkpoint interval");

    // ---- Cold restart: empty cache, climb from nothing. -------------
    let mut cold = fresh();
    let (cold_batches, cold_first) = batches_to_target(&mut cold, &ds, target, max_measure);
    d.check_races(&cold.gpu, "drill A cold restart")?;

    // ---- Warm restart: restore the latest checkpoint, then serve. ---
    let mut warm = fresh();
    let report = warm
        .sys
        .restore_checkpoint(&mut warm.gpu, &snap)
        .expect("intact checkpoint restores");
    let restore_time = warm.gpu.now();
    let (warm_batches, warm_first) = batches_to_target(&mut warm, &ds, target, max_measure);
    d.check_races(&warm.gpu, "drill A warm restart")?;

    // ---- Rotten image: must be rejected, then warm up from stats. ---
    let mut rotten = snap.clone();
    let off = plan
        .snapshot_injector()
        .corrupt_offset(rotten.byte_len())
        .expect("corruption rate 1.0 always rots");
    assert!(rotten.corrupt_byte(off), "offset in bounds");
    let mut fb = fresh();
    let (corrupt_rejected, reject_note) = match fb.sys.restore_checkpoint(&mut fb.gpu, &rotten) {
        Err(e) => (true, format!("rejected: {e}")),
        Ok(_) => (false, "ACCEPTED A ROTTEN IMAGE".to_string()),
    };
    let hot_k =
        (ds.tables.iter().map(|t| t.corpus).sum::<u64>() as f64 * RESTART_FRACTION) as usize;
    let prefetch_batches = fb
        .sys
        .warm_up(&mut fb.gpu, &hot_stats.hottest(hot_k), BATCH);
    let (fb_batches, fb_first) = batches_to_target(&mut fb, &ds, target, max_measure);
    d.check_races(&fb.gpu, "drill A corrupt-image fallback")?;

    let entries = report.restored + report.bypassed;
    println!("drill A: kill the process after steady state, restart three ways");
    println!(
        "steady hit rate {:.2}%; checkpoint image {} bytes ({entries} entries), written in {}, restored in {}",
        steady_hit * 100.0,
        snap.byte_len(),
        fmt_ns(checkpoint_time),
        fmt_ns(restore_time),
    );
    j.begin_obj("drill_a");
    j.field_f64("steady_hit_rate", steady_hit);
    j.field_u64("snapshot_bytes", snap.byte_len());
    j.field_u64("snapshot_entries", entries);
    j.field_f64("checkpoint_ns", checkpoint_time.as_ns());
    j.field_f64("restore_ns", restore_time.as_ns());
    let mut ta = TextTable::new(&[
        "restart",
        "prefetch batches",
        "batches to 95% steady",
        "first-batch hit",
        "note",
    ]);
    j.begin_arr("restarts");
    let restored = format!("restored {} entries", report.restored);
    for (label, prefetch, batches, first, note) in [
        ("cold", 0, cold_batches, cold_first, "empty cache"),
        ("warm", 0, warm_batches, warm_first, &restored),
        (
            "corrupt->warm-up",
            prefetch_batches,
            fb_batches,
            fb_first,
            &reject_note,
        ),
    ] {
        ta.row(&[
            label.to_string(),
            format!("{prefetch}"),
            format!("{batches}"),
            fmt_pct(first),
            note.to_string(),
        ]);
        j.begin_elem();
        j.field_str("restart", label);
        j.field_u64("prefetch_batches", prefetch);
        j.field_u64("batches_to_95pct_steady", batches);
        j.field_f64("first_batch_hit_rate", first);
        j.end_obj();
    }
    j.end_arr();
    j.field_bool("corrupt_rejected", corrupt_rejected);
    j.end_obj();
    println!("{}", ta.render());

    d.accept(
        "a",
        warm_batches * 10 <= cold_batches,
        &format!(
            "warm restart hit 95% of steady in {warm_batches} batches vs {cold_batches} cold (target <= {})",
            cold_batches / 10,
        ),
    );
    d.accept(
        "b",
        corrupt_rejected && prefetch_batches > 0,
        &format!(
            "corrupted checkpoint rejected at restore, fell back to warm-up ({prefetch_batches} prefetch batches)"
        ),
    );
    Ok(())
}

/// Drill B — kill a GPU mid-sweep. A 4-shard `MultiGpuFleche`
/// loses one device at a scheduled batch and gets it back later.
/// Rendezvous routing re-homes only the dead shard's keys, the drill
/// oracle-verifies every served row against a ground-truth store, and
/// on return the shard re-warms from its last checkpoint. Reported:
/// the hit-rate timeline, time-in-degraded, and simulated time until
/// the rolling hit rate is back to 99% of its pre-loss steady state.
fn drill_failover(d: &mut Drill, j: &mut JsonEmitter) -> Result<(), RacesFound> {
    let ds = spec::synthetic(6, 8_000, 16, -1.2);
    let batches: u64 = if d.args.quick { 60 } else { 120 };
    let truth = xeon_store(&ds);
    let mut corrupt_rows = 0u64;
    let sweep = d.device_loss_sweep(
        &ds,
        SHARDS,
        0.05,
        batches,
        |b, mg, _| {
            if b > 0 && b % CKPT_EVERY == 0 {
                mg.checkpoint();
            }
        },
        |_, step| {
            if let Step::Served(_, batch, rows) = step {
                for ((t, id), row) in batch.iter_accesses().zip(rows) {
                    if *row != truth.read(t, id) {
                        corrupt_rows += 1;
                    }
                }
            }
        },
    )?;
    let walls = &sweep.log.walls;
    let restored = sweep.restored_at as usize;
    let recovery_end = sweep
        .recovery
        .map_or(walls.len(), |n| restored + n as usize);
    let recovery_time: Ns = walls[restored..recovery_end].iter().copied().sum();

    println!("{}", sweep.header());
    println!("{}", sweep.timeline("batch wall", |b| fmt_ns(walls[b])));
    let f = sweep.mg.failover_stats();
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
        f.cold_rewarms,
        f.snapshot_rejected,
    );
    let steady = sweep.steady * 100.0;
    match sweep.recovery {
        Some(n) => println!(
            "  recovery to 99% of steady hit rate ({steady:.2}%): {n} batches / {} after restore",
            fmt_ns(recovery_time),
        ),
        None => {
            println!("  recovery to 99% of steady hit rate ({steady:.2}%): NOT REACHED in window")
        }
    }
    println!();

    d.accept(
        "c",
        corrupt_rows == 0,
        &format!("rows differing from ground truth across the device-loss sweep: {corrupt_rows}"),
    );
    let window_ok = f.degraded_batches == sweep.restored_at - sweep.lost_at
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

    j.begin_obj("drill_b");
    j.field_f64("steady_hit_rate", sweep.steady);
    j.field_u64("lost_at", sweep.lost_at);
    j.field_u64("restored_at", sweep.restored_at);
    j.field_u64("corrupt_rows", corrupt_rows);
    j.field_u64("degraded_batches", f.degraded_batches);
    j.field_u64("rewarm_restored_entries", f.rewarm_restored_entries);
    j.field_f64("rewarm_ns", f.rewarm_time.as_ns());
    field_batches(j, "recovery_batches", sweep.recovery);
    j.field_f64("recovery_ns", recovery_time.as_ns());
    j.end_obj();
    Ok(())
}

pub(crate) fn main(args: &Args) -> ExitCode {
    let title = "Recovery drill: warm restart from checkpoints + device-loss failover";
    Drill::run(
        args,
        title,
        "BENCH_recovery.json",
        Some((EXPECTED, "both drills")),
        false,
        |d, j| {
            drill_restart(d, j)?;
            drill_failover(d, j)
        },
    )
}

const EXPECTED: &str = "\
a warm restart replays the checkpoint into the insert workflow
and starts within a rolling window of steady state, while a cold restart
re-learns the working set one miss at a time; a rotten image is always
refused by its checksum and the warm-up replayer rebuilds from workload
stats instead; losing a device re-homes only its rendezvous range, serves
those keys degraded from DRAM at full fidelity, and the returning device
replays its last checkpoint rather than starting cold.";
