//! Serving front-end scaling drill: the pipelined multi-worker server.
//!
//! Four phases:
//!
//! 1. **identity** — `serve_concurrent` with one worker, the streaming
//!    batcher, and no pacing must be *bit-identical* to the serial
//!    `serve` loop, with and without overload shedding.
//! 2. **scaling** — sweep worker counts over a millions-of-requests
//!    arrival stream with micro-batching, prep/execute pipelining, and
//!    paced device dwell, measuring *wall-clock* throughput. Simulated
//!    metrics go to stdout (deterministic, diffable); wall-clock numbers
//!    go to stderr and the JSON's machine-dependent section.
//! 3. **overload** — periodic arrival bursts (the chaos plan's overload
//!    schedule) against a deadline: shedding absorbs the burst, served
//!    requests keep their latency bound.
//! 4. **`--analyze`** — replays the queue and pipeline hand-off
//!    protocols through the happens-before checker (expects zero races)
//!    and self-tests the checker by omitting the credit edge (expects
//!    exactly `handoffs - depth` races).
//!
//! stdout is byte-identical run to run; every machine-dependent number
//! prints to stderr only. Run:
//! `cargo run --release -p fleche-bench -- serve_scaling [--quick] [--analyze]`

use std::process::ExitCode;

use crate::drill::{pass_fail, Drill};
use crate::{front_end_replica, Args, JsonEmitter, TextTable};
use fleche_chaos::OverloadSpec;
use fleche_gpu::{declare_pipeline_handoffs, Ns, RaceChecker};
use fleche_model::{
    serve, serve_concurrent, ConcurrentConfig, ConcurrentRun, ServedRun, ServerConfig,
};

/// Offered load of the scaling sweep, samples per second.
const LOAD: f64 = 2_000_000.0;
/// Micro-batcher latency budget: long enough that a full batch forms at
/// every worker count in the sweep (fill time at 8 workers ~1.0 ms).
const LINGER: Ns = Ns(1_200_000.0);
/// Real seconds slept per simulated second of batch time — the host's
/// device-dwell duty cycle. Tuned so dwell dominates host CPU work per
/// batch, which is what lets sleeps overlap across workers.
const PACE: f64 = 48.0;
/// Prep→execute channel depth.
const DEPTH: usize = 4;

/// Compares every simulated field bit-for-bit; returns mismatch labels.
fn identity_diff(serial: &ServedRun, conc: &ServedRun) -> Vec<&'static str> {
    let mut bad = Vec::new();
    let mut check = |label, ok: bool| {
        if !ok {
            bad.push(label);
        }
    };
    check("offered", serial.offered == conc.offered);
    check("served", serial.served == conc.served);
    check("shed_queue", serial.shed_queue == conc.shed_queue);
    check("shed_deadline", serial.shed_deadline == conc.shed_deadline);
    check("latency_count", serial.latency.len() == conc.latency.len());
    check(
        "achieved",
        serial.achieved.to_bits() == conc.achieved.to_bits(),
    );
    check(
        "mean_batch",
        serial.mean_batch.to_bits() == conc.mean_batch.to_bits(),
    );
    check(
        "utilization",
        serial.utilization.to_bits() == conc.utilization.to_bits(),
    );
    check(
        "median",
        serial.latency.median().as_ns().to_bits() == conc.latency.median().as_ns().to_bits(),
    );
    check(
        "p99",
        serial.latency.p99().as_ns().to_bits() == conc.latency.p99().as_ns().to_bits(),
    );
    check(
        "mean",
        serial.latency.mean().as_ns().to_bits() == conc.latency.mean().as_ns().to_bits(),
    );
    check("hits", serial.lifetime.hits == conc.lifetime.hits);
    check("misses", serial.lifetime.misses == conc.lifetime.misses);
    check("batches", serial.lifetime.batches == conc.lifetime.batches);
    bad
}

fn phase_identity(d: &mut Drill, j: &mut JsonEmitter) {
    println!("--- phase 1: one-worker identity vs serial serve ---");
    let cases: [(&str, ServerConfig); 2] = [
        (
            "open",
            ServerConfig {
                offered_load: 300_000.0,
                max_batch: 256,
                requests: 4_000,
                warmup_requests: 4_000,
                queue_capacity: None,
                deadline: None,
            },
        ),
        (
            "shedding",
            ServerConfig {
                offered_load: 6_000_000.0,
                max_batch: 256,
                requests: 4_000,
                warmup_requests: 4_000,
                queue_capacity: Some(512),
                deadline: Some(Ns::from_us(400.0)),
            },
        ),
    ];
    j.begin_arr("identity");
    for (name, cfg) in &cases {
        let (mut eng, mut gen) = front_end_replica(0);
        let serial = serve(&mut eng, &mut gen, cfg);
        let conc = serve_concurrent(front_end_replica, &ConcurrentConfig::mirror_serial(cfg, 1));
        let bad = identity_diff(&serial, &conc.workers[0].run);
        let ok = bad.is_empty();
        println!(
            "identity ({name}): {}{} (served {}, shed {}+{})",
            d.verdict(ok),
            if ok { " — bit-identical" } else { "" },
            serial.served,
            serial.shed_queue,
            serial.shed_deadline,
        );
        if !ok {
            println!("  mismatched fields: {}", bad.join(", "));
        }
        j.begin_elem();
        j.field_str("case", name);
        j.field_bool("bit_identical", ok);
        j.field_u64("served", serial.served);
        j.field_u64("shed", serial.shed_queue + serial.shed_deadline);
        j.end_obj();
    }
    j.end_arr();
}

fn scaling_config(workers: usize, requests: usize) -> ConcurrentConfig {
    ConcurrentConfig {
        workers,
        offered_load: LOAD,
        max_batch: 256,
        requests,
        warmup_requests: 48_000,
        queue_capacity: None,
        deadline: None,
        linger: Some(LINGER),
        pipeline_depth: DEPTH,
        pace: PACE,
        bursts: Vec::new(),
        analyze: false,
        shard_capacity: 4096,
    }
}

/// Returns the wall-clock acceptance, which is the host's to pass: it is
/// reported on stderr and kept out of the drill's deterministic verdicts.
fn phase_scaling(quick: bool, j: &mut JsonEmitter) -> bool {
    let requests = if quick { 200_000 } else { 2_000_000 };
    let sweep: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    println!("\n--- phase 2: wall-clock scaling, {requests} requests ---");
    println!("(simulated metrics below; wall-clock table on stderr)");
    let mut sim = TextTable::new(&[
        "workers",
        "served",
        "mean batch",
        "sim tput",
        "p99 sim",
        "batches",
    ]);
    let mut wall = TextTable::new(&[
        "workers",
        "wall secs",
        "wall tput",
        "speedup",
        "prep s",
        "exec s",
        "dwell s",
    ]);
    let mut base_tput = 0.0;
    let mut speedup_at_4 = 0.0;
    j.begin_arr("scaling");
    for &w in sweep {
        let run = serve_concurrent(front_end_replica, &scaling_config(w, requests));
        let batches: u64 = run.workers.iter().map(|x| x.batches).sum();
        let mean_batch = run.served() as f64 / batches.max(1) as f64;
        let p99 = run
            .workers
            .iter()
            .map(|x| x.run.latency.p99())
            .fold(Ns::ZERO, Ns::max);
        sim.row(&[
            w.to_string(),
            run.served().to_string(),
            format!("{mean_batch:.1}"),
            format!("{:.0}/s", run.sim_achieved()),
            format!("{:.0} us", p99.as_us()),
            batches.to_string(),
        ]);
        let tput = run.wall_throughput();
        if w == sweep[0] {
            base_tput = tput;
        }
        let speedup = tput / base_tput;
        if w == 4 {
            speedup_at_4 = speedup;
        }
        let stage = |f: fn(&fleche_model::StageWall) -> f64| -> f64 {
            run.workers.iter().map(|x| f(&x.stage)).sum()
        };
        wall.row(&[
            w.to_string(),
            format!("{:.2}", run.wall_secs),
            format!("{tput:.0}/s"),
            format!("{speedup:.2}x"),
            format!("{:.2}", stage(|s| s.prep_secs)),
            format!("{:.2}", stage(|s| s.exec_secs)),
            format!("{:.2}", stage(|s| s.dwell_secs)),
        ]);
        j.begin_elem();
        j.field_u64("workers", w as u64);
        j.field_u64("served", run.served());
        j.field_u64("batches", batches);
        j.field_f64("sim_achieved_per_sec", run.sim_achieved());
        j.field_f64("p99_sim_us", p99.as_us());
        j.begin_obj("machine_dependent");
        j.field_f64("wall_secs", run.wall_secs);
        j.field_f64("wall_throughput_per_sec", tput);
        j.field_f64("speedup_vs_one_worker", speedup);
        j.field_f64("prep_secs", stage(|s| s.prep_secs));
        j.field_f64("exec_secs", stage(|s| s.exec_secs));
        j.field_f64("dwell_secs", stage(|s| s.dwell_secs));
        j.end_obj();
        j.end_obj();
    }
    j.end_arr();
    println!("{}", sim.render());
    eprintln!(
        "\nwall-clock scaling (machine-dependent):\n{}",
        wall.render()
    );
    let pass = speedup_at_4 >= 2.0;
    eprintln!(
        "acceptance (scaling): {} — workers=4 wall throughput {speedup_at_4:.2}x workers=1 (threshold 2.0x)",
        pass_fail(pass),
    );
    j.begin_obj("machine_dependent");
    j.field_u64(
        "cpus",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );
    j.field_f64("pace", PACE);
    j.field_f64("speedup_at_4_workers", speedup_at_4);
    j.field_bool("scaling_pass", pass);
    j.end_obj();
    pass
}

fn phase_overload(d: &mut Drill, j: &mut JsonEmitter) {
    println!("\n--- phase 3: overload bursts against a deadline ---");
    let requests = if d.args.quick { 60_000 } else { 200_000 };
    let horizon = Ns::from_secs(requests as f64 / LOAD);
    let overload = OverloadSpec {
        burst_period: Ns::from_ms(10.0),
        burst_duration: Ns::from_ms(3.0),
        burst_factor: 6.0,
    };
    let deadline = Ns::from_us(800.0);
    let windows = overload.windows(horizon);
    let burst_count = windows.len() as u64;
    // Streaming drive (linger None): shedding reacts to the live backlog
    // exactly as the serial server's does, so bursts show up as shed work
    // while everything actually served keeps its deadline.
    let streaming = |bursts: Vec<fleche_workload::BurstWindow>| {
        let mut cfg = scaling_config(2, requests);
        cfg.pace = 0.0;
        cfg.linger = None;
        cfg.queue_capacity = Some(512);
        cfg.deadline = Some(deadline);
        cfg.bursts = bursts;
        serve_concurrent(front_end_replica, &cfg)
    };
    let run = streaming(windows);
    let calm = streaming(Vec::new());
    let p99 = |r: &ConcurrentRun| {
        r.workers
            .iter()
            .map(|x| x.run.latency.p99())
            .fold(Ns::ZERO, Ns::max)
    };
    println!(
        "bursts: {burst_count} windows of 3 ms at 6x load every 10 ms over {:.0} ms",
        horizon.as_ms()
    );
    println!(
        "calm : offered {:>7}  served {:>7}  shed {:>6}  p99 {:.0} us",
        calm.offered(),
        calm.served(),
        calm.shed(),
        p99(&calm).as_us()
    );
    println!(
        "burst: offered {:>7}  served {:>7}  shed {:>6}  p99 {:.0} us",
        run.offered(),
        run.served(),
        run.shed(),
        p99(&run).as_us()
    );
    let shed_ok = run.shed() > calm.shed();
    let bound_ok = p99(&run) <= deadline + Ns::from_us(400.0);
    let pass = shed_ok && bound_ok;
    println!(
        "overload: {} — bursts shed load ({} > {}), served p99 within deadline + one batch",
        d.verdict(pass),
        run.shed(),
        calm.shed(),
    );
    j.begin_obj("overload");
    j.field_u64("burst_windows", burst_count);
    j.field_u64("offered", run.offered());
    j.field_u64("served", run.served());
    j.field_u64("shed", run.shed());
    j.field_u64("calm_shed", calm.shed());
    j.field_f64("p99_us", p99(&run).as_us());
    j.field_bool("pass", pass);
    j.end_obj();
}

fn phase_analyze(d: &mut Drill, j: &mut JsonEmitter) {
    println!("\n--- phase 4: hand-off race analysis ---");
    let mut cfg = scaling_config(2, 20_000);
    cfg.pace = 0.0;
    cfg.warmup_requests = 8_000;
    cfg.analyze = true;
    let run = serve_concurrent(front_end_replica, &cfg);
    let races = run.races.expect("analyze mode reports races");
    let handoffs: u64 = run
        .workers
        .iter()
        .map(|w| w.queue_handoffs + w.pipeline_handoffs)
        .sum();
    println!(
        "protocol replay: {} — {races} race(s) across {handoffs} hand-offs",
        d.verdict(races == 0)
    );
    // Self-test: with the credit edge omitted the checker must see every
    // slot reuse as a write-after-read race — exactly handoffs - depth.
    let mut c = RaceChecker::new();
    declare_pipeline_handoffs(&mut c, 0, 0, DEPTH as u32, 64, false);
    let expected = 64 - DEPTH;
    let self_ok = c.race_count() == expected;
    println!(
        "checker self-test: {} — broken credit edge yields {} race(s) (expected {expected})",
        d.verdict(self_ok),
        c.race_count(),
    );
    j.begin_obj("analyze");
    j.field_u64("races", races as u64);
    j.field_u64("handoffs", handoffs);
    j.field_bool("self_test_pass", self_ok);
    j.end_obj();
}

pub(crate) fn main(args: &Args) -> ExitCode {
    let title = "serve_scaling: pipelined multi-worker serving front-end";
    // Wall-clock acceptance is reported on stderr; a failure exits
    // nonzero so CI notices, without polluting deterministic stdout.
    let mut wall_clock_only = false;
    let code = Drill::run(args, title, "BENCH_serve.json", None, false, |d, j| {
        j.field_str(
            "note",
            "fields under machine_dependent vary by host; everything else is deterministic",
        );
        phase_identity(d, j);
        let scaling_ok = phase_scaling(d.args.quick, j);
        phase_overload(d, j);
        if d.args.analyze {
            phase_analyze(d, j);
        }
        wall_clock_only = d.code() == 0 && !scaling_ok;
        Ok(())
    });
    if wall_clock_only {
        ExitCode::from(3)
    } else {
        code
    }
}
