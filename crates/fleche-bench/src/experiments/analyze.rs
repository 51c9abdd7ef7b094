//! Correctness gate: custom workspace lints + happens-before race checking.
//!
//! Three phases, all of which must pass for exit code 0:
//!
//! 1. **Static lints** — run the `fleche-analyzer` rule set over the
//!    workspace (`fleche-analyzer.toml`). Any violation fails the gate.
//! 2. **Race-free serving** — run the default serving scenarios (coupled
//!    fused kernel, and decoupled copy with unified index) with the GPU's
//!    happens-before checker armed. The epoch-based reclamation scheme
//!    must make every slot reuse *ordered after* the kernels that read the
//!    slot, so the checker must report zero races.
//! 3. **Recovery race-freedom** — interleave serving with the crash
//!    recovery kernels (checkpoint scan, cache wipe, restore replay,
//!    warm-up prefetch), all of which declare their slot accesses; the
//!    batch-boundary syncs must order a snapshot scan against both the
//!    preceding copy kernels and the subsequent reclaims, so zero races.
//! 4. **Checker self-test** — drive a deliberately mis-synchronized
//!    read-after-delete (reclaim a slot while a copy kernel that reads it
//!    is still in flight, no stream sync) and require that the checker
//!    reports *exactly* the injected race; the properly synchronized twin
//!    of the same schedule must report none. This guards against the
//!    checker rotting into a vacuous pass.
//! 5. **Exhaustive schedule exploration** — run the `fleche-verify`
//!    registry: every serving-protocol property must pass over all
//!    interleavings, and every seeded mutant must be caught with a
//!    counterexample. Explorer counters land in
//!    `results/BENCH_verify.json` (wall times are JSON-only; stdout
//!    stays deterministic).
//!
//! Run: `cargo run --release -p fleche-bench -- analyze [--quick]`

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::{bench_report, print_header, t4, write_bench_json, xeon_store, Args};
use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::{slot_resource, Gpu, KernelDesc, KernelWork};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_workload::{spec, TraceGenerator};

const BATCH: usize = 256;

/// Workspace root: this crate lives at `crates/fleche-bench`, two levels
/// below it. `--root DIR` overrides (e.g. when running an installed copy).
fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run_lints(root: &Path) -> Result<(), String> {
    let config_path = root.join("fleche-analyzer.toml");
    let config = fleche_analyzer::load_config(&config_path)?;
    let diagnostics =
        fleche_analyzer::run(root, &config).map_err(|e| format!("analyzer walk failed: {e}"))?;
    print!("{}", fleche_analyzer::render(&diagnostics));
    if diagnostics.is_empty() {
        Ok(())
    } else {
        Err(format!("{} lint violation(s)", diagnostics.len()))
    }
}

/// A fresh T4 with the race checker armed.
fn checked_t4() -> Gpu {
    let mut gpu = t4();
    gpu.enable_race_checker();
    gpu
}

/// Runs `batches` query batches of a serving scenario with the race
/// checker armed and returns the number of unordered conflicting accesses.
fn run_serving_scenario(label: &str, config: FlecheConfig, batches: usize) -> usize {
    let ds = spec::synthetic(4, 40_000, 16, -1.05);
    let mut sys = FlecheSystem::new(&ds, xeon_store(&ds), config);
    let mut gpu = checked_t4();
    let mut gen = TraceGenerator::new(&ds);
    for _ in 0..batches {
        sys.query_batch(&mut gpu, &gen.next_batch(BATCH));
    }
    let checker = gpu.race_checker().expect("checker was enabled above");
    let races = checker.race_count();
    println!("  {label:<24} {batches} batches, {} races", races);
    for race in checker.report() {
        println!("    {race}");
    }
    races
}

fn run_serving_phase(batches: usize) -> Result<(), String> {
    let scenarios = [
        ("coupled (fused)", FlecheConfig::with_fusion(0.05)),
        ("decoupled (full)", FlecheConfig::full(0.05)),
        ("flat-cache only", FlecheConfig::flat_cache_only(0.05)),
    ];
    let mut total = 0;
    for (label, config) in scenarios {
        total += run_serving_scenario(label, config, batches);
    }
    if total == 0 {
        Ok(())
    } else {
        Err(format!("{total} race(s) on default serving scenarios"))
    }
}

/// Serving interleaved with the recovery workflow: periodic checkpoints
/// mid-sweep, then a simulated crash (wipe), a restore replay of the
/// latest image, a workload-stats warm-up, and more serving on top. The
/// checkpoint scan reads every captured slot, the restore replay writes
/// every restored slot, and the wipe reclaims everything — all declared
/// to the checker, all required to be ordered by the batch-boundary
/// syncs.
fn run_recovery_phase(batches: usize) -> Result<(), String> {
    let ds = spec::synthetic(4, 40_000, 16, -1.05);
    let mut sys = FlecheSystem::new(&ds, xeon_store(&ds), FlecheConfig::full(0.05));
    let mut gpu = checked_t4();
    let mut gen = TraceGenerator::new(&ds);
    let mut stats = fleche_workload::WorkloadStats::new();
    let mut snapshot = None;
    for b in 0..batches {
        let batch = gen.next_batch(BATCH);
        stats.observe(&batch);
        sys.query_batch(&mut gpu, &batch);
        if (b + 1) % 4 == 0 {
            snapshot = Some(sys.checkpoint(&mut gpu));
        }
    }
    let snap = snapshot.ok_or_else(|| "no checkpoint taken".to_string())?;
    sys.wipe_cache(&mut gpu);
    sys.restore_checkpoint(&mut gpu, &snap)
        .map_err(|e| format!("intact checkpoint rejected: {e}"))?;
    sys.warm_up(&mut gpu, &stats.hottest(512), BATCH);
    for _ in 0..batches / 2 {
        sys.query_batch(&mut gpu, &gen.next_batch(BATCH));
    }
    let checker = gpu.race_checker().expect("checker was enabled above");
    let races = checker.race_count();
    println!("  checkpoint/wipe/restore/warm-up interleaved with {batches} batches, {races} races");
    for race in checker.report() {
        println!("    {race}");
    }
    if races == 0 {
        Ok(())
    } else {
        Err(format!("{races} race(s) on the recovery workflow"))
    }
}

/// The paper's read-after-delete hazard, replayed in miniature: a copy
/// kernel on a side stream still holds a slot's address while the host
/// reclaims the slot. With a stream sync in between the schedule is
/// race-free; without it the checker must flag exactly one race.
fn run_self_test() -> Result<(), String> {
    let slot = slot_resource(0, 7);

    // Mis-synchronized: reclaim races with the in-flight read.
    let mut gpu = checked_t4();
    let side = gpu.create_stream();
    let kid = gpu.launch(
        side,
        KernelDesc::new("fleche-copy", 256, KernelWork::streaming(4 << 10)),
    );
    if let Some(rc) = gpu.race_checker_mut() {
        rc.kernel_read(kid, slot);
        rc.note_epoch_advance();
        rc.host_write("reclaim", slot);
    }
    let racy = gpu.race_checker().expect("enabled").race_count();
    println!("  mis-synchronized reclaim: {racy} race(s) (want exactly 1)");
    for race in gpu.race_checker().expect("enabled").report() {
        println!("    {race}");
    }

    // Properly synchronized twin: same schedule plus the stream sync that
    // the real system performs before end-of-batch reclamation.
    let mut gpu = checked_t4();
    let side = gpu.create_stream();
    let kid = gpu.launch(
        side,
        KernelDesc::new("fleche-copy", 256, KernelWork::streaming(4 << 10)),
    );
    if let Some(rc) = gpu.race_checker_mut() {
        rc.kernel_read(kid, slot);
    }
    gpu.sync_stream(side);
    if let Some(rc) = gpu.race_checker_mut() {
        rc.note_epoch_advance();
        rc.host_write("reclaim", slot);
    }
    let synced = gpu.race_checker().expect("enabled").race_count();
    println!("  synchronized reclaim:     {synced} race(s) (want 0)");

    match (racy, synced) {
        (1, 0) => Ok(()),
        _ => Err(format!(
            "self-test expected (1, 0) races, got ({racy}, {synced})"
        )),
    }
}

/// Runs the full `fleche-verify` registry: properties explored
/// exhaustively must all hold, and every seeded mutant must die with the
/// expected counterexample. Explorer counters (states, pruned branches,
/// complete runs) go to stdout — they are deterministic — and the same
/// counters plus wall times go to `results/BENCH_verify.json`.
fn run_verify_phase(args: &Args) -> Result<(), String> {
    let config = fleche_verify::explore::ExploreConfig::default();
    let report = fleche_verify::run_all(&config);

    let mut j = bench_report(args.name, args.quick);
    j.begin_arr("properties");
    for p in &report.properties {
        let pruned = p.stats.memo_hits + p.stats.sleep_skips;
        println!(
            "  {:<38} {:<4} states {:>7}  pruned {:>7}  runs {:>6}",
            p.name,
            if p.failure.is_none() { "pass" } else { "FAIL" },
            p.stats.states,
            pruned,
            p.stats.complete_runs,
        );
        if let Some(f) = &p.failure {
            println!("{}", f.render());
        }
        j.begin_elem();
        j.field_str("name", p.name);
        j.field_bool("pass", p.failure.is_none());
        j.field_u64("states", p.stats.states);
        j.field_u64("transitions", p.stats.transitions);
        j.field_u64("memo_hits", p.stats.memo_hits);
        j.field_u64("sleep_skips", p.stats.sleep_skips);
        j.field_u64("complete_runs", p.stats.complete_runs);
        j.field_u64("max_depth", u64::from(p.stats.max_depth_seen));
        j.field_f64("wall_ms", p.wall_ms);
        j.end_obj();
    }
    j.end_arr();
    j.begin_arr("mutants");
    for m in &report.mutants {
        println!(
            "  {:<38} {:<8} states {:>7}",
            m.name,
            if m.caught() { "caught" } else { "SURVIVED" },
            m.stats.states,
        );
        if !m.caught() {
            if let Some(f) = &m.failure {
                println!("    wrong counterexample (wanted `{}`):", m.expect);
                println!("{}", f.render());
            }
        }
        j.begin_elem();
        j.field_str("name", m.name);
        j.field_str("property", m.property);
        j.field_bool("caught", m.caught());
        j.field_u64("states", m.stats.states);
        j.field_f64("wall_ms", m.wall_ms);
        j.end_obj();
    }
    j.end_arr();
    write_bench_json("BENCH_verify.json", j.finish());

    if report.ok() {
        Ok(())
    } else {
        let bad_props = report
            .properties
            .iter()
            .filter(|p| p.failure.is_some())
            .count();
        let survivors = report.mutants.iter().filter(|m| !m.caught()).count();
        Err(format!(
            "{bad_props} property failure(s), {survivors} surviving mutant(s)"
        ))
    }
}

pub(crate) fn main(args: &Args) -> ExitCode {
    let root = match args.rest.as_slice() {
        [] => default_root(),
        [flag, dir] if flag == "--root" => PathBuf::from(dir),
        _ => return args.bad_usage("the only trailing argument is `--root DIR`"),
    };
    let batches = if args.quick { 12 } else { 40 };

    print_header("Correctness gate: workspace lints + happens-before race checker");
    let mut failed = false;
    let mut phase = |name: &str, result: Result<(), String>| match result {
        Ok(()) => println!("  -> PASS\n"),
        Err(why) => {
            println!("  -> FAIL ({name}): {why}\n");
            failed = true;
        }
    };
    println!("phase: static lints");
    phase("static lints", run_lints(&root));
    println!("phase: serving race-freedom");
    phase("serving race-freedom", run_serving_phase(batches));
    println!("phase: recovery race-freedom");
    phase("recovery race-freedom", run_recovery_phase(batches));
    println!("phase: checker self-test");
    phase("checker self-test", run_self_test());
    println!("phase: exhaustive schedule exploration");
    phase("exhaustive schedule exploration", run_verify_phase(args));
    if failed {
        eprintln!("analyze: correctness gate FAILED");
        ExitCode::FAILURE
    } else {
        println!("analyze: correctness gate passed");
        ExitCode::SUCCESS
    }
}
