//! The one harness the drills run under: header, acceptance verdicts,
//! the `--analyze` race gate, the report prelude, the closing paragraph,
//! an exit status that says whether every acceptance passed, and the one
//! batch loop every drill serves through.
//!
//! Every drill derives its schedules from fixed seeds and times itself on
//! the simulated clock, so two runs print byte-identical output (CI diffs
//! them, and diffs the `--quick` stdout against `results/<drill>_quick.txt`).
//! `--analyze` arms the happens-before race checker on every GPU a drill
//! builds and fails the run (exit 1, races on stderr) on any unordered
//! conflicting pair of accesses.

use std::collections::BTreeMap;
use std::process::ExitCode;

use fleche_core::{FlecheConfig, FlecheSystem, InterconnectSpec, MultiGpuFleche};
use fleche_gpu::{DeviceFault, Gpu, Ns};
use fleche_model::LatencyRecorder;
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::Rows;
use fleche_workload::{Batch, DatasetSpec, TraceGenerator, WorkloadStats};

use crate::{
    bench_report, fmt_pct, print_header, rolling_mean, t4, write_bench_json, Args, JsonEmitter,
    TextTable,
};

/// Samples per batch, in every drill.
pub(crate) const BATCH: usize = 256;
/// Rolling window (batches) of every recovery threshold.
pub(crate) const ROLL: usize = 4;
/// The shard every device-loss sweep loses.
pub(crate) const VICTIM: usize = 1;

/// How a verdict prints, everywhere one is printed.
pub(crate) fn pass_fail(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

/// An `--analyze` run found unordered conflicting accesses; they are
/// already reported on stderr and the run must end with exit 1.
#[derive(Debug)]
pub(crate) struct RacesFound;

/// A drill in progress.
pub(crate) struct Drill<'a> {
    pub args: &'a Args,
    failed: bool,
    /// Acceptance lines, printed together once every section has run.
    acceptances: Vec<String>,
}

impl<'a> Drill<'a> {
    /// Runs a whole drill: the header under `title`, then `sections` in
    /// order (each prints its text, writes its JSON object into the report
    /// and hands its acceptances here), then the acceptances (followed by
    /// a blank line if `spaced`), the report as `results/<file>`, and the
    /// `closing`: the "expected:" paragraph and, under `--analyze`, that
    /// the checker saw no race across its second half. A race ends the run
    /// at once with exit 1; otherwise the exit status is 1 if any
    /// acceptance failed.
    pub(crate) fn run(
        args: &'a Args,
        title: &str,
        file: &str,
        closing: Option<(&str, &str)>,
        spaced: bool,
        sections: impl FnOnce(&mut Drill, &mut JsonEmitter) -> Result<(), RacesFound>,
    ) -> ExitCode {
        print_header(title);
        let mut d = Drill {
            args,
            failed: false,
            acceptances: Vec::new(),
        };
        let mut j = bench_report(args.name, args.quick);
        if sections(&mut d, &mut j).is_err() {
            return ExitCode::FAILURE;
        }
        for line in &d.acceptances {
            println!("{line}");
        }
        if spaced {
            println!();
        }
        if let Err(e) = write_bench_json(file, j.finish()) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        if let Some((expected, analyzed)) = closing {
            println!("\nexpected: {expected}");
            if args.analyze {
                println!(
                    "\nanalyze: happens-before checker observed zero races across {analyzed}."
                );
            }
        }
        ExitCode::from(d.code())
    }

    /// Remembers one verdict and returns how it prints.
    pub(crate) fn verdict(&mut self, ok: bool) -> &'static str {
        self.failed |= !ok;
        pass_fail(ok)
    }

    /// Remembers one acceptance line and its verdict.
    pub(crate) fn accept(&mut self, tag: &str, ok: bool, text: &str) {
        let line = format!("acceptance ({tag}): {text} -> {}", self.verdict(ok));
        self.acceptances.push(line);
    }

    /// A fresh [`t4`], its race checker armed under `--analyze`.
    pub(crate) fn gpu(&self) -> Gpu {
        let mut gpu = t4();
        if self.args.analyze {
            gpu.enable_race_checker();
        }
        gpu
    }

    /// `sys` on a fresh [`Drill::gpu`].
    pub(crate) fn single(&self, sys: FlecheSystem) -> Single {
        Single {
            sys,
            gpu: self.gpu(),
        }
    }

    /// The `--analyze` gate: if `gpu`'s race checker recorded any unordered
    /// conflicting pair during `what`, reports them under the drill's name.
    pub(crate) fn check_races(&self, gpu: &Gpu, what: &str) -> Result<(), RacesFound> {
        match gpu.race_checker() {
            Some(rc) if rc.race_count() > 0 => {
                let drill = self.args.name;
                eprintln!("{drill} --analyze: {} race(s) in {what}:", rc.race_count());
                for race in rc.report() {
                    eprintln!("  {race}");
                }
                Err(RacesFound)
            }
            _ => Ok(()),
        }
    }

    /// 1 once any verdict was a failure, 0 until then.
    pub(crate) fn code(&self) -> u8 {
        u8::from(self.failed)
    }
}

/// Where the batch loop hands control to a drill.
pub(crate) enum Step<'b> {
    /// Before batch `b` is drawn: the drill's events for that batch
    /// (commits and pushes, checkpoints, bit flips).
    Before(u64),
    /// Batch `b` was served and logged: its accesses and rows, for the
    /// drill's oracle.
    Served(u64, &'b Batch, &'b [Vec<f32>]),
}

/// What the batch loop records of every batch it serves, and the events
/// a timeline shows, keyed by batch.
#[derive(Default)]
pub(crate) struct BatchLog {
    pub rates: Vec<f64>,
    pub walls: Vec<Ns>,
    /// Devices serving each batch.
    pub alive: Vec<usize>,
    pub events: BTreeMap<u64, &'static str>,
    stopped: bool,
}

impl BatchLog {
    /// Ends the run after the batch being served.
    pub(crate) fn stop(&mut self) {
        self.stopped = true;
    }

    /// Mean hit rate over every logged batch.
    pub(crate) fn mean_hit(&self) -> f64 {
        self.rates.iter().sum::<f64>() / self.rates.len() as f64
    }

    /// The 99th-percentile batch wall time.
    pub(crate) fn p99(&self) -> Ns {
        let mut walls = LatencyRecorder::new();
        self.walls.iter().for_each(|&w| walls.record(w));
        walls.p99()
    }

    /// A device-loss recovery point: the pre-loss steady hit rate (the
    /// rolling mean over the batches before `lost_at`), and the batches
    /// from `restored_at` until the rolling hit rate is back to 99% of it
    /// (the window starts at the restore, so degraded batches do not
    /// pollute it). The batch it is reached at is marked as an event.
    pub(crate) fn recovery_point(&mut self, lost_at: u64, restored_at: u64) -> (f64, Option<u64>) {
        let steady = rolling_mean(&self.rates[..lost_at as usize], 16);
        let n = batches_to_recover(&self.rates, restored_at as usize, 0.99 * steady);
        if let Some(n) = n {
            self.events
                .entry(restored_at + n - 1)
                .or_insert("hit rate recovered");
        }
        (steady, n)
    }
}

/// What a drill serves its batches on.
pub(crate) trait Serve {
    /// Serves `batch`: its rows, hit rate and wall time, and the devices
    /// that served it.
    fn serve(&mut self, batch: &Batch) -> (Rows, f64, Ns, usize);
}

/// One Fleche system on one GPU.
pub(crate) struct Single {
    pub sys: FlecheSystem,
    pub gpu: Gpu,
}

impl Single {
    /// Warm-up: `batches` through the batch loop, then every counter
    /// reset. Returns what the warm-up saw of the workload.
    pub(crate) fn warm_up(&mut self, gen: &mut TraceGenerator, batches: u64) -> WorkloadStats {
        let mut seen = WorkloadStats::new();
        serve(self, gen, batches, |_, _, step| {
            if let Step::Served(_, batch, _) = step {
                seen.observe(batch);
            }
        });
        self.sys.reset_stats();
        seen
    }
}

impl Serve for Single {
    fn serve(&mut self, batch: &Batch) -> (Rows, f64, Ns, usize) {
        let out = self.sys.query_batch(&mut self.gpu, batch);
        (out.rows, out.stats.hit_rate(), out.stats.wall, 1)
    }
}

impl Serve for MultiGpuFleche {
    fn serve(&mut self, batch: &Batch) -> (Rows, f64, Ns, usize) {
        let (rows, timing, stats) = self.query_batch(batch);
        (
            rows.into(),
            stats.hit_rate(),
            timing.total,
            self.alive_count(),
        )
    }
}

/// The one batch loop. For each of `batches` batches: `hook` runs the
/// drill's events ([`Step::Before`]), the batch is drawn and served on
/// `target`, its hit rate, wall time and live devices are logged, and
/// `hook` checks its rows ([`Step::Served`]). A hook may end the run
/// early with [`BatchLog::stop`].
pub(crate) fn serve<S: Serve>(
    target: &mut S,
    gen: &mut TraceGenerator,
    batches: u64,
    mut hook: impl FnMut(&mut S, &mut BatchLog, Step<'_>),
) -> BatchLog {
    let mut log = BatchLog::default();
    for b in 0..batches {
        hook(target, &mut log, Step::Before(b));
        let batch = gen.next_batch(BATCH);
        let (rows, hit, wall, alive) = target.serve(&batch);
        log.rates.push(hit);
        log.walls.push(wall);
        log.alive.push(alive);
        hook(target, &mut log, Step::Served(b, &batch, &rows));
        if log.stopped {
            break;
        }
    }
    log
}

/// A device-loss sweep served and scored.
pub(crate) struct Sweep {
    pub mg: MultiGpuFleche,
    pub log: BatchLog,
    pub lost_at: u64,
    pub restored_at: u64,
    /// Pre-loss steady hit rate and the batches to recover it; see
    /// [`BatchLog::recovery_point`].
    pub steady: f64,
    pub recovery: Option<u64>,
}

impl Sweep {
    /// The sweep's opening line.
    pub(crate) fn header(&self) -> String {
        let (shards, lost, restored) = (self.mg.shard_count(), self.lost_at, self.restored_at);
        format!("drill B: {shards} shards, shard {VICTIM} lost at batch {lost} and restored at batch {restored}")
    }

    /// The timeline table: batch, live shards, hit rate, a drill's own
    /// `column` (`cell` of the batch) and the batch's event.
    pub(crate) fn timeline(&self, column: &str, cell: impl Fn(usize) -> String) -> String {
        let log = &self.log;
        let mut t = TextTable::new(&["batch", "alive", "hit rate", column, "event"]);
        for (b, event) in timeline_batches(log.rates.len() as u64, &log.events) {
            let i = b as usize;
            t.row(&[
                format!("{b}"),
                format!("{}/{}", log.alive[i], self.mg.shard_count()),
                fmt_pct(log.rates[i]),
                cell(i),
                event.to_string(),
            ]);
        }
        t.render()
    }
}

impl Drill<'_> {
    /// The device-loss sweep: `shards` shards, each caching `fraction` of
    /// `ds` (race checkers armed under `--analyze`), serve `batches`
    /// batches while shard [`VICTIM`] is lost at 2/5 of them and restored
    /// at 3/5. Before each batch `checkpoint` runs the drill's checkpoint
    /// cadence, then the device transition is applied (and logged as an
    /// event), then `hook` sees [`Step::Before`] (the drill's update
    /// stream); [`Step::Served`] is its oracle.
    pub(crate) fn device_loss_sweep(
        &self,
        ds: &DatasetSpec,
        shards: usize,
        fraction: f64,
        batches: u64,
        mut checkpoint: impl FnMut(u64, &mut MultiGpuFleche, &mut BatchLog),
        mut hook: impl FnMut(&mut MultiGpuFleche, Step<'_>),
    ) -> Result<Sweep, RacesFound> {
        let config = FlecheConfig::full(fraction);
        let mut mg =
            MultiGpuFleche::new(ds, shards, fraction, config, InterconnectSpec::pcie_p2p());
        if self.args.analyze {
            mg.enable_race_checkers();
        }
        let (lost_at, restored_at) = (batches * 2 / 5, batches * 3 / 5);
        let mut gen = TraceGenerator::new(ds);
        let mut log = serve(&mut mg, &mut gen, batches, |mg, log, step| {
            if let Step::Before(b) = step {
                checkpoint(b, mg, log);
                // A restore due on the loss's own batch never happens.
                let fault = if b == lost_at {
                    Some((DeviceFault::Lost, "device lost"))
                } else if b == restored_at {
                    Some((DeviceFault::Restored, "device restored"))
                } else {
                    None
                };
                if let Some((fault, event)) = fault {
                    mg.shard_gpu_mut(VICTIM).inject_device_fault(fault);
                    log.events.insert(b, event);
                }
            }
            hook(mg, step);
        });
        for s in 0..shards {
            self.check_races(
                mg.shard_gpu_mut(s),
                &format!("drill B device-loss sweep (shard {s})"),
            )?;
        }
        let (steady, recovery) = log.recovery_point(lost_at, restored_at);
        Ok(Sweep {
            mg,
            log,
            lost_at,
            restored_at,
            steady,
            recovery,
        })
    }
}

/// Writes a batch count that may not have been reached.
pub(crate) fn field_batches(j: &mut JsonEmitter, key: &str, n: Option<u64>) {
    match n {
        Some(n) => j.field_u64(key, n),
        None => j.field_str(key, "not reached"),
    }
}

/// Batches from `from` until the rolling mean of `rates` over [`ROLL`],
/// never reaching back before `from`, first reaches `target`; `None` if
/// it does not within `rates`.
pub(crate) fn batches_to_recover(rates: &[f64], from: usize, target: f64) -> Option<u64> {
    (from..rates.len())
        .find(|&b| rolling_mean(&rates[from..=b], ROLL) >= target)
        .map(|b| (b - from + 1) as u64)
}

/// The batches a drill's timeline shows: every `batches / 12`-th, plus
/// each batch that carries an event, with that event (empty when none).
pub(crate) fn timeline_batches(
    batches: u64,
    events: &BTreeMap<u64, &'static str>,
) -> Vec<(u64, &'static str)> {
    let tick = (batches / 12).max(1);
    (0..batches)
        .filter_map(|b| match events.get(&b) {
            Some(&e) => Some((b, e)),
            None => (b % tick == 0).then_some((b, "")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_code_follows_the_acceptances() {
        let args = Args {
            name: "some_drill",
            quick: true,
            analyze: false,
            rest: Vec::new(),
        };
        let mut d = Drill {
            args: &args,
            failed: false,
            acceptances: Vec::new(),
        };
        d.accept("a", true, "held");
        assert_eq!(d.code(), 0);
        d.accept("b", false, "did not hold");
        d.accept("c", true, "held");
        assert_ne!(d.code(), 0);
        assert_eq!(
            d.acceptances.len(),
            3,
            "every acceptance is kept for the end"
        );
        assert_eq!(d.acceptances[1], "acceptance (b): did not hold -> FAIL");
    }

    #[test]
    fn batches_to_recover_counts_from_the_restore() {
        // Never reached.
        assert_eq!(batches_to_recover(&[0.1, 0.2, 0.3], 0, 0.9), None);
        // Met on the first batch of the window.
        assert_eq!(batches_to_recover(&[0.0, 0.0, 0.9], 2, 0.9), Some(1));
        // The window never reaches back before `from`: the high rates
        // before the restore would put batch 3's mean over [0, 3] at 0.75.
        let rates = [1.0, 1.0, 1.0, 0.0, 0.5, 1.0, 1.0];
        assert_eq!(batches_to_recover(&rates, 3, 0.5), Some(3));
        // `from` at the end of the rates leaves nothing to recover in.
        assert_eq!(batches_to_recover(&rates, rates.len(), 0.0), None);
    }

    #[test]
    fn timeline_lists_ticks_and_events_inside_the_run() {
        let none = BTreeMap::new();
        let every: Vec<u64> = timeline_batches(5, &none).iter().map(|&(b, _)| b).collect();
        assert_eq!(every, [0, 1, 2, 3, 4], "fewer than 12 batches: every batch");

        let events = BTreeMap::from([(4, "on a tick"), (7, "between ticks"), (24, "late")]);
        let shown = timeline_batches(24, &events);
        assert!(
            shown.contains(&(4, "on a tick")),
            "an event on a tick keeps its text"
        );
        assert!(shown.contains(&(7, "between ticks")));
        assert!(shown.contains(&(2, "")), "tick batches without an event");
        assert!(!shown.iter().any(|&(b, _)| b == 3), "no tick, no event");
        assert!(
            shown.iter().all(|&(b, _)| b < 24),
            "an event past the run is not listed"
        );
    }

    #[test]
    fn rolling_mean_covers_what_there_is() {
        assert_eq!(rolling_mean(&[], 4), 0.0);
        assert_eq!(rolling_mean(&[0.25, 0.75], 4), 0.5, "fewer than the window");
        assert_eq!(
            rolling_mean(&[1.0, 0.25, 0.75], 2),
            0.5,
            "only the last `window`"
        );
    }

    #[test]
    fn the_logged_recovery_point_is_the_hand_computed_one() {
        let rates = [
            0.2, 0.4, 0.5, 0.6, 0.6, 0.62, 0.6, 0.61, // pre-loss
            0.3, 0.35, 0.4, 0.45, // degraded
            0.5, 0.55, 0.58, 0.6, 0.61, 0.6, 0.62, 0.6, // after the restore
        ];
        let (lost_at, restored_at) = (8u64, 12u64);
        let mut log = BatchLog {
            rates: rates.to_vec(),
            ..BatchLog::default()
        };
        log.events.insert(lost_at, "device lost");
        let (steady, n) = log.recovery_point(lost_at, restored_at);

        // By hand: the mean of the (at most 16) batches before the loss,
        // then the first batch after the restore whose mean over the last
        // `ROLL` batches since the restore reaches 99% of it.
        let pre = &rates[..lost_at as usize];
        let by_hand = pre.iter().sum::<f64>() / pre.len() as f64;
        assert_eq!(steady, by_hand);
        let from = restored_at as usize;
        let reached = (from..rates.len()).find(|&b| {
            let lo = from.max((b + 1).saturating_sub(ROLL));
            let w = &rates[lo..=b];
            w.iter().sum::<f64>() / w.len() as f64 >= 0.99 * by_hand
        });
        let reached = reached.expect("these rates recover");
        assert_eq!(n, Some((reached - from + 1) as u64));
        assert_eq!(
            log.events.get(&(reached as u64)),
            Some(&"hit rate recovered")
        );
        assert_eq!(log.events.get(&lost_at), Some(&"device lost"));
    }

    /// Serves nothing: one empty row per access, a fixed hit rate and
    /// wall, and counts the batches it saw.
    struct Counter(u64);

    impl Serve for Counter {
        fn serve(&mut self, batch: &Batch) -> (Rows, f64, Ns, usize) {
            self.0 += 1;
            let rows = vec![Vec::new(); batch.iter_accesses().count()];
            (rows.into(), 0.5, Ns::from_us(1.0), 2)
        }
    }

    #[test]
    fn the_loop_runs_events_serves_logs_checks_and_stops_early() {
        let ds = fleche_workload::spec::synthetic(2, 100, 4, -1.1);
        let mut gen = TraceGenerator::new(&ds);
        let mut target = Counter(0);
        let mut seen = Vec::new();
        let log = serve(&mut target, &mut gen, 10, |t, log, step| match step {
            Step::Before(b) => {
                assert_eq!(t.0, b, "events run before the batch is served");
                assert_eq!(log.rates.len() as u64, b);
            }
            Step::Served(b, batch, rows) => {
                assert_eq!(t.0, b + 1);
                assert_eq!(log.rates.len() as u64, b + 1, "logged before the oracle");
                assert_eq!(rows.len(), batch.iter_accesses().count());
                seen.push(b);
                if b == 3 {
                    log.stop();
                }
            }
        });
        assert_eq!(seen, [0, 1, 2, 3], "stop ends the run after the batch");
        assert_eq!(log.rates, [0.5; 4]);
        assert_eq!(log.alive, [2; 4]);
        assert_eq!(log.mean_hit(), 0.5);
        assert_eq!(log.p99(), Ns::from_us(1.0));
    }
}
