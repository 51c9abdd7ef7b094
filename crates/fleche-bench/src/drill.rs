//! The one harness the drills run under: header, acceptance verdicts,
//! the `--analyze` race gate, the report prelude, the closing paragraph,
//! and an exit status that says whether every acceptance passed.

use std::collections::BTreeMap;
use std::process::ExitCode;

use fleche_core::MultiGpuFleche;
use fleche_gpu::Gpu;

use crate::{bench_report, print_header, rolling_mean, t4, write_bench_json, Args, JsonEmitter};

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
}

impl<'a> Drill<'a> {
    /// Prints the standard header under `title`.
    pub(crate) fn start(args: &'a Args, title: &str) -> Drill<'a> {
        print_header(title);
        Drill {
            args,
            failed: false,
        }
    }

    /// Remembers one verdict and returns how it prints.
    pub(crate) fn verdict(&mut self, ok: bool) -> &'static str {
        self.failed |= !ok;
        pass_fail(ok)
    }

    /// Prints one acceptance line and remembers its verdict.
    pub(crate) fn accept(&mut self, tag: &str, ok: bool, text: &str) {
        println!("acceptance ({tag}): {text} -> {}", self.verdict(ok));
    }

    /// A fresh [`t4`], its race checker armed under `--analyze`.
    pub(crate) fn gpu(&self) -> Gpu {
        let mut gpu = t4();
        if self.args.analyze {
            gpu.enable_race_checker();
        }
        gpu
    }

    /// `mg`, every shard's race checker armed under `--analyze`.
    pub(crate) fn shards(&self, mut mg: MultiGpuFleche) -> MultiGpuFleche {
        if self.args.analyze {
            mg.enable_race_checkers();
        }
        mg
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

    /// [`Drill::check_races`] over every shard of a multi-GPU system.
    pub(crate) fn check_shard_races(
        &self,
        mg: &mut MultiGpuFleche,
        what: &str,
    ) -> Result<(), RacesFound> {
        (0..mg.shard_count())
            .try_for_each(|s| self.check_races(mg.shard_gpu_mut(s), &format!("{what} (shard {s})")))
    }

    /// A report already carrying the prelude.
    pub(crate) fn report(&self) -> JsonEmitter {
        bench_report(self.args.name, self.args.quick)
    }

    /// 1 once any verdict was a failure, 0 until then.
    pub(crate) fn code(&self) -> u8 {
        u8::from(self.failed)
    }

    /// Writes the report as `results/<file>` and prints `closing`: the
    /// "expected:" paragraph and, under `--analyze`, that the checker saw
    /// no race across its second half (the run would have ended at the
    /// first one). The exit status is 1 if any acceptance failed.
    pub(crate) fn finish(
        self,
        file: &str,
        report: JsonEmitter,
        closing: Option<(&str, &str)>,
    ) -> ExitCode {
        write_bench_json(file, report.finish());
        if let Some((expected, analyzed)) = closing {
            println!("\nexpected: {expected}");
            if self.args.analyze {
                println!(
                    "\nanalyze: happens-before checker observed zero races across {analyzed}."
                );
            }
        }
        ExitCode::from(self.code())
    }
}

/// Batches from `from` until the rolling mean of `rates` over `window`,
/// never reaching back before `from`, first reaches `target`; `None` if
/// it does not within `rates`.
pub(crate) fn batches_to_recover(
    rates: &[f64],
    from: usize,
    window: usize,
    target: f64,
) -> Option<u64> {
    (from..rates.len())
        .find(|&b| rolling_mean(&rates[from..=b], window) >= target)
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
        let mut d = Drill::start(&args, "t");
        d.accept("a", true, "held");
        assert_eq!(d.code(), 0);
        d.accept("b", false, "did not hold");
        d.accept("c", true, "held");
        assert_ne!(d.code(), 0);
    }
}
