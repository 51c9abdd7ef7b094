//! The one harness the drills run under: header, acceptance verdicts,
//! the `--analyze` race gate, the report prelude, the closing paragraph,
//! and an exit status that says whether every acceptance passed.

use std::process::ExitCode;

use fleche_core::MultiGpuFleche;
use fleche_gpu::Gpu;

use crate::{bench_report, print_header, write_bench_json, Args, JsonEmitter};

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
    pub fn start(args: &'a Args, title: &str) -> Drill<'a> {
        print_header(title);
        Drill {
            args,
            failed: false,
        }
    }

    /// Remembers one verdict and returns how it prints.
    pub fn verdict(&mut self, ok: bool) -> &'static str {
        self.failed |= !ok;
        pass_fail(ok)
    }

    /// Prints one acceptance line and remembers its verdict.
    pub fn accept(&mut self, tag: &str, ok: bool, text: &str) {
        println!("acceptance ({tag}): {text} -> {}", self.verdict(ok));
    }

    /// The `--analyze` gate: if `gpu`'s race checker recorded any unordered
    /// conflicting pair during `what`, reports them under the drill's name.
    pub fn check_races(&self, gpu: &Gpu, what: &str) -> Result<(), RacesFound> {
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
    pub fn check_shard_races(&self, mg: &mut MultiGpuFleche, what: &str) -> Result<(), RacesFound> {
        (0..mg.shard_count())
            .try_for_each(|s| self.check_races(mg.shard_gpu_mut(s), &format!("{what} (shard {s})")))
    }

    /// A report already carrying the prelude.
    pub fn report(&self) -> JsonEmitter {
        bench_report(self.args.name, self.args.quick)
    }

    /// 1 once any verdict was a failure, 0 until then.
    pub fn code(&self) -> u8 {
        u8::from(self.failed)
    }

    /// Writes the report as `results/<file>` and prints `closing`: the
    /// "expected:" paragraph and, under `--analyze`, that the checker saw
    /// no race across its second half (the run would have ended at the
    /// first one). The exit status is 1 if any acceptance failed.
    pub fn finish(
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
