//! Runs every table, figure and ablation row in table order (passing
//! `--quick` through) and prints a completion summary. Each runs as a
//! child process of this same executable, so it keeps its own clean
//! simulated device and its stdout sections stay ordered.

use std::process::{Command, ExitCode};

use super::{Experiment, Group, EXPERIMENTS};
use crate::Args;

pub(super) fn rows() -> impl Iterator<Item = &'static Experiment> {
    EXPERIMENTS
        .iter()
        .filter(|e| matches!(e.group, Group::Table | Group::Figure | Group::Ablation))
}

pub(crate) fn main(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this executable to re-run it: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for exp in rows() {
        println!("\n================ {} ================\n", exp.name);
        let mut cmd = Command::new(&exe);
        cmd.arg(exp.name);
        if args.quick {
            cmd.arg("--quick");
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{} exited with {s}", exp.name);
                failed.push(exp.name);
            }
            Err(e) => {
                eprintln!("{} failed to start: {e}", exp.name);
                failed.push(exp.name);
            }
        }
    }
    println!("\n================ summary ================");
    println!(
        "{} experiments, {} failed{}",
        rows().count(),
        failed.len(),
        if failed.is_empty() {
            String::new()
        } else {
            format!(": {failed:?}")
        }
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
