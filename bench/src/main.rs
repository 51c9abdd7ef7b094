//! `fleche-e2e`: one run of one workload of the end-to-end benchmark.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` measures for
//! about `s` seconds and prints every metric of the chosen pass by name
//! with its unit, then — as the last line — one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` is the
//! untraced pass (end-to-end metrics), `--trace 1` the traced pass
//! (per-layer metrics, spans to `bench/out/trace_<workload>.json`).
//! `bench/run.sh` builds this in release and calls it; see
//! `bench/README.md`.

mod alloc;
mod closed;
mod layers;
mod metrics;
mod micro;
mod probe;
mod serve;
mod stats;
mod trace;
mod twin;
mod workloads;

use closed::Budget;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: f64::from(metrics::RUN_SECONDS),
        traced: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                out.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--emit-benchmark-json"] {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) {
        eprintln!("fleche-e2e: refusing to report numbers from a debug build; use bench/run.sh");
        return ExitCode::from(2);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleche-e2e: {e}");
            eprintln!("usage: --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--smoke]");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::by_name(&args.workload, args.smoke) else {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "fleche-e2e: unknown workload {:?}; one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };

    println!("{}", micro::host_stamp(args.seed));
    let budget = Budget::Seconds(args.seconds);
    let out = match &workload {
        Workload::Closed(p) => closed::run(p, args.seed, budget, args.traced),
        Workload::Serve(p) => serve::run(p, args.seed, args.seconds, args.traced),
    };
    println!(
        "workload {} ({} pass, {} s{})",
        args.workload,
        if args.traced { "traced" } else { "untraced" },
        args.seconds,
        if args.smoke {
            ", smoke: shortened warm-up, numbers not comparable"
        } else {
            ""
        }
    );
    for note in &out.notes {
        println!("  {note}");
    }
    print!("{}", out.table(args.traced));
    if args.traced {
        let path = PathBuf::from(format!("bench/out/trace_{}.json", args.workload));
        match trace::write_chrome(&path, &out.spans) {
            Ok(()) => println!("  {} spans written to {}", out.spans.len(), path.display()),
            Err(e) => {
                eprintln!("fleche-e2e: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", out.result_line(args.traced));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "fleche-e2e: {} of {} requests failed",
            out.failed, out.attempted
        );
        ExitCode::FAILURE
    }
}
