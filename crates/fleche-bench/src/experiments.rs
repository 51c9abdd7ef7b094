//! The table of experiments — one module each under `experiments/` — and
//! the one command line over it:
//! `fleche-bench <name> [--quick] [--analyze] [args]`.

use std::process::{ExitCode, Termination};

/// The command line of one experiment, parsed.
pub struct Args {
    /// The experiment's name in the table.
    pub name: &'static str,
    /// `--quick`: smaller sweeps, same code paths.
    pub quick: bool,
    /// `--analyze`: arm the happens-before race checker (drills only).
    pub analyze: bool,
    /// Trailing arguments, for the rows that declare any.
    pub rest: Vec<String>,
}

impl Args {
    /// Reports a problem with the trailing arguments; the exit status is 2.
    pub(crate) fn bad_usage(&self, problem: &str) -> ExitCode {
        let row = find(self.name).expect("Args are only built for table rows");
        eprintln!("error: {problem}\n{}", row.usage());
        ExitCode::from(2)
    }
}

/// Which part of the evaluation a row belongs to. `all` runs the tables,
/// figures and ablations; only drills take `--analyze`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Group {
    Table,
    Figure,
    Ablation,
    Drill,
    Tool,
}

pub(crate) struct Experiment {
    pub name: &'static str,
    pub group: Group,
    /// Usage of the trailing arguments the row parses itself (empty: none).
    trailing: &'static str,
    /// What it shows (DESIGN.md §3, §5).
    pub about: &'static str,
    run: fn(&Args) -> ExitCode,
}

// One module per row of the table below. They are declared here, outside
// the macro, because rustfmt does not format what a macro expands to.
mod ablation_admission;
mod ablation_giant_model;
mod ablation_index_backend;
mod ablation_multi_gpu;
mod ablation_oracle;
mod ablation_reduction_cache;
mod all;
mod analyze;
mod bench_gate;
mod chaos_suite;
mod fig03_motivation_hitrate;
mod fig04_kernel_maintenance;
mod fig09_throughput;
mod fig10_latency;
mod fig10_served_load;
mod fig11_cache_sizes;
mod fig12_hit_rate;
mod fig13_auc_coding;
mod fig14_kernel_fusion;
mod fig15_workflow;
mod fig16_breakdown;
mod fig17_skewness;
mod fig18_dimension;
mod fig19_table_count;
mod fig20_mlp;
mod hotpath;
mod list;
mod overload_drill;
mod recovery_drill;
mod serve_scaling;
mod simulator_trace;
mod table2_datasets;
mod update_drill;
mod workload_report;

/// Builds the table over the modules above, in the order `all` and `list`
/// walk it. A row's `main` returns `()` or an `ExitCode`, as a binary's may.
macro_rules! experiments {
    ($($name:ident $group:ident $trailing:literal $about:literal;)*) => {
        pub(crate) const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            group: Group::$group,
            trailing: $trailing,
            about: $about,
            run: |args| $name::main(args).report(),
        }),*];
    };
}

experiments! {
    table2_datasets Table "" "Table 2: dataset characteristics of the three generator specs";
    workload_report Table "" "Table 2 audit: reuse factor, hot-set concentration, per-table shares of what the generators emit";
    fig03_motivation_hitrate Figure "" "Fig 3: HugeCTR vs Optimal hit rate at cache 20/10/5%";
    fig04_kernel_maintenance Figure "" "Fig 4: kernel maintenance vs execution time as the table count grows";
    fig09_throughput Figure "" "Fig 9 / Exp 1: end-to-end and embedding-only throughput, batch 32-8192, 3 datasets";
    fig10_latency Figure "" "Fig 10 / Exp 2: median/P99 embedding latency vs achieved throughput";
    fig10_served_load Figure "" "Fig 10 companion: open-loop serving, queueing-inclusive latency vs offered load";
    fig11_cache_sizes Figure "" "Fig 11 / Exp 3: embedding speedup under 20/10/5% caches";
    fig12_hit_rate Figure "" "Fig 12 / Exp 4: Optimal vs HugeCTR vs Fleche hit rates";
    fig13_auc_coding Figure "" "Fig 13 / Exp 5: AUC vs key bits, Kraken vs size-aware coding vs upper bound";
    fig14_kernel_fusion Figure "" "Fig 14 / Exp 6: query latency vs table count, both systems";
    fig15_workflow Figure "" "Fig 15 / Exp 7: baseline / +decoupling / +unified index latency by batch";
    fig16_breakdown Figure "" "Fig 16 / Exp 8: HugeCTR -> +FC -> +Fusion -> +Opt latency stacks";
    fig17_skewness Figure "" "Fig 17 / Exp 9: latency vs power-law skew, cache 5/10%";
    fig18_dimension Figure "" "Fig 18 / Exp 10: latency vs embedding dimension";
    fig19_table_count Figure "" "Fig 19 / Exp 11: latency vs table count at 100K IDs";
    fig20_mlp Figure "" "Fig 20 / Exp 12: embedding/MLP latency split vs hidden layers 2-5";
    ablation_admission Ablation "" "probability admission filter: coverage vs churn over p";
    ablation_oracle Ablation "" "analytic Optimal vs census vs Belady vs the measured systems";
    ablation_reduction_cache Ablation "" "MERCI-style reduction cache vs the point cache, one-hot vs multi-hot";
    ablation_giant_model Ablation "" "giant-model mode: DRAM as an LRU cache over a remote parameter server";
    ablation_multi_gpu Ablation "" "flat cache sharded over N simulated GPUs, PCIe-p2p vs NVLink-class";
    ablation_index_backend Ablation "" "flat cache over SlabHash vs a MegaKV-style bucketed cuckoo";
    chaos_suite Drill "" "availability vs latency vs staleness under injected faults";
    recovery_drill Drill "" "warm restart from checkpoints and device-loss failover";
    update_drill Drill "" "versioned writes racing serving, delta re-warm, bounded staleness";
    overload_drill Drill "" "flash-crowd isolation, diurnal adaptation, bounded overload";
    serve_scaling Drill "" "the pipelined multi-worker front-end: identity, wall-clock scaling, overload, hand-off races";
    analyze Tool "[--root DIR]" "correctness gate: workspace lints, happens-before checker, exhaustive schedule exploration";
    hotpath Tool "" "host-clock microbenches of the serving path's hot loops -> results/BENCH_hotpath.json";
    bench_gate Tool "[CURRENT [BASELINE] | --labels A B]" "speedup families and regression gate over the hotpath report";
    simulator_trace Tool "" "Chrome-trace export of one warmed batch per system";
    all Tool "" "every table, figure and ablation above, in order, each in its own process";
    list Tool "" "this table";
}

impl Experiment {
    fn usage(&self) -> String {
        let mut usage = format!("usage: fleche-bench {} [--quick]", self.name);
        if self.group == Group::Drill {
            usage.push_str(" [--analyze]");
        }
        if !self.trailing.is_empty() {
            usage = format!("{usage} {}", self.trailing);
        }
        usage
    }
}

fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Parses everything after the program name; `Err` is what to print
/// before exiting 2.
fn parse(argv: &[String]) -> Result<(&'static Experiment, Args), String> {
    const USAGE: &str = "usage: fleche-bench <experiment> [--quick] [--analyze] [args]\n\
                         `fleche-bench list` names the experiments";
    let (name, flags) = argv.split_first().ok_or(USAGE)?;
    let exp = find(name).ok_or_else(|| format!("error: unknown experiment `{name}`\n{USAGE}"))?;
    let mut args = Args {
        name: exp.name,
        quick: false,
        analyze: false,
        rest: Vec::new(),
    };
    for arg in flags {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--analyze" if exp.group == Group::Drill => args.analyze = true,
            _ if !exp.trailing.is_empty() => args.rest.push(arg.clone()),
            _ => return Err(format!("error: unknown argument `{arg}`\n{}", exp.usage())),
        }
    }
    Ok((exp, args))
}

/// The `fleche-bench` binary: `argv` is everything after the program name.
pub fn cli_main(argv: &[String]) -> ExitCode {
    match parse(argv) {
        Ok((exp, args)) => (exp.run)(&args),
        Err(usage) => {
            eprintln!("{usage}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<(&'static Experiment, Args), String> {
        parse(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn names_are_unique_and_each_is_in_design_md() {
        let design = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let design = std::fs::read_to_string(design).expect("DESIGN.md at the workspace root");
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|other| other.name != e.name),
                "{} is in the table twice",
                e.name
            );
            assert!(
                design.contains(&format!("`fleche-bench {}`", e.name)),
                "DESIGN.md never says how to run `fleche-bench {}`",
                e.name
            );
        }
    }

    #[test]
    fn all_runs_the_tables_figures_and_ablations_in_order() {
        let names: Vec<&str> = all::rows().map(|e| e.name).collect();
        let expected = "table2_datasets workload_report fig03_motivation_hitrate \
            fig04_kernel_maintenance fig09_throughput fig10_latency fig10_served_load \
            fig11_cache_sizes fig12_hit_rate fig13_auc_coding fig14_kernel_fusion fig15_workflow \
            fig16_breakdown fig17_skewness fig18_dimension fig19_table_count fig20_mlp \
            ablation_admission ablation_oracle ablation_reduction_cache ablation_giant_model \
            ablation_multi_gpu ablation_index_backend";
        assert_eq!(names, expected.split_whitespace().collect::<Vec<_>>());
    }

    #[test]
    fn strangers_are_rejected_and_flags_parsed_once() {
        for bad in [
            &[][..],
            &["fig99_nothing"],
            &["fig10_latency", "--verbose"],
            // `--analyze` belongs to the drills, trailing arguments to the
            // rows that declare them.
            &["fig10_latency", "--analyze"],
            &["chaos_suite", "--root", "."],
            &["all", "fig10_latency"],
        ] {
            assert!(parse_words(bad).is_err(), "{bad:?}");
        }
        let (exp, args) = parse_words(&["chaos_suite", "--analyze", "--quick"]).expect("a drill");
        assert_eq!((exp.name, args.name), ("chaos_suite", "chaos_suite"));
        assert!(args.quick && args.analyze && args.rest.is_empty());
        let (_, args) = parse_words(&["analyze", "--root", "/tmp/ws"]).expect("its own arguments");
        assert_eq!(args.rest, ["--root", "/tmp/ws"]);
    }
}
