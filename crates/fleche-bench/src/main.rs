//! `fleche-bench <experiment> [--quick] [--analyze] [args]` — the one
//! executable behind every table, figure, ablation, drill and tool; see
//! `fleche-bench list`.

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    fleche_bench::cli_main(&argv)
}
