//! End-to-end lint tests over the seeded-violation fixture workspace in
//! `tests/fixtures/`: one fixture file per rule, plus a config-allow-list
//! case and an inline-allow case, plus the CLI's exit-code contract.

use fleche_analyzer::{config, rules, run};
use std::path::Path;
use std::process::Command;

fn fixture_root() -> &'static Path {
    // Integration tests run with the crate directory as cwd.
    Path::new("tests/fixtures")
}

fn fixture_diagnostics() -> Vec<fleche_analyzer::Diagnostic> {
    let cfg_src = std::fs::read_to_string(fixture_root().join("analyzer.toml"))
        .expect("fixture config readable");
    let mut cfg = config::parse(&cfg_src).expect("fixture config parses");
    cfg.source = "analyzer.toml".to_string();
    run(fixture_root(), &cfg).expect("fixture workspace scans")
}

fn count(diags: &[fleche_analyzer::Diagnostic], rule: &str, file: &str) -> usize {
    diags
        .iter()
        .filter(|d| d.rule == rule && d.file == file)
        .count()
}

#[test]
fn every_rule_flags_its_seeded_fixture() {
    let diags = fixture_diagnostics();
    assert_eq!(
        count(&diags, rules::ids::HASH_ITERATION, "src/hash_violation.rs"),
        2,
        "import + use site"
    );
    assert_eq!(
        count(
            &diags,
            rules::ids::NO_PANIC_HOT_PATH,
            "src/panic_violation.rs"
        ),
        2,
        "unwrap + panic!; inline-allowed expect and test-mod unwrap excluded"
    );
    assert_eq!(
        count(
            &diags,
            rules::ids::NO_WALL_CLOCK,
            "src/wall_clock_violation.rs"
        ),
        2,
        "return type + now() call; string/comment mentions excluded"
    );
    assert_eq!(
        count(
            &diags,
            rules::ids::LOCK_ORDER,
            "src/lock_order_violation.rs"
        ),
        1,
        "one opposite-order pair"
    );
    assert_eq!(
        count(&diags, rules::ids::COST_CONSTANTS, "src/spec_violation.rs"),
        1,
        "mystery_knob only; documented + unconfigured-struct fields excluded"
    );
    assert_eq!(
        count(
            &diags,
            rules::ids::CONDVAR_WAIT_LOOP,
            "src/condvar_violation.rs"
        ),
        1,
        "if-gated wait only; while/loop, Barrier::wait, wait_while excluded"
    );
    assert_eq!(
        count(
            &diags,
            rules::ids::LOCK_ACROSS_HOT_PATH,
            "src/lock_across_violation.rs"
        ),
        1,
        "guard across run_batch only; drop-first and scoped-out excluded"
    );
    assert_eq!(
        count(
            &diags,
            rules::ids::SLOT_RESOURCE_COVERAGE,
            "src/slot_coverage_violation.rs"
        ),
        1,
        "undeclared cache.wipe only; declared fn and other receiver excluded"
    );
    assert_eq!(
        count(
            &diags,
            rules::ids::TARGET_FEATURE_GUARD,
            "src/target_feature_violation.rs"
        ),
        3,
        "exported specialization + unguarded call + AVX-512 call behind an \
         AVX2 check; dispatched, all-features, tf-to-tf, and pub(crate) \
         shapes excluded"
    );
    assert_eq!(
        count(
            &diags,
            rules::ids::STALE_ALLOW,
            "src/stale_allow_violation.rs"
        ),
        1,
        "the unused inline marker itself"
    );
    assert_eq!(
        count(&diags, rules::ids::STALE_ALLOW, "analyzer.toml"),
        1,
        "the unused `src/stale_allowed.rs` config allow entry"
    );
    // Nothing beyond the seeded violations.
    assert_eq!(diags.len(), 16, "unexpected extra diagnostics: {diags:?}");
}

#[test]
fn stale_allow_points_at_the_config_line() {
    let diags = fixture_diagnostics();
    let entry = diags
        .iter()
        .find(|d| d.rule == rules::ids::STALE_ALLOW && d.file == "analyzer.toml")
        .expect("config stale-allow diagnostic present");
    // The `src/stale_allowed.rs` entry sits on line 7 of the fixture
    // config; the audit must point at the exact entry to drop.
    assert_eq!(entry.line, 7, "wrong config line: {entry:?}");
    assert!(entry.message.contains("stale_allowed.rs"), "{entry:?}");
}

#[test]
fn used_allows_are_not_flagged() {
    let diags = fixture_diagnostics();
    // The inline allow in panic_violation.rs suppresses a real expect,
    // and the hash_allowed.rs config entry suppresses real hash use —
    // neither may be reported stale.
    assert!(
        !diags.iter().any(|d| d.rule == rules::ids::STALE_ALLOW
            && (d.file == "src/panic_violation.rs" || d.message.contains("hash_allowed.rs"))),
        "{diags:?}"
    );
}

#[test]
fn config_allow_list_silences_a_covered_path() {
    let diags = fixture_diagnostics();
    assert_eq!(
        count(&diags, rules::ids::HASH_ITERATION, "src/hash_allowed.rs"),
        0,
        "allow-listed file must not be flagged"
    );
}

#[test]
fn diagnostics_are_sorted_for_stable_reports() {
    let diags = fixture_diagnostics();
    let keys: Vec<_> = diags
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn cli_exits_nonzero_on_fixture_and_zero_on_clean_workspace() {
    let exe = env!("CARGO_BIN_EXE_fleche-analyzer");
    let dirty = Command::new(exe)
        .args([
            "--root",
            "tests/fixtures",
            "--config",
            "tests/fixtures/analyzer.toml",
        ])
        .output()
        .expect("analyzer runs");
    assert_eq!(dirty.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    assert!(stdout.contains("[hash-iteration]"), "stdout: {stdout}");
    assert!(stdout.contains("[stale-allow]"), "stdout: {stdout}");
    assert!(stdout.contains("16 violation(s)"), "stdout: {stdout}");

    // The real workspace (two directories up) must be clean — this is the
    // committed regression guarantee behind results/analyzer_report.txt.
    let clean = Command::new(exe)
        .args(["--root", "../.."])
        .output()
        .expect("analyzer runs");
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert_eq!(clean.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("workspace clean"));
}

#[test]
fn dead_mutator_entry_points_at_the_config_line() {
    // The fixture's slot-coverage file calls `cache.wipe(` and
    // `cache.end_batch_with(`; nothing calls `cache.evict_all(`, so that
    // entry (line 7) is dead and reported, and the live ones are not.
    let cfg_src = r#"
[rules.slot-resource-coverage]
paths = ["src/slot_coverage_violation.rs"]
receiver = "cache"
mutators = [
  "wipe",
  "evict_all",
  "end_batch_with",
]
markers = ["slot_resource"]
"#;
    let mut cfg = config::parse(cfg_src).expect("config parses");
    cfg.source = "dead.toml".to_string();
    let diags = run(fixture_root(), &cfg).expect("fixture workspace scans");
    let dead: Vec<_> = diags.iter().filter(|d| d.file == "dead.toml").collect();
    assert_eq!(dead.len(), 1, "{diags:?}");
    assert_eq!(dead[0].rule, rules::ids::SLOT_RESOURCE_COVERAGE);
    assert_eq!(dead[0].line, 7, "wrong config line: {:?}", dead[0]);
    assert!(dead[0].message.contains("`evict_all`"), "{:?}", dead[0]);
    // Besides it, only the seeded undeclared `cache.wipe()`.
    assert_eq!(
        count(
            &diags,
            rules::ids::SLOT_RESOURCE_COVERAGE,
            "src/slot_coverage_violation.rs"
        ),
        1
    );
    assert_eq!(diags.len(), 2, "{diags:?}");
}
