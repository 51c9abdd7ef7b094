//! Performance gate over `results/BENCH_hotpath.json`.
//!
//! Two jobs, both driven by the machine-readable hotpath report:
//!
//! 1. **Family speedups** (always): each vectorized hot path must beat its
//!    scalar twin measured in the *same* report — ≥1.5x on at least two of
//!    the four families (pooled gather, batch checksum, batch slab lookup,
//!    batch codec encode). Same file, same machine, same run: no
//!    fingerprint caveats apply.
//! 2. **Regression gate** (when comparable): every label shared with the
//!    committed baseline report must not be more than 15% slower — but
//!    only when the two reports carry the same host fingerprint (CPU
//!    model + SIMD features + arch) and the same quick flag. Wall-clock
//!    comparisons across machines are noise, so a mismatch skips this
//!    check loudly rather than failing spuriously. Sub-20ns baselines are
//!    also skipped: timer jitter dominates there.
//!
//! A third mode, `--labels a.json b.json`, compares only the label
//! sequences of two reports — CI runs the bench twice and uses this to
//! prove the label set is deterministic without comparing timings.
//!
//! Exit status is the gate verdict: 0 pass, 1 fail.

use std::process::ExitCode;

use crate::drill::pass_fail;
use crate::Args;

/// One parsed bench entry.
struct Entry {
    label: String,
    per_iter_ns: f64,
}

/// A parsed hotpath report: host fingerprint, quick flag, entries.
struct Report {
    fingerprint: String,
    quick: bool,
    entries: Vec<Entry>,
}

/// Extracts the string value following `"key":"` at its first occurrence.
/// The emitter writes compact JSON with known key order, so a scan is
/// enough; escapes are unwound for the two we emit.
fn scan_str(doc: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = doc.find(&pat)? + pat.len();
    let mut out = String::new();
    let mut chars = doc[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some(e) => out.push(e),
                None => return None,
            },
            _ => out.push(c),
        }
    }
    None
}

/// Extracts the number following `"key":` starting at byte offset `from`.
fn scan_f64(doc: &str, key: &str, from: usize) -> Option<(f64, usize)> {
    let pat = format!("\"{key}\":");
    let rel = doc[from..].find(&pat)?;
    let start = from + rel + pat.len();
    let end = start
        + doc[start..]
            .find([',', '}', ']'])
            .unwrap_or(doc.len() - start);
    doc[start..end].trim().parse().ok().map(|v| (v, end))
}

fn parse_report(path: &str) -> Result<Report, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let fingerprint =
        scan_str(&doc, "fingerprint").ok_or_else(|| format!("{path}: no host fingerprint"))?;
    let quick = doc.contains("\"quick\":true");
    let benches_at = doc
        .find("\"benches\":[")
        .ok_or_else(|| format!("{path}: no benches array"))?;
    let mut entries = Vec::new();
    let mut pos = benches_at;
    while let Some(rel) = doc[pos..].find("\"label\":\"") {
        let lstart = pos + rel + "\"label\":\"".len();
        let lend = lstart
            + doc[lstart..]
                .find('"')
                .ok_or_else(|| format!("{path}: unterminated label"))?;
        let label = doc[lstart..lend].to_string();
        let (per_iter_ns, next) = scan_f64(&doc, "per_iter_ns", lend)
            .ok_or_else(|| format!("{path}: no per_iter_ns after {label}"))?;
        entries.push(Entry { label, per_iter_ns });
        pos = next;
    }
    if entries.is_empty() {
        return Err(format!("{path}: no bench entries"));
    }
    Ok(Report {
        fingerprint,
        quick,
        entries,
    })
}

impl Report {
    /// The entry whose label starts with `prefix` (slab labels embed the
    /// key count, which differs between quick and full runs).
    fn by_prefix(&self, prefix: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.label.starts_with(prefix))
    }
}

/// The scalar/vectorized label pairs making up the four gated families.
/// Both sides of a pair do identical per-iteration work, so the speedup is
/// the plain per-iter time ratio.
const FAMILIES: [(&str, &str, &str); 4] = [
    (
        "pooled gather",
        "reduction/gather_scalar_",
        "reduction/gather_6",
    ),
    (
        "batch checksum",
        "checksum/batch64_byte_fnv1a/128",
        "checksum/batch64/128",
    ),
    (
        "batch slab lookup",
        "slab_probe/lookup_hit/",
        "slab_probe/lookup_batch/",
    ),
    (
        "batch codec encode",
        "codec/fixed_encode_scalar",
        "codec/fixed_encode_batch",
    ),
];

/// Speedup threshold for a family to count, and how many must count.
const FAMILY_SPEEDUP: f64 = 1.5;
const FAMILIES_REQUIRED: usize = 2;
/// Allowed per-label slowdown vs the committed baseline.
const REGRESSION_TOLERANCE: f64 = 1.15;
/// Baselines faster than this are timer jitter, not signal.
const NOISE_FLOOR_NS: f64 = 20.0;

fn check_families(current: &Report) -> (usize, bool) {
    println!("family speedups (vectorized vs scalar twin, same report):");
    let mut passing = 0usize;
    let mut missing = false;
    for (name, scalar, vector) in FAMILIES {
        match (current.by_prefix(scalar), current.by_prefix(vector)) {
            (Some(s), Some(v)) if v.per_iter_ns > 0.0 => {
                let speedup = s.per_iter_ns / v.per_iter_ns;
                let mark = if speedup >= FAMILY_SPEEDUP {
                    "PASS"
                } else {
                    "    "
                };
                println!("  {name:<20} {speedup:>6.2}x  {mark}");
                if speedup >= FAMILY_SPEEDUP {
                    passing += 1;
                }
            }
            _ => {
                println!("  {name:<20}   MISSING LABELS ({scalar} / {vector})");
                missing = true;
            }
        }
    }
    (passing, missing)
}

fn check_regressions(current: &Report, baseline: &Report) -> bool {
    let mut ok = true;
    let mut compared = 0usize;
    for base in &baseline.entries {
        if base.per_iter_ns < NOISE_FLOOR_NS {
            continue;
        }
        let Some(cur) = current.entries.iter().find(|e| e.label == base.label) else {
            println!("  {:<34} dropped from current report: FAIL", base.label);
            ok = false;
            continue;
        };
        compared += 1;
        let ratio = cur.per_iter_ns / base.per_iter_ns;
        if ratio > REGRESSION_TOLERANCE {
            println!(
                "  {:<34} {:.0}ns -> {:.0}ns ({ratio:.2}x): FAIL",
                base.label, base.per_iter_ns, cur.per_iter_ns
            );
            ok = false;
        }
    }
    println!(
        "regression gate: {compared} label(s) compared at {:.0}% tolerance: {}",
        (REGRESSION_TOLERANCE - 1.0) * 100.0,
        pass_fail(ok)
    );
    ok
}

fn labels_mode(a: &str, b: &str) -> ExitCode {
    let (ra, rb) = match (parse_report(a), parse_report(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let la: Vec<&str> = ra.entries.iter().map(|e| e.label.as_str()).collect();
    let lb: Vec<&str> = rb.entries.iter().map(|e| e.label.as_str()).collect();
    if la == lb {
        println!("label determinism: {} label(s) identical: PASS", la.len());
        ExitCode::SUCCESS
    } else {
        println!("label determinism: FAIL");
        println!("  {a}: {la:?}");
        println!("  {b}: {lb:?}");
        ExitCode::FAILURE
    }
}

pub(crate) fn main(args: &Args) -> ExitCode {
    let paths = &args.rest;
    if paths.first().map(String::as_str) == Some("--labels") {
        if paths.len() != 3 {
            return args.bad_usage("`--labels` compares exactly two reports");
        }
        return labels_mode(&paths[1], &paths[2]);
    }
    let current_path = paths
        .first()
        .cloned()
        .unwrap_or_else(|| "results/BENCH_hotpath.json".into());
    let baseline_path = paths
        .get(1)
        .cloned()
        .unwrap_or_else(|| "results/BENCH_hotpath_baseline.json".into());

    let current = match parse_report(&current_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("current report: {current_path}");
    println!("  host: {}", current.fingerprint);

    let (passing, missing) = check_families(&current);
    let families_ok = !missing && passing >= FAMILIES_REQUIRED;
    println!(
        "family gate: {passing}/{} families at >= {FAMILY_SPEEDUP}x (need {FAMILIES_REQUIRED}): {}",
        FAMILIES.len(),
        pass_fail(families_ok)
    );

    let regression_ok = match parse_report(&baseline_path) {
        Ok(baseline) => {
            if baseline.fingerprint != current.fingerprint {
                println!(
                    "regression gate: SKIPPED (host fingerprint mismatch)\n  baseline: {}\n  current:  {}",
                    baseline.fingerprint, current.fingerprint
                );
                true
            } else if baseline.quick != current.quick {
                println!("regression gate: SKIPPED (quick-mode flag differs)");
                true
            } else {
                check_regressions(&current, &baseline)
            }
        }
        Err(e) => {
            println!("regression gate: SKIPPED ({e})");
            true
        }
    };

    let ok = families_ok && regression_ok;
    println!("bench_gate: {}", pass_fail(ok));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
