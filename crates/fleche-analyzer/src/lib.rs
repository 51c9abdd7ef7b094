//! fleche-analyzer: workspace lints for the Fleche reproduction.
//!
//! The simulator's claims rest on two properties no compiler checks for us:
//! *determinism* (same seed, same report, bit for bit) and *bounded tail
//! latency* (no panics or wall-clock reads on serving paths). This crate
//! enforces the repo policies that protect both, using a token-level lexer
//! (no `syn` — the workspace builds offline) driven by
//! `fleche-analyzer.toml`.
//!
//! The companion dynamic checker — the vector-clock happens-before race
//! detector for the simulated GPU — lives in `fleche_gpu::race`, next to
//! the event engine it instruments; this crate covers everything a static
//! pass can see.
//!
//! Usage: `cargo run -p fleche-analyzer -- --root .` or via the
//! `fleche-bench` `analyze` bin, which also drives the race checker.

pub mod config;
pub mod lexer;
pub mod rules;

pub use config::{AnalyzerConfig, ConfigError, RuleConfig};
pub use rules::Diagnostic;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never scanned, regardless of config.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "results"];

/// Recursively collects workspace-relative `/`-separated paths of `.rs`
/// files under `root`, sorted, skipping build output and vendored code.
pub fn workspace_rust_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel) = stack.pop() {
        let dir = root.join(&rel);
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let child = if rel.as_os_str().is_empty() {
                PathBuf::from(name.as_ref())
            } else {
                rel.join(name.as_ref())
            };
            let ty = entry.file_type()?;
            if ty.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(child);
                }
            } else if ty.is_file() && name.ends_with(".rs") {
                out.push(child.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Loads the config file at `path`.
pub fn load_config(path: &Path) -> Result<AnalyzerConfig, String> {
    let src =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut cfg = config::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
    cfg.source = path.file_name().map_or_else(
        || path.display().to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    Ok(cfg)
}

/// Runs every configured rule over the workspace rooted at `root`.
/// Diagnostics come back sorted by (file, line, rule) so output is stable
/// across runs and platforms — the report doubles as a regression fixture.
///
/// Rules emit raw findings; suppression happens here, centrally: inline
/// `analyzer: allow(...)` markers first, then the rule's config
/// allow-list. Both record what they actually suppressed, and when the
/// config declares `[rules.stale-allow]`, any marker or allow entry that
/// suppressed nothing becomes a `stale-allow` diagnostic — allow-listed
/// files are still scanned (their findings just feed the audit instead
/// of the report), so a stale entry cannot hide behind its own
/// exemption. Likewise a `slot-resource-coverage` mutator that no call in
/// the rule's paths matches is reported at its config line.
pub fn run(root: &Path, config: &AnalyzerConfig) -> io::Result<Vec<Diagnostic>> {
    let files = workspace_rust_files(root)?;
    let mut diagnostics = Vec::new();
    let mut lock_order = rules::LockOrder::default();
    let lock_rule = config.rule(rules::ids::LOCK_ORDER);
    let stale_rule = config.rule(rules::ids::STALE_ALLOW);

    // The per-file rules, with their settings resolved once. Each entry:
    // (id, rule config, raw-diagnostics fn).
    type RuleFn<'a> = Box<dyn Fn(&str, &lexer::Lexed) -> Vec<Diagnostic> + 'a>;
    let mut per_file: Vec<(&'static str, &config::RuleConfig, RuleFn)> = Vec::new();
    if let Some(r) = config.rule(rules::ids::HASH_ITERATION) {
        per_file.push((
            rules::ids::HASH_ITERATION,
            r,
            Box::new(rules::hash_iteration),
        ));
    }
    if let Some(r) = config.rule(rules::ids::NO_PANIC_HOT_PATH) {
        per_file.push((
            rules::ids::NO_PANIC_HOT_PATH,
            r,
            Box::new(rules::no_panic_hot_path),
        ));
    }
    if let Some(r) = config.rule(rules::ids::NO_WALL_CLOCK) {
        per_file.push((rules::ids::NO_WALL_CLOCK, r, Box::new(rules::no_wall_clock)));
    }
    if let Some(r) = config.rule(rules::ids::CONDVAR_WAIT_LOOP) {
        per_file.push((
            rules::ids::CONDVAR_WAIT_LOOP,
            r,
            Box::new(rules::condvar_wait_loop),
        ));
    }
    if let Some(r) = config.rule(rules::ids::LOCK_ACROSS_HOT_PATH) {
        let hot: Vec<String> = r.lists.get("hot_calls").cloned().unwrap_or_else(|| {
            rules::DEFAULT_HOT_CALLS
                .iter()
                .map(|s| s.to_string())
                .collect()
        });
        per_file.push((
            rules::ids::LOCK_ACROSS_HOT_PATH,
            r,
            Box::new(move |f, l| rules::lock_across_hot_path(f, l, &hot)),
        ));
    }
    if let Some(r) = config.rule(rules::ids::TARGET_FEATURE_GUARD) {
        per_file.push((
            rules::ids::TARGET_FEATURE_GUARD,
            r,
            Box::new(rules::target_feature_guard),
        ));
    }
    // The slot-coverage rule's mutators, and which of them some call in the
    // rule's paths matches (the dead ones are reported after the scan).
    let slot_rule = config.rule(rules::ids::SLOT_RESOURCE_COVERAGE);
    let list = |key: &str| slot_rule.and_then(|r| r.lists.get(key).cloned());
    let mutators = list("mutators").unwrap_or_default();
    let receiver = slot_rule
        .and_then(|r| r.settings.get("receiver").cloned())
        .unwrap_or_else(|| "cache".to_string());
    let mut mutators_called = vec![false; mutators.len()];
    if let Some(r) = slot_rule {
        let markers = list("markers").unwrap_or_default();
        let (receiver, mutators) = (receiver.clone(), mutators.clone());
        per_file.push((
            rules::ids::SLOT_RESOURCE_COVERAGE,
            r,
            Box::new(move |f, l| {
                rules::slot_resource_coverage(f, l, &receiver, &mutators, &markers)
            }),
        ));
    }

    // Config-allow usage, per rule id (parallel to each rule's `allow`).
    let mut allow_used: std::collections::BTreeMap<&'static str, Vec<bool>> = per_file
        .iter()
        .map(|(id, r, _)| (*id, vec![false; r.allow.len()]))
        .collect();

    for file in &files {
        let stale_here = stale_rule.is_some_and(|r| r.applies_to(file));
        // (rule index, matching allow-entry index if the file is exempt).
        let work: Vec<(usize, Option<usize>)> = per_file
            .iter()
            .enumerate()
            .filter(|(_, (_, r, _))| r.paths.iter().any(|p| file.starts_with(p.as_str())))
            .map(|(idx, (_, r, _))| {
                (
                    idx,
                    r.allow.iter().position(|p| file.starts_with(p.as_str())),
                )
            })
            .collect();
        let lock = lock_rule.is_some_and(|r| r.applies_to(file));
        if work.is_empty() && !lock && !stale_here {
            continue;
        }
        let src = fs::read_to_string(root.join(file))?;
        let lexed = lexer::lex(&src);
        let mut marker_used = vec![false; lexed.suppressions.len()];
        for (idx, allow_idx) in work {
            let (id, _, rule_fn) = &per_file[idx];
            for d in rule_fn(file, &lexed) {
                let marker = lexed
                    .suppressions
                    .iter()
                    .position(|s| s.rule == *id && (s.line == d.line || s.line + 1 == d.line));
                if let Some(si) = marker {
                    marker_used[si] = true;
                } else if let Some(ai) = allow_idx {
                    allow_used.get_mut(id).expect("rule registered")[ai] = true;
                } else {
                    diagnostics.push(d);
                }
            }
        }
        if lock {
            lock_order.scan(file, &lexed);
        }
        if slot_rule.is_some_and(|r| r.paths.iter().any(|p| file.starts_with(p.as_str()))) {
            rules::mark_mutators_called(&lexed, &receiver, &mutators, &mut mutators_called);
        }
        if stale_here {
            for (si, s) in lexed.suppressions.iter().enumerate() {
                if !marker_used[si] {
                    diagnostics.push(Diagnostic {
                        rule: rules::ids::STALE_ALLOW,
                        file: file.clone(),
                        line: s.line,
                        message: format!(
                            "inline `analyzer: allow({})` suppresses nothing: the \
                             violation it excused is gone — remove the marker",
                            s.rule
                        ),
                    });
                }
            }
        }
    }
    diagnostics.extend(lock_order.finish());

    let source = if config.source.is_empty() {
        "fleche-analyzer.toml".to_string()
    } else {
        config.source.clone()
    };
    // Mutator entries no call matched: the rule cannot see that method.
    for (i, m) in mutators
        .iter()
        .enumerate()
        .filter(|&(i, _)| !mutators_called[i])
    {
        diagnostics.push(Diagnostic {
            rule: rules::ids::SLOT_RESOURCE_COVERAGE,
            file: source.clone(),
            line: slot_rule.map_or(0, |r| r.line("mutators", i)),
            message: format!(
                "mutators entry `{m}` matches no `{receiver}.{m}(..)` call in the \
                 rule's paths, so the rule checks nothing for it — drop it or \
                 rename it after the method"
            ),
        });
    }

    // Config allow entries that silenced nothing anywhere.
    if stale_rule.is_some() {
        for (id, r, _) in &per_file {
            for (ai, used) in allow_used[id].iter().enumerate() {
                if !used {
                    diagnostics.push(Diagnostic {
                        rule: rules::ids::STALE_ALLOW,
                        file: source.clone(),
                        line: r.line("allow", ai),
                        message: format!(
                            "config allow entry `{}` for rule `{id}` suppresses \
                             nothing — drop it or retarget it",
                            r.allow[ai]
                        ),
                    });
                }
            }
        }
    }

    if let Some(cc) = config.rule(rules::ids::COST_CONSTANTS) {
        // One doc, one or more spec files: `specs = [...]` lists every
        // file holding calibration structs; the singular `spec = "..."`
        // form is still accepted for single-file configs.
        let mut spec_files = cc.lists.get("specs").cloned().unwrap_or_default();
        if spec_files.is_empty() {
            spec_files.extend(cc.settings.get("spec").cloned());
        }
        if let Some(doc) = cc.settings.get("doc") {
            let doc_src = fs::read_to_string(root.join(doc))?;
            let structs = cc.lists.get("structs").cloned().unwrap_or_default();
            for spec in &spec_files {
                let spec_src = fs::read_to_string(root.join(spec))?;
                diagnostics.extend(rules::cost_constants(
                    spec,
                    &lexer::lex(&spec_src),
                    &structs,
                    doc,
                    &doc_src,
                ));
            }
        }
    }

    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(diagnostics)
}

/// Renders diagnostics the way the CLI prints them, one per line, with a
/// trailing summary line. Empty input renders the all-clear line only.
pub fn render(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diagnostics {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    if diagnostics.is_empty() {
        out.push_str("fleche-analyzer: workspace clean\n");
    } else {
        out.push_str(&format!(
            "fleche-analyzer: {} violation(s)\n",
            diagnostics.len()
        ));
    }
    out
}
