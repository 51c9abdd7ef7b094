//! The lint rules.
//!
//! Every rule consumes the token stream of [`crate::lexer::lex`] plus the
//! rule's [`crate::config::RuleConfig`] and emits [`Diagnostic`]s. Rules are token-level
//! heuristics, deliberately conservative: they flag constructs whose mere
//! *presence* in a determinism- or latency-critical file is a repo-policy
//! violation, and the per-path / inline allow-lists carry the reviewed
//! exceptions. Code inside `#[cfg(test)]` modules is exempt everywhere —
//! tests may unwrap and hash freely.
//!
//! | id | policy |
//! |---|---|
//! | `hash-iteration` | no `HashMap`/`HashSet` in determinism-critical files (iteration order would leak into benchmark output) |
//! | `no-panic-hot-path` | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` in serving hot paths |
//! | `no-wall-clock` | no `Instant::now`/`SystemTime` inside the simulation (simulated time only) |
//! | `lock-order` | every function must acquire `Mutex`/`RwLock` guards in one global order |
//! | `cost-constants` | every public cost-model field of the GPU spec structs is documented in DESIGN.md |
//! | `condvar-wait-loop` | every `Condvar::wait` must sit inside a `while`/`loop` re-check |
//! | `lock-across-await-free-hot-path` | no lock guard held across an engine/cache batch call |
//! | `slot-resource-coverage` | every cache-mutating function declares its slots to the race checker, and every configured mutator is still called |
//! | `target-feature-guard` | `#[target_feature]` fns stay file-private and are only called behind `is_x86_feature_detected!` |
//! | `stale-allow` | every allow entry (inline or config) must still suppress something |
//!
//! Rules emit *raw* diagnostics; [`crate::run`] applies inline
//! suppressions and config allow-lists centrally, recording which were
//! used so `stale-allow` can flag the rest.

use crate::lexer::{Lexed, Token, TokenKind};
use std::collections::BTreeMap;
use std::ops::Range;

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (stable, used in allow-lists).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What went wrong and how to fix it.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Rule id constants (single source for code, config, and docs).
pub mod ids {
    /// No `HashMap`/`HashSet` in determinism-critical modules.
    pub const HASH_ITERATION: &str = "hash-iteration";
    /// No panicking calls in serving hot paths.
    pub const NO_PANIC_HOT_PATH: &str = "no-panic-hot-path";
    /// No wall-clock reads inside the simulation.
    pub const NO_WALL_CLOCK: &str = "no-wall-clock";
    /// Consistent lock acquisition order.
    pub const LOCK_ORDER: &str = "lock-order";
    /// Cost-model constants must be documented.
    pub const COST_CONSTANTS: &str = "cost-constants";
    /// Condvar waits must re-check their predicate in a loop.
    pub const CONDVAR_WAIT_LOOP: &str = "condvar-wait-loop";
    /// No lock guard live across a batch-execution call.
    pub const LOCK_ACROSS_HOT_PATH: &str = "lock-across-await-free-hot-path";
    /// Cache-slot mutations must be declared to the race checker.
    pub const SLOT_RESOURCE_COVERAGE: &str = "slot-resource-coverage";
    /// `#[target_feature]` fns must stay private and guarded.
    pub const TARGET_FEATURE_GUARD: &str = "target-feature-guard";
    /// Allow entries that no longer suppress anything are themselves
    /// violations.
    pub const STALE_ALLOW: &str = "stale-allow";
}

/// Marks the token ranges (by index) covered by `#[cfg(test)] mod ... { }`
/// blocks so rules can skip test code. Returns a bool per token.
fn test_code_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        // Match the sequence: # [ cfg ( test ) ] ... mod ident {
        if tokens[i].text == "#" && matches(tokens, i + 1, &["[", "cfg", "(", "test", ")", "]"]) {
            // Find the `mod` that follows (attributes may stack).
            let mut j = i + 7;
            while j < tokens.len() && tokens[j].text != "mod" {
                // Another attribute or doc comment tokens; stop if we hit
                // something that clearly is not part of an item header.
                if tokens[j].text == "{" || tokens[j].text == "}" {
                    break;
                }
                j += 1;
            }
            if j < tokens.len() && tokens[j].text == "mod" {
                // Find the opening brace, then mask to its matching close.
                let mut k = j;
                while k < tokens.len() && tokens[k].text != "{" {
                    k += 1;
                }
                if k < tokens.len() {
                    // The lexer stamps `{` with its pre-increment depth and
                    // `}` with its pre-decrement depth, so the matching
                    // close brace sits at open_depth + 1.
                    let close_depth = tokens[k].depth + 1;
                    let mut m = k;
                    loop {
                        mask[m] = true;
                        m += 1;
                        if m >= tokens.len() {
                            break;
                        }
                        if tokens[m].text == "}" && tokens[m].depth == close_depth {
                            mask[m] = true;
                            break;
                        }
                    }
                    // Also mask the attribute/header tokens themselves.
                    for slot in mask.iter_mut().take(k).skip(i) {
                        *slot = true;
                    }
                    i = m + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    mask
}

/// The token range inside the braces of each function body whose `fn`
/// token `keep` admits. Bodiless declarations are skipped, and a function
/// nested in a body is part of that body.
fn fn_bodies(tokens: &[Token], keep: impl Fn(usize) -> bool) -> Vec<Range<usize>> {
    let mut bodies = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text != "fn" || !keep(i) {
            i += 1;
            continue;
        }
        let mut k = i + 1;
        while k < tokens.len() && tokens[k].text != "{" && tokens[k].text != ";" {
            k += 1;
        }
        if k >= tokens.len() || tokens[k].text == ";" {
            i = k + 1;
            continue;
        }
        // The matching close brace sits at open_depth + 1 (see above).
        let close_depth = tokens[k].depth + 1;
        let mut end = k + 1;
        while end < tokens.len() && !(tokens[end].text == "}" && tokens[end].depth == close_depth) {
            end += 1;
        }
        bodies.push(k + 1..end);
        i = end + 1;
    }
    bodies
}

fn matches(tokens: &[Token], start: usize, texts: &[&str]) -> bool {
    texts
        .iter()
        .enumerate()
        .all(|(k, t)| tokens.get(start + k).is_some_and(|tok| tok.text == *t))
}

fn push(out: &mut Vec<Diagnostic>, rule: &'static str, file: &str, line: u32, message: String) {
    out.push(Diagnostic {
        rule,
        file: file.to_string(),
        line,
        message,
    });
}

/// `hash-iteration`: flags any `HashMap`/`HashSet` mention. Token-level
/// analysis cannot prove a map is never iterated, so determinism-critical
/// files must not use randomized-order containers at all; `BTreeMap`,
/// `BTreeSet`, sorted `Vec`s, or an allow-list entry (for uses that sort
/// before iterating) are the ways out.
pub fn hash_iteration(file: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let mask = test_code_mask(&lexed.tokens);
    let mut out = Vec::new();
    for (i, t) in lexed.tokens.iter().enumerate() {
        if mask[i] || t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            push(
                &mut out,
                ids::HASH_ITERATION,
                file,
                t.line,
                format!(
                    "`{}` in a determinism-critical module: iteration order is \
                     randomized per process; use BTreeMap/BTreeSet or a sorted Vec",
                    t.text
                ),
            );
        }
    }
    out
}

const PANIC_MACROS: [&str; 3] = ["panic", "unreachable", "todo"];

/// `no-panic-hot-path`: flags `.unwrap()`, `.expect(`, `panic!`,
/// `unreachable!`, and `todo!` outside test modules.
pub fn no_panic_hot_path(file: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let tokens = &lexed.tokens;
    let mask = test_code_mask(tokens);
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let is_call = |name: &str| {
            t.text == name
                && i > 0
                && tokens[i - 1].text == "."
                && tokens.get(i + 1).is_some_and(|n| n.text == "(")
        };
        if is_call("unwrap") || is_call("expect") {
            push(
                &mut out,
                ids::NO_PANIC_HOT_PATH,
                file,
                t.line,
                format!(
                    "`.{}()` on a serving hot path: propagate the error or \
                     degrade gracefully instead of panicking",
                    t.text
                ),
            );
        } else if PANIC_MACROS.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.text == "!")
        {
            // `debug_assert!`/`assert!` are allowed (they express invariants,
            // and debug_assert compiles out of release serving builds).
            push(
                &mut out,
                ids::NO_PANIC_HOT_PATH,
                file,
                t.line,
                format!("`{}!` on a serving hot path", t.text),
            );
        }
    }
    out
}

/// `no-wall-clock`: flags `Instant`, `SystemTime`, and
/// `std::time::*::now()` mentions. The simulation must derive every
/// timestamp from `Ns` simulated time; a wall-clock read silently breaks
/// replay determinism.
pub fn no_wall_clock(file: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let mask = test_code_mask(&lexed.tokens);
    let mut out = Vec::new();
    for (i, t) in lexed.tokens.iter().enumerate() {
        if mask[i] || t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "Instant" || t.text == "SystemTime" {
            push(
                &mut out,
                ids::NO_WALL_CLOCK,
                file,
                t.line,
                format!(
                    "`{}` inside the simulation: all time must flow from the \
                     simulated `Ns` clock, never the host's",
                    t.text
                ),
            );
        }
    }
    out
}

/// `lock-order`: within each function body, records the order in which
/// distinct named locks are acquired (`x.lock()`, `x.read()`, `x.write()`
/// where `x` is the receiver identifier chain's last segment). Builds a
/// global acquired-before graph across the workspace; a cycle means two
/// functions take the same pair of locks in opposite orders — the classic
/// deadlock and, in the simulator, a source of order-dependent behavior.
///
/// This is a cross-file rule: call [`LockOrder::scan`] per file, then
/// [`LockOrder::finish`].
#[derive(Default)]
pub struct LockOrder {
    /// Edge (a, b) -> first witness: lock a was held when b was acquired.
    edges: BTreeMap<(String, String), (String, u32)>,
}

const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

impl LockOrder {
    /// Scans one file, accumulating acquisition-order edges.
    pub fn scan(&mut self, file: &str, lexed: &Lexed) {
        let tokens = &lexed.tokens;
        let mask = test_code_mask(tokens);
        for body in fn_bodies(tokens, |i| !mask[i]) {
            let mut held: Vec<String> = Vec::new();
            for m in body {
                // receiver . method ( )
                if tokens[m].kind == TokenKind::Ident
                    && LOCK_METHODS.contains(&tokens[m].text.as_str())
                    && m > 1
                    && tokens[m - 1].text == "."
                    && tokens[m - 2].kind == TokenKind::Ident
                    && tokens.get(m + 1).is_some_and(|n| n.text == "(")
                    && tokens.get(m + 2).is_some_and(|n| n.text == ")")
                {
                    let receiver = tokens[m - 2].text.clone();
                    // `.read()`/`.write()` are everywhere (io, channels);
                    // only receivers that *name* a lock participate.
                    let is_lock = tokens[m].text == "lock"
                        || receiver.ends_with("lock")
                        || receiver.ends_with("mutex")
                        || receiver.ends_with("rwlock");
                    if is_lock {
                        for h in &held {
                            if h != &receiver {
                                self.edges
                                    .entry((h.clone(), receiver.clone()))
                                    .or_insert_with(|| (file.to_string(), tokens[m].line));
                            }
                        }
                        held.push(receiver);
                    }
                }
            }
        }
    }

    /// Reports one diagnostic per opposite-order lock pair.
    pub fn finish(self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for ((a, b), (file, line)) in &self.edges {
            if a < b {
                if let Some((file2, line2)) = self.edges.get(&(b.clone(), a.clone())) {
                    out.push(Diagnostic {
                        rule: ids::LOCK_ORDER,
                        file: file.clone(),
                        line: *line,
                        message: format!(
                            "locks `{a}` and `{b}` are acquired in opposite orders \
                             ({file}:{line} takes {a} then {b}; {file2}:{line2} takes \
                             {b} then {a}): pick one global order"
                        ),
                    });
                }
            }
        }
        out
    }
}

/// `cost-constants`: every `pub` field of the configured structs in the
/// spec file must be mentioned by name in the design doc. The cost model
/// is the simulator's ground truth; an undocumented constant is an
/// uncalibrated one.
pub fn cost_constants(
    spec_file: &str,
    lexed: &Lexed,
    structs: &[String],
    doc_file: &str,
    doc_text: &str,
) -> Vec<Diagnostic> {
    let tokens = &lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        // pub struct Name {
        if tokens[i].text == "pub"
            && tokens.get(i + 1).is_some_and(|t| t.text == "struct")
            && tokens
                .get(i + 2)
                .is_some_and(|t| structs.iter().any(|s| s == &t.text))
        {
            let mut k = i + 3;
            while k < tokens.len() && tokens[k].text != "{" {
                k += 1;
            }
            if k >= tokens.len() {
                break;
            }
            let close_depth = tokens[k].depth + 1;
            let mut m = k + 1;
            while m < tokens.len() {
                if tokens[m].text == "}" && tokens[m].depth == close_depth {
                    break;
                }
                // pub field_name :
                if tokens[m].text == "pub"
                    && tokens
                        .get(m + 1)
                        .is_some_and(|t| t.kind == TokenKind::Ident)
                    && tokens.get(m + 2).is_some_and(|t| t.text == ":")
                {
                    let field = &tokens[m + 1];
                    if !doc_text.contains(&field.text) {
                        out.push(Diagnostic {
                            rule: ids::COST_CONSTANTS,
                            file: spec_file.to_string(),
                            line: field.line,
                            message: format!(
                                "cost-model constant `{}::{}` is not referenced in \
                                 {doc_file}: document its calibration",
                                tokens[i + 2].text,
                                field.text
                            ),
                        });
                    }
                    m += 3;
                    continue;
                }
                m += 1;
            }
            i = m;
            continue;
        }
        i += 1;
    }
    out
}

/// `condvar-wait-loop`: a `Condvar::wait`/`wait_timeout` call (any
/// `.wait(x)`-shaped call with an argument — `Barrier::wait()` takes
/// none) must sit inside a `while` or `loop` body, so the woken thread
/// re-checks its predicate: between `notify` and wakeup another thread
/// can barge in and invalidate the condition (`fleche-verify`'s
/// `queue/if-wait` mutant is the schedule that breaks the `if` form).
/// `wait_while`/`wait_timeout_while` re-check internally and are exempt.
pub fn condvar_wait_loop(file: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let tokens = &lexed.tokens;
    let mask = test_code_mask(tokens);
    let mut out = Vec::new();
    // Block-kind stack: does the innermost-to-outermost chain of open
    // braces contain a `while` or `loop` body?
    let mut stack: Vec<bool> = Vec::new();
    let mut pending_loop = false;
    for (i, t) in tokens.iter().enumerate() {
        match t.text.as_str() {
            "while" | "loop" => pending_loop = true,
            ";" => pending_loop = false,
            "{" => {
                stack.push(pending_loop);
                pending_loop = false;
            }
            "}" => {
                stack.pop();
                pending_loop = false;
            }
            "wait" | "wait_timeout" => {
                if mask[i]
                    || t.kind != TokenKind::Ident
                    || i == 0
                    || tokens[i - 1].text != "."
                    || tokens.get(i + 1).is_none_or(|n| n.text != "(")
                    || tokens.get(i + 2).is_none_or(|n| n.text == ")")
                {
                    continue;
                }
                if !stack.iter().any(|&l| l) {
                    push(
                        &mut out,
                        ids::CONDVAR_WAIT_LOOP,
                        file,
                        t.line,
                        format!(
                            "`.{}(..)` outside a `while`/`loop` re-check: a woken \
                             waiter must re-test its predicate (another thread can \
                             barge in between notify and wakeup)",
                            t.text
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    out
}

/// Default batch-execution calls for `lock-across-await-free-hot-path`
/// (override with a `hot_calls` list in the config).
pub(crate) const DEFAULT_HOT_CALLS: [&str; 5] = [
    "execute",
    "run_batch",
    "run_batch_prepared",
    "query_batch",
    "query_batch_prepared",
];

/// `lock-across-await-free-hot-path`: no lock guard may be live across a
/// batch-execution call. The serving path has no `await`, so a held
/// guard blocks every sibling worker for a whole device batch — the
/// convoy the sharded queue exists to avoid. Guards are `let`-bound
/// lock acquisitions (same receiver heuristic as `lock-order`); they die
/// at end of scope or an explicit `drop(guard)`.
pub fn lock_across_hot_path(file: &str, lexed: &Lexed, hot_calls: &[String]) -> Vec<Diagnostic> {
    let tokens = &lexed.tokens;
    let mask = test_code_mask(tokens);
    let mut out = Vec::new();
    // Live guards: (name, brace depth of the binding).
    let mut guards: Vec<(String, u32)> = Vec::new();
    // Ident bound by the `let` currently being scanned, if any.
    let mut binding: Option<String> = None;
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] {
            continue;
        }
        match t.text.as_str() {
            "let" => {
                let mut k = i + 1;
                while tokens.get(k).is_some_and(|n| n.text == "mut") {
                    k += 1;
                }
                binding = tokens
                    .get(k)
                    .filter(|n| n.kind == TokenKind::Ident)
                    .map(|n| n.text.clone());
            }
            ";" => binding = None,
            "}" => guards.retain(|&(_, d)| d < t.depth),
            "drop" if tokens.get(i + 1).is_some_and(|n| n.text == "(") => {
                if let Some(victim) = tokens.get(i + 2) {
                    guards.retain(|(name, _)| name != &victim.text);
                }
            }
            _ => {}
        }
        // A lock acquisition bound by the pending `let`.
        if LOCK_METHODS.contains(&t.text.as_str())
            && i > 1
            && tokens[i - 1].text == "."
            && tokens[i - 2].kind == TokenKind::Ident
            && tokens.get(i + 1).is_some_and(|n| n.text == "(")
            && tokens.get(i + 2).is_some_and(|n| n.text == ")")
        {
            let receiver = &tokens[i - 2].text;
            let is_lock = t.text == "lock"
                || receiver.ends_with("lock")
                || receiver.ends_with("mutex")
                || receiver.ends_with("rwlock");
            if is_lock {
                if let Some(name) = binding.take() {
                    guards.push((name, t.depth));
                }
            }
        }
        // A hot call while any guard is live.
        if t.kind == TokenKind::Ident
            && hot_calls.iter().any(|h| h == &t.text)
            && i > 0
            && tokens[i - 1].text == "."
            && tokens.get(i + 1).is_some_and(|n| n.text == "(")
        {
            if let Some((guard, _)) = guards.first() {
                push(
                    &mut out,
                    ids::LOCK_ACROSS_HOT_PATH,
                    file,
                    t.line,
                    format!(
                        "`.{}(..)` called while lock guard `{guard}` is live: \
                         release (or `drop`) the guard before running a batch, \
                         or every sibling worker convoys behind this one",
                        t.text
                    ),
                );
            }
        }
    }
    out
}

/// The index in `mutators` of the method called at `tokens[m]`, when the
/// tokens there read `<receiver>.<mutator>(` with a receiver whose name
/// ends in `receiver`.
fn mutator_call(tokens: &[Token], m: usize, receiver: &str, mutators: &[String]) -> Option<usize> {
    let t = &tokens[m];
    if t.kind != TokenKind::Ident
        || m < 2
        || tokens[m - 1].text != "."
        || tokens[m - 2].kind != TokenKind::Ident
        || !tokens[m - 2].text.ends_with(receiver)
        || tokens.get(m + 1).is_none_or(|n| n.text != "(")
    {
        return None;
    }
    mutators.iter().position(|mu| mu == &t.text)
}

/// Sets `called[i]` when some non-test `<receiver>.<mutators[i]>(` call
/// in `lexed` matches entry `i`. Across the rule's paths, an entry no call
/// matches is dead: a rename left the rule blind to the method, which the
/// run reports like a stale allow.
pub fn mark_mutators_called(
    lexed: &Lexed,
    receiver: &str,
    mutators: &[String],
    called: &mut [bool],
) {
    let mask = test_code_mask(&lexed.tokens);
    for m in (0..lexed.tokens.len()).filter(|&m| !mask[m]) {
        if let Some(i) = mutator_call(&lexed.tokens, m, receiver, mutators) {
            called[i] = true;
        }
    }
}

/// `slot-resource-coverage`: any function that calls a configured
/// cache-mutating method on a cache-named receiver must also mention a
/// race-checker resource declaration (`slot_resource`/`ledger_resource`)
/// somewhere in its body — otherwise the dynamic race checker is blind
/// to those slot writes and its replay proves nothing about them.
pub fn slot_resource_coverage(
    file: &str,
    lexed: &Lexed,
    receiver: &str,
    mutators: &[String],
    markers: &[String],
) -> Vec<Diagnostic> {
    let tokens = &lexed.tokens;
    let mask = test_code_mask(tokens);
    let mut out = Vec::new();
    for body in fn_bodies(tokens, |i| !mask[i]) {
        // The first mutation call in this fn, and whether any
        // resource-declaration marker appears.
        let declared = body.clone().any(|m| {
            tokens[m].kind == TokenKind::Ident && markers.iter().any(|mk| mk == &tokens[m].text)
        });
        let first = body
            .into_iter()
            .find(|&m| mutator_call(tokens, m, receiver, mutators).is_some());
        if let (Some(m), false) = (first, declared) {
            push(
                &mut out,
                ids::SLOT_RESOURCE_COVERAGE,
                file,
                tokens[m].line,
                format!(
                    "`{}.{}(..)` mutates cache slots, but the enclosing function \
                     declares no {} resource: the race checker cannot see these \
                     writes",
                    tokens[m - 2].text,
                    tokens[m].text,
                    markers.join("/")
                ),
            );
        }
    }
    out
}

/// `target-feature-guard`: a `#[target_feature(enable = ...)]` function
/// compiles against an ISA the host may not have, so every call site must
/// be dominated by a runtime `is_x86_feature_detected!` check of each
/// feature it enables — calling one on a CPU without a feature is
/// immediate undefined behavior, not a graceful fallback. Token-level
/// analysis is per-file, so the rule enforces the two properties that
/// keep per-file reasoning sound:
///
/// 1. a `#[target_feature]` fn must not be bare-`pub` (restricted forms
///    like `pub(super)` are fine when the module is file-local): an
///    exported specialization can be called from files this pass never
///    correlates with a guard;
/// 2. any function in the same file that calls a `#[target_feature]` fn
///    must name every feature in the callee's `enable = "…"` list, either
///    in an `is_x86_feature_detected!("…")` in its body or in its own
///    `enable` list (a `#[target_feature]` caller already runs only where
///    its features are proven). An `avx2` check does not guard an
///    AVX-512 call.
///
/// Test modules are *not* exempt here — a test calling an AVX2 fn
/// unguarded SIGILLs the suite on older hardware just as surely.
pub fn target_feature_guard(file: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let tokens = &lexed.tokens;
    let mut out = Vec::new();
    // Pass 1: collect every `#[target_feature]` fn — its name, the
    // features it enables, and the token index of its `fn` keyword (so
    // pass 2 can credit those features to its own body).
    let mut tf_fns: Vec<(String, Vec<String>)> = Vec::new();
    let mut tf_fn_tokens: Vec<usize> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let is_attr = tokens[i].text == "target_feature"
            && i >= 2
            && tokens[i - 1].text == "["
            && tokens[i - 2].text == "#";
        if !is_attr {
            i += 1;
            continue;
        }
        // rustc accepts only `enable = "<comma-separated list>"` here; an
        // unreadable list enables `?`, which no check can prove.
        let features = if matches(tokens, i + 1, &["(", "enable", "="]) {
            lexed.string_at(i + 4)
        } else {
            None
        }
        .map_or_else(
            || vec!["?".to_string()],
            |list| list.split(',').map(|f| f.trim().to_string()).collect(),
        );
        // Walk the rest of the item header (attributes stack) for the
        // visibility and the `fn` name.
        let mut is_pub = false;
        let mut j = i + 1;
        let mut name_idx: Option<usize> = None;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "pub" => {
                    // `pub(super)` / `pub(crate)` keep the fn inside the
                    // module tree this file defines; bare `pub` does not.
                    if tokens.get(j + 1).is_none_or(|n| n.text != "(") {
                        is_pub = true;
                    }
                    j += 1;
                }
                "fn" => {
                    name_idx = Some(j + 1);
                    break;
                }
                "{" | "}" | ";" => break,
                _ => j += 1,
            }
        }
        let Some(ni) = name_idx else {
            i += 1;
            continue;
        };
        let name = tokens[ni].text.clone();
        if is_pub {
            push(
                &mut out,
                ids::TARGET_FEATURE_GUARD,
                file,
                tokens[ni].line,
                format!(
                    "`#[target_feature]` fn `{name}` is exported as `pub`: callers \
                     in other files can bypass the CPU-feature guard; keep \
                     feature-specialized fns file-private behind a detecting \
                     dispatcher"
                ),
            );
        }
        tf_fns.push((name, features));
        tf_fn_tokens.push(ni - 1);
        i = ni + 1;
    }
    if tf_fns.is_empty() {
        return out;
    }
    // Pass 2: every fn body that calls a `#[target_feature]` fn must have
    // proven each of the callee's features: by enabling it itself, or by a
    // runtime check somewhere in that body.
    let mut check = |body: Range<usize>, enabled: &[String]| {
        let mut proven: Vec<&str> = enabled.iter().map(String::as_str).collect();
        let mut calls: Vec<(u32, &str, &[String])> = Vec::new();
        for m in body {
            let t = &tokens[m];
            if t.kind != TokenKind::Ident {
                continue;
            }
            if t.text == "is_x86_feature_detected" && matches(tokens, m + 1, &["!", "("]) {
                proven.extend(lexed.string_at(m + 3));
            } else if tokens.get(m + 1).is_some_and(|n| n.text == "(") {
                if let Some((name, features)) = tf_fns.iter().find(|(n, _)| *n == t.text) {
                    calls.push((t.line, name, features));
                }
            }
        }
        for (line, name, features) in calls {
            let missing: Vec<&str> = features
                .iter()
                .map(String::as_str)
                .filter(|f| !proven.contains(f))
                .collect();
            if !missing.is_empty() {
                push(
                    &mut out,
                    ids::TARGET_FEATURE_GUARD,
                    file,
                    line,
                    format!(
                        "`{name}(..)` is a `#[target_feature]` fn enabling `{}`, but \
                         the calling function never checks `is_x86_feature_detected!` \
                         for it: on a CPU without the feature this call is undefined \
                         behavior",
                        missing.join(",")
                    ),
                );
            }
        }
    };
    for (&f, (_, enabled)) in tf_fn_tokens.iter().zip(&tf_fns) {
        for body in fn_bodies(tokens, |m| m == f) {
            check(body, enabled);
        }
    }
    for body in fn_bodies(tokens, |m| !tf_fn_tokens.contains(&m)) {
        check(body, &[]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn hash_rule_flags_raw_mentions() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        let d = hash_iteration("x.rs", &lex(src));
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].line, 1);
        // Rules emit raw diagnostics; `run` filters inline allows
        // centrally (so it can flag the stale ones).
        let src = "// analyzer: allow(hash-iteration)\nuse std::collections::HashSet;";
        assert_eq!(hash_iteration("x.rs", &lex(src)).len(), 1);
    }

    #[test]
    fn hash_rule_skips_tests_strings_and_comments() {
        let src = r#"
fn f() { let s = "HashMap"; } // HashMap in comment
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn g() { let _m: HashMap<u8, u8> = HashMap::new(); }
}
"#;
        assert!(hash_iteration("x.rs", &lex(src)).is_empty());
    }

    #[test]
    fn panic_rule_flags_calls_and_macros() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g() { panic!(\"boom\"); }\nfn h(r: Result<u8, u8>) { r.expect(\"msg\"); }";
        let d = no_panic_hot_path("x.rs", &lex(src));
        let rules: Vec<u32> = d.iter().map(|d| d.line).collect();
        assert_eq!(rules, vec![1, 2, 3]);
    }

    #[test]
    fn panic_rule_ignores_idents_named_unwrap_and_asserts() {
        // `unwrap_or`, a fn called `unwrap` without a receiver, and
        // debug_assert! are all fine.
        let src =
            "fn f(x: Option<u8>) { x.unwrap_or(0); unwrap(); debug_assert!(true); assert!(true); }";
        assert!(no_panic_hot_path("x.rs", &lex(src)).is_empty());
    }

    #[test]
    fn wall_clock_rule() {
        let src = "fn f() { let t = Instant::now(); }";
        let d = no_wall_clock("x.rs", &lex(src));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("Instant"));
        assert!(no_wall_clock("x.rs", &lex("fn f() { now(); }")).is_empty());
    }

    #[test]
    fn lock_order_detects_inversion() {
        let mut lo = LockOrder::default();
        lo.scan(
            "a.rs",
            &lex("fn f(a: M, b: M) { let g1 = alock.lock(); let g2 = block.lock(); }"),
        );
        lo.scan(
            "b.rs",
            &lex("fn g(a: M, b: M) { let g2 = block.lock(); let g1 = alock.lock(); }"),
        );
        let d = lo.finish();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, ids::LOCK_ORDER);
        assert!(d[0].message.contains("opposite orders"));
    }

    #[test]
    fn lock_order_consistent_is_clean() {
        let mut lo = LockOrder::default();
        lo.scan(
            "a.rs",
            &lex("fn f() { let g1 = alock.lock(); let g2 = block.lock(); }\nfn g() { let g1 = alock.lock(); let g2 = block.lock(); }"),
        );
        assert!(lo.finish().is_empty());
    }

    #[test]
    fn lock_order_ignores_plain_io_read_write() {
        let mut lo = LockOrder::default();
        lo.scan(
            "a.rs",
            &lex("fn f() { file.read(); sock.write(); }\nfn g() { sock.write(); file.read(); }"),
        );
        assert!(lo.finish().is_empty());
    }

    #[test]
    fn lock_order_rwlock_receivers_participate() {
        let mut lo = LockOrder::default();
        lo.scan(
            "a.rs",
            &lex("fn f() { index_rwlock.read(); pool_mutex.lock(); }"),
        );
        lo.scan(
            "b.rs",
            &lex("fn g() { pool_mutex.lock(); index_rwlock.write(); }"),
        );
        assert_eq!(lo.finish().len(), 1);
    }

    #[test]
    fn cost_constants_flags_undocumented_fields() {
        let spec = "pub struct DeviceSpec { pub hbm_bandwidth: f64, pub warp_size: u32 }";
        let doc = "The `hbm_bandwidth` constant comes from Table 1.";
        let d = cost_constants(
            "spec.rs",
            &lex(spec),
            &["DeviceSpec".to_string()],
            "DESIGN.md",
            doc,
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("warp_size"));
        // Documenting it clears the finding.
        let doc2 = format!("{doc} And `warp_size` is 32.");
        assert!(cost_constants(
            "spec.rs",
            &lex(spec),
            &["DeviceSpec".to_string()],
            "DESIGN.md",
            &doc2
        )
        .is_empty());
    }

    #[test]
    fn condvar_wait_outside_a_loop_is_flagged() {
        // `if`-gated wait: the classic lost-wakeup shape.
        let src = "fn f() { if full { guard = cv.wait(guard); } }";
        let d = condvar_wait_loop("x.rs", &lex(src));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("re-check"));
        // The same wait inside a while re-check is fine, directly or in
        // a nested block.
        let ok = "fn f() { while full { guard = cv.wait(guard); } }";
        assert!(condvar_wait_loop("x.rs", &lex(ok)).is_empty());
        let nested = "fn f() { loop { if closed { return; } g = cv.wait(g); } }";
        assert!(condvar_wait_loop("x.rs", &lex(nested)).is_empty());
    }

    #[test]
    fn condvar_rule_exempts_barrier_and_wait_while() {
        // Barrier::wait takes no argument; wait_while re-checks itself.
        let src = "fn f() { barrier.wait(); g = cv.wait_while(g, |s| s.full); }";
        assert!(condvar_wait_loop("x.rs", &lex(src)).is_empty());
    }

    #[test]
    fn guard_across_hot_call_is_flagged() {
        let hot: Vec<String> = DEFAULT_HOT_CALLS.iter().map(|s| s.to_string()).collect();
        let src = "fn f() { let g = queue_mutex.lock(); engine.run_batch(&b); }";
        let d = lock_across_hot_path("x.rs", &lex(src), &hot);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("`g`"));
        // Dropping the guard first, or scoping it, is fine.
        let ok = "fn f() { let g = queue_mutex.lock(); drop(g); engine.run_batch(&b); }";
        assert!(lock_across_hot_path("x.rs", &lex(ok), &hot).is_empty());
        let scoped = "fn f() { { let g = queue_mutex.lock(); } engine.run_batch(&b); }";
        assert!(lock_across_hot_path("x.rs", &lex(scoped), &hot).is_empty());
    }

    #[test]
    fn non_lock_receivers_do_not_create_guards() {
        let hot: Vec<String> = DEFAULT_HOT_CALLS.iter().map(|s| s.to_string()).collect();
        let src = "fn f() { let d = file.read(); engine.run_batch(&b); }";
        assert!(lock_across_hot_path("x.rs", &lex(src), &hot).is_empty());
    }

    #[test]
    fn undeclared_cache_mutation_is_flagged() {
        let mutators = vec!["wipe".to_string(), "end_batch_with".to_string()];
        let markers = vec!["slot_resource".to_string()];
        let src = "fn f(&mut self) { self.cache.wipe(); }";
        let d = slot_resource_coverage("x.rs", &lex(src), "cache", &mutators, &markers);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("cache.wipe"));
        // A marker anywhere in the same fn covers it.
        let ok = "fn f(&mut self, rc: &mut R) { rc.host_write(slot_resource(0, 1)); self.cache.wipe(); }";
        assert!(slot_resource_coverage("x.rs", &lex(ok), "cache", &mutators, &markers).is_empty());
        // Mutators on non-cache receivers are out of scope.
        let other = "fn f(&mut self) { self.journal.wipe(); }";
        assert!(
            slot_resource_coverage("x.rs", &lex(other), "cache", &mutators, &markers).is_empty()
        );
    }

    fn mutators_called(src: &str, mutators: &[String]) -> Vec<bool> {
        let mut called = vec![false; mutators.len()];
        mark_mutators_called(&lex(src), "cache", mutators, &mut called);
        called
    }

    #[test]
    fn mutators_called_marks_only_receiver_calls_outside_tests() {
        let mutators = vec![
            "wipe".to_string(),
            "end_batch_with".to_string(),
            "restore".to_string(),
        ];
        // `restore` is named but never called as `cache.restore(`: as a
        // path, on another receiver, and on the cache only in test code.
        let src = "fn f(&mut self) { self.cache.wipe(); Self::restore(); self.dedup.restore(); }\n\
                   #[cfg(test)]\nmod tests { fn t(c: C) { c.cache.restore(); } }";
        assert_eq!(mutators_called(src, &mutators), [true, false, false]);
        let later = "fn g(sys: &mut S) { sys.cache.end_batch_with(|c, s| {}); }";
        assert_eq!(mutators_called(later, &mutators), [false, true, false]);
    }

    #[test]
    fn exported_target_feature_fn_is_flagged() {
        let src = "#[target_feature(enable = \"avx2\")]\npub fn dot_avx2(a: &[f32]) -> f32 { 0.0 }";
        let d = target_feature_guard("x.rs", &lex(src));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("dot_avx2"));
        assert!(d[0].message.contains("pub"));
        // Restricted visibility keeps the fn inside this file's module
        // tree, so the dispatcher correlation below still sees every call.
        let ok = "#[target_feature(enable = \"avx2\")]\npub(super) fn dot_avx2(a: &[f32]) -> f32 { 0.0 }";
        assert!(target_feature_guard("x.rs", &lex(ok)).is_empty());
    }

    #[test]
    fn unguarded_target_feature_call_is_flagged() {
        let tf = "#[target_feature(enable = \"avx2\")]\nfn dot_avx2(a: &[f32]) -> f32 { 0.0 }\n";
        // No runtime check anywhere in the calling fn: flagged.
        let bad = format!("{tf}fn dot(a: &[f32]) -> f32 {{ dot_avx2(a) }}");
        let d = target_feature_guard("x.rs", &lex(&bad));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("dot_avx2"));
        assert!(d[0].message.contains("is_x86_feature_detected"));
        // The dispatcher shape: detected -> specialized, else portable.
        let ok = format!(
            "{tf}fn dot(a: &[f32]) -> f32 {{ if std::arch::is_x86_feature_detected!(\"avx2\") {{ return dot_avx2(a); }} 0.0 }}"
        );
        assert!(target_feature_guard("x.rs", &lex(&ok)).is_empty());
        // A target-feature fn calling another needs no re-check: the
        // caller already only runs once the feature is proven.
        let tf_to_tf = format!(
            "{tf}#[target_feature(enable = \"avx2\")]\nfn sum_avx2(a: &[f32]) -> f32 {{ dot_avx2(a) }}"
        );
        assert!(target_feature_guard("x.rs", &lex(&tf_to_tf)).is_empty());
        // Mentioning the name without calling it (e.g. docs) is fine.
        let mention = format!("{tf}fn dot(a: &[f32]) -> f32 {{ let _ = \"dot_avx2\"; 0.0 }}");
        assert!(target_feature_guard("x.rs", &lex(&mention)).is_empty());
    }

    #[test]
    fn every_enabled_feature_needs_its_own_check() {
        let tf = "#[target_feature(enable = \"avx512f,avx512dq,avx512vl\")]\n\
                  fn fill_avx512(o: &mut [f32]) {}\n";
        let call = |guard: &str| {
            let src = format!("{tf}fn fill(o: &mut [f32]) {{ if {guard} {{ fill_avx512(o); }} }}");
            target_feature_guard("x.rs", &lex(&src))
        };
        let detected = |f: &str| format!("std::arch::is_x86_feature_detected!(\"{f}\")");
        // An AVX2 check does not make an AVX-512 call safe.
        let d = call(&detected("avx2"));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("fill_avx512"));
        assert!(d[0].message.contains("`avx512f,avx512dq,avx512vl`"));
        // Two of the three features leave the third unproven.
        let two = format!("{} && {}", detected("avx512f"), detected("avx512vl"));
        let d = call(&two);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("`avx512dq`"));
        // All three, in any order, guard it.
        let all = format!("{two} && {}", detected("avx512dq"));
        assert!(call(&all).is_empty());
        // A target-feature caller proves only what it enables itself.
        let from_avx2 = format!(
            "{tf}#[target_feature(enable = \"avx2\")]\nfn f_avx2(o: &mut [f32]) {{ fill_avx512(o) }}"
        );
        let d = target_feature_guard("x.rs", &lex(&from_avx2));
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("`avx512f,avx512dq,avx512vl`"));
        let from_avx512 = format!(
            "{tf}#[target_feature(enable = \"avx512dq, avx512vl,avx512f\")]\n\
             fn g(o: &mut [f32]) {{ fill_avx512(o) }}"
        );
        assert!(target_feature_guard("x.rs", &lex(&from_avx512)).is_empty());
    }

    #[test]
    fn cost_constants_ignores_other_structs() {
        let spec = "pub struct Other { pub undocumented: u8 }";
        assert!(cost_constants(
            "spec.rs",
            &lex(spec),
            &["DeviceSpec".to_string()],
            "DESIGN.md",
            ""
        )
        .is_empty());
    }
}
