//! Property tests for the `fleche-verify` model checker itself.
//!
//! Two obligations beyond the per-model unit tests:
//!
//! * **Determinism** — exploration is a pure function of the model and
//!   the config: two runs over the same randomized configuration must
//!   produce bit-identical counters and the same verdict (same failure
//!   reason, same counterexample length). The explorer's memo table and
//!   sleep sets use hashing internally, so this is worth checking — an
//!   iteration-order leak would make counterexamples irreproducible.
//! * **Self-test under randomization** — the shipped mutants must die
//!   with a non-empty counterexample trace, and the faithful queue model
//!   must pass exhaustively for every small configuration, not just the
//!   shipped one.

use fleche_verify::explore::{explore, ExploreConfig, ExploreResult, Model};
use fleche_verify::queue;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Runs the explorer twice over the same model and asserts the runs are
/// indistinguishable; returns the first run for verdict checks.
fn explore_twice(model: &impl Model) -> Result<ExploreResult, TestCaseError> {
    let cfg = ExploreConfig::default();
    let a = explore(model, &cfg);
    let b = explore(model, &cfg);
    prop_assert_eq!(a.stats, b.stats, "explorer counters diverged");
    let (fa, fb) = (&a.failure, &b.failure);
    prop_assert_eq!(
        fa.as_ref().map(|f| &f.reason),
        fb.as_ref().map(|f| &f.reason),
        "verdict diverged"
    );
    prop_assert_eq!(
        fa.as_ref().map(|f| f.trace.len()),
        fb.as_ref().map(|f| f.trace.len()),
        "counterexample length diverged"
    );
    Ok(a)
}

/// Queue configs the model accepts: every lane needs a consumer
/// (`consumers >= lanes`, clamped in the map), small enough to stay well
/// under the state cap.
fn queue_configs() -> impl Strategy<Value = queue::QueueConfig> {
    (1usize..4, 1usize..4, 1usize..3, 0usize..5).prop_map(|(lanes, consumers, capacity, items)| {
        queue::QueueConfig {
            lanes,
            capacity,
            items,
            consumers: consumers.max(lanes),
            mutant: queue::QueueMutant::None,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The faithful queue protocol holds for every small configuration,
    /// and its exploration is deterministic.
    #[test]
    fn queue_exploration_is_deterministic_and_green(cfg in queue_configs()) {
        let r = explore_twice(&queue::QueueModel::new(cfg))?;
        prop_assert!(r.passed(), "{}", r.failure.unwrap().render());
        prop_assert!(r.stats.complete_runs > 0);
    }

    /// A queue mutant's counterexample is also reproduced exactly.
    #[test]
    fn mutant_counterexamples_are_deterministic(
        mutant in prop_oneof![
            Just(queue::QueueMutant::IfWait),
            Just(queue::QueueMutant::MissingNotify),
        ],
    ) {
        let cfg = queue::QueueConfig { mutant, ..queue::QueueConfig::default_property() };
        let r = explore_twice(&queue::QueueModel::new(cfg))?;
        prop_assert!(r.failure.is_some(), "seeded bug survived");
    }
}

/// Every shipped mutant must die with a counterexample whose reason
/// matches the registered expectation and whose trace is a real
/// schedule (non-empty, renderable).
#[test]
fn every_shipped_mutant_dies_with_a_counterexample() {
    let config = ExploreConfig::default();
    for m in fleche_verify::mutants() {
        let r = m.run(&config);
        let f = r
            .failure
            .unwrap_or_else(|| panic!("mutant {} survived exploration", m.name));
        assert!(
            f.reason.contains(m.expect),
            "mutant {}: reason `{}` missing `{}`",
            m.name,
            f.reason,
            m.expect
        );
        assert!(!f.trace.is_empty(), "mutant {}: empty trace", m.name);
        assert!(
            !f.render().is_empty(),
            "mutant {}: unrenderable counterexample",
            m.name
        );
    }
}

/// The full registry is green under the default exploration budget —
/// the same gate CI runs via `fleche-bench analyze`.
#[test]
fn registry_report_is_ok() {
    let report = fleche_verify::run_all(&ExploreConfig::default());
    assert!(report.ok());
    for p in &report.properties {
        assert!(p.stats.complete_runs > 0, "{} explored nothing", p.name);
    }
}
