//! `fleche-verify`: exhaustive schedule-space checking for the serving
//! front-end's one piece of hand-written blocking synchronisation.
//!
//! The crate is a small loom-style model checker (no dependencies
//! beyond `fleche-model`). [`explore`](explore::explore) walks *every*
//! thread interleaving of a modeled protocol — bounded-preemption DFS
//! with a sleep-set partial-order reduction and state-hash memoization —
//! and reports the first invariant violation with the full schedule that
//! produced it.
//!
//! One protocol is modeled: [`queue`], the per-shard bounded queue
//! behind `fleche_model::concurrent::ShardedQueue` (mutex + two
//! condvars). The model runs the shipped lane's critical sections
//! (`fleche_model::concurrent::Lane`) under modeled primitives
//! ([`sync`]), so a bug in the shipped lane is a bug the explorer finds.
//!
//! The property ships with deliberately broken *mutants* — the same
//! model with a seeded wait/signal bug — and the checker must produce a
//! counterexample trace for each. A verifier that cannot fail proves
//! nothing; the mutants are its self-test. `fleche-bench analyze` runs
//! the registry and gates on [`Report::ok`].

pub mod explore;
pub mod queue;
pub mod sync;
pub mod wall;

use explore::{explore, ExploreConfig, ExploreResult};
use queue::{QueueConfig, QueueModel, QueueMutant};

/// A checked protocol property: a faithful model the explorer must pass
/// exhaustively.
pub struct Property {
    /// Stable name, `protocol/invariant`.
    pub name: &'static str,
    run: fn(&ExploreConfig) -> ExploreResult,
}

/// A seeded protocol bug: the same model as its property, broken, which
/// the explorer must fail with a counterexample.
pub struct Mutant {
    /// Stable name, `protocol/bug`.
    pub name: &'static str,
    /// The property whose model this mutates.
    pub property: &'static str,
    /// Substring the counterexample's reason must contain.
    pub expect: &'static str,
    run: fn(&ExploreConfig) -> ExploreResult,
}

impl Property {
    /// Explores the property's model under `config`.
    pub fn run(&self, config: &ExploreConfig) -> ExploreResult {
        (self.run)(config)
    }
}

impl Mutant {
    /// Explores the mutant's model under `config`.
    pub fn run(&self, config: &ExploreConfig) -> ExploreResult {
        (self.run)(config)
    }
}

/// Explores the shipped queue configuration with `mutant` built in.
fn explore_queue(mutant: QueueMutant, config: &ExploreConfig) -> ExploreResult {
    let cfg = QueueConfig {
        mutant,
        ..QueueConfig::default_property()
    };
    explore(&QueueModel::new(cfg), config)
}

/// The shipped properties, in report order.
pub fn properties() -> Vec<Property> {
    vec![Property {
        // Shard queue: capacity respected, per-lane FIFO, every
        // wakeup race drained.
        name: "queue/bounded-fifo-no-lost-wakeup",
        run: |c| explore_queue(QueueMutant::None, c),
    }]
}

/// The shipped mutants, in report order.
pub fn mutants() -> Vec<Mutant> {
    vec![
        Mutant {
            name: "queue/if-wait",
            property: "queue/bounded-fifo-no-lost-wakeup",
            expect: "not re-checked",
            run: |c| explore_queue(QueueMutant::IfWait, c),
        },
        Mutant {
            name: "queue/missing-notify",
            property: "queue/bounded-fifo-no-lost-wakeup",
            expect: "deadlock",
            run: |c| explore_queue(QueueMutant::MissingNotify, c),
        },
    ]
}

/// Outcome of one property run.
pub struct PropertyOutcome {
    /// The property.
    pub name: &'static str,
    /// Explorer counters.
    pub stats: explore::ExploreStats,
    /// A counterexample, if the property (unexpectedly) failed.
    pub failure: Option<explore::Failure>,
    /// Wall time, milliseconds (JSON only — not deterministic).
    pub wall_ms: f64,
}

/// Outcome of one mutant run.
pub struct MutantOutcome {
    /// The mutant.
    pub name: &'static str,
    /// The property it mutates.
    pub property: &'static str,
    /// Substring the counterexample must contain.
    pub expect: &'static str,
    /// Explorer counters.
    pub stats: explore::ExploreStats,
    /// The counterexample (absence means the mutant survived — a
    /// checker bug).
    pub failure: Option<explore::Failure>,
    /// Wall time, milliseconds.
    pub wall_ms: f64,
}

impl MutantOutcome {
    /// True when the checker caught the seeded bug with the expected
    /// counterexample.
    pub fn caught(&self) -> bool {
        self.failure
            .as_ref()
            .is_some_and(|f| f.reason.contains(self.expect))
    }
}

/// Every property and mutant, run to completion.
pub struct Report {
    /// Property outcomes, in registry order.
    pub properties: Vec<PropertyOutcome>,
    /// Mutant outcomes, in registry order.
    pub mutants: Vec<MutantOutcome>,
}

impl Report {
    /// True when every property passed and every mutant was caught.
    pub fn ok(&self) -> bool {
        self.properties.iter().all(|p| p.failure.is_none())
            && self.mutants.iter().all(MutantOutcome::caught)
    }
}

/// Runs the full registry under `config`.
pub fn run_all(config: &ExploreConfig) -> Report {
    let properties = properties()
        .into_iter()
        .map(|p| {
            let timer = wall::WallTimer::new();
            let r = p.run(config);
            PropertyOutcome {
                name: p.name,
                stats: r.stats,
                failure: r.failure,
                wall_ms: timer.elapsed_ms(),
            }
        })
        .collect();
    let mutants = mutants()
        .into_iter()
        .map(|m| {
            let timer = wall::WallTimer::new();
            let r = m.run(config);
            MutantOutcome {
                name: m.name,
                property: m.property,
                expect: m.expect,
                stats: r.stats,
                failure: r.failure,
                wall_ms: timer.elapsed_ms(),
            }
        })
        .collect();
    Report {
        properties,
        mutants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_registry_is_green() {
        let report = run_all(&ExploreConfig::default());
        for p in &report.properties {
            assert!(
                p.failure.is_none(),
                "{} failed:\n{}",
                p.name,
                p.failure.as_ref().unwrap().render()
            );
        }
        for m in &report.mutants {
            assert!(m.caught(), "mutant {} survived exploration", m.name);
        }
        assert!(report.ok());
    }

    #[test]
    fn every_mutant_names_a_registered_property() {
        let names: Vec<&str> = properties().iter().map(|p| p.name).collect();
        for m in mutants() {
            assert!(names.contains(&m.property), "{} orphaned", m.name);
        }
    }
}
