//! Online embedding updates: the trainer-push stream and versioned
//! procedural ground truth.
//!
//! Production DLRM serving ingests a continuous stream of embedding
//! updates from training. This module models that stream the same way
//! [`crate::table`] models the frozen tables: *procedurally* — the value
//! of `(table, id)` at version `v` is a pure function of all three, so an
//! oracle can verify any served row bit-exactly against any version
//! without materializing a parameter server. Version 0 is identical to
//! [`crate::embedding_value`], so a never-updated key serves the frozen
//! table unchanged.
//!
//! Two pieces:
//!
//! * [`VersionLedger`] — the parameter-server-side version table: the
//!   latest *committed* version per key. Commits are monotonic
//!   (max-merge), so duplicated or reordered pushes are idempotent.
//! * [`UpdateStream`] — a seeded, deterministic trainer: each burst picks
//!   keys (optionally biased toward a supplied hot set, the rows actively
//!   being trained on) and bumps their versions by one. The stream owns
//!   the trainer-side truth ledger that drill oracles compare against.

use crate::dedup::mix;
use fleche_workload::DatasetSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministically fills `out` with the embedding of `(table, id)` at
/// update version `version`.
///
/// The value is `fleche_simd::unit_fill` over a SplitMix64 base keyed by
/// `(table, id)` and salted with the version, so every component changes
/// from one version to the next; version 0 adds nothing to the base and
/// is [`crate::embedding_value`] by construction. This *is* the stored
/// value of the embedding after `version` trainer pushes.
pub fn versioned_embedding_value(table: u16, id: u64, version: u64, out: &mut [f32]) {
    let base = (table as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(id.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(version.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    fleche_simd::unit_fill(base, out);
}

/// One trainer push: "the embedding of `(table, id)` is now at
/// `version`". The value itself is procedural (see
/// [`versioned_embedding_value`]), so a push is just the version fact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdatePush {
    /// Table the updated embedding belongs to.
    pub table: u16,
    /// Feature id within the table.
    pub id: u64,
    /// Monotonic per-key version this push advances the key to.
    pub version: u64,
}

/// Marks an unclaimed entry of the ledger's table. Tables are `u16`, so
/// no key carries it.
const VACANT: u32 = u32::MAX;

/// One entry of the ledger's table. A vacant entry reads as version 0,
/// which is what [`VersionLedger::get`] returns for an absent key.
#[derive(Clone, Copy, Debug)]
struct Entry {
    table: u32,
    id: u64,
    version: u64,
}

const EMPTY: Entry = Entry {
    table: VACANT,
    id: 0,
    version: 0,
};

/// The table's capacity at the first commit.
const MIN_CAPACITY: usize = 16;

/// The latest committed version per key — the parameter server's version
/// table. Commits max-merge, so replaying a duplicated or reordered push
/// stream converges to the same ledger.
///
/// A flat open-addressing table keyed by `(table, id)`, built like
/// [`crate::Deduped`]'s: power-of-two capacity, at most half full, linear
/// probing from the key's SplitMix64 bucket, doubled when a commit could
/// pass half. A probe is one hashed load into a short run, the price the
/// cost model's `ledger_probe_ns` charges. Nothing walks the table:
/// [`VersionLedger::max_version`] is kept as commits land.
#[derive(Clone, Debug, Default)]
pub struct VersionLedger {
    entries: Vec<Entry>,
    len: usize,
    max_version: u64,
    commits: u64,
}

impl VersionLedger {
    /// An empty ledger (every key at version 0).
    pub fn new() -> VersionLedger {
        VersionLedger::default()
    }

    /// Index of `(table, id)`'s entry, or of the vacant entry where it
    /// would go. The table must be allocated and have a vacancy, which
    /// the half-full bound guarantees.
    fn find(&self, table: u16, id: u64) -> usize {
        let mask = self.entries.len() - 1;
        let shift = 64 - self.entries.len().trailing_zeros();
        let mut at = (mix(table, id) >> shift) as usize;
        loop {
            let e = &self.entries[at];
            if e.table == VACANT || (e.table == u32::from(table) && e.id == id) {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the table (or allocates it) and re-places every entry.
    fn grow(&mut self) {
        let capacity = (self.entries.len() * 2).max(MIN_CAPACITY);
        let old = std::mem::replace(&mut self.entries, vec![EMPTY; capacity]);
        for e in old.into_iter().filter(|e| e.table != VACANT) {
            let at = self.find(e.table as u16, e.id);
            self.entries[at] = e;
        }
    }

    /// Commits one push. Returns true when the ledger advanced (the push
    /// was newer than what was recorded); a duplicate or out-of-date push
    /// is a no-op, which is what makes replays idempotent.
    pub fn commit(&mut self, push: &UpdatePush) -> bool {
        self.commits += 1;
        if (self.len + 1) * 2 > self.entries.len() {
            self.grow();
        }
        let at = self.find(push.table, push.id);
        let e = &mut self.entries[at];
        if e.table == VACANT {
            e.table = u32::from(push.table);
            e.id = push.id;
            self.len += 1;
        }
        if push.version > e.version {
            e.version = push.version;
            self.max_version = self.max_version.max(push.version);
            true
        } else {
            false
        }
    }

    /// Latest committed version of `(table, id)`; 0 when never updated.
    pub fn get(&self, table: u16, id: u64) -> u64 {
        if self.entries.is_empty() {
            return 0;
        }
        self.entries[self.find(table, id)].version
    }

    /// Number of distinct keys committed so far, a key committed only at
    /// version 0 included.
    pub fn tracked_keys(&self) -> usize {
        self.len
    }

    /// Total commit calls (including idempotent no-ops).
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// The largest version any key has reached.
    pub fn max_version(&self) -> u64 {
        self.max_version
    }
}

/// A seeded, deterministic trainer-push generator.
///
/// Each burst samples keys and advances their versions by exactly one in
/// the stream's own truth ledger, then emits the corresponding pushes.
/// The same seed always produces the same push sequence, so two drill
/// runs replay identically.
pub struct UpdateStream {
    rng: StdRng,
    corpora: Vec<u64>,
    truth: VersionLedger,
    total: u64,
}

impl UpdateStream {
    /// A stream over the dataset's tables, seeded independently of every
    /// other RNG domain in the system.
    pub fn new(spec: &DatasetSpec, seed: u64) -> UpdateStream {
        UpdateStream {
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_0B57_1234_77AA),
            corpora: spec.tables.iter().map(|t| t.corpus).collect(),
            truth: VersionLedger::new(),
            total: 0,
        }
    }

    /// Generates `n` pushes over uniformly sampled keys (background
    /// churn over the whole corpus).
    pub fn next_burst(&mut self, n: usize) -> Vec<UpdatePush> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let t = self.rng.gen_range(0..self.corpora.len()) as u16;
            let id = self.rng.gen_range(0..self.corpora[t as usize].max(1));
            out.push(self.bump(t, id));
        }
        out
    }

    /// Generates `n` pushes biased toward the front of `hot` (a
    /// hottest-first key list, e.g. [`fleche_workload::WorkloadStats::hottest`]):
    /// the rows a trainer touches most are the rows serving touches most.
    /// Falls back to uniform sampling when `hot` is empty.
    pub fn next_burst_from(&mut self, hot: &[(u16, u64)], n: usize) -> Vec<UpdatePush> {
        if hot.is_empty() {
            return self.next_burst(n);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let u: f64 = self.rng.gen();
            let idx = ((u * u) * hot.len() as f64) as usize;
            let (t, id) = hot[idx.min(hot.len() - 1)];
            out.push(self.bump(t, id));
        }
        out
    }

    fn bump(&mut self, table: u16, id: u64) -> UpdatePush {
        let version = self.truth.get(table, id) + 1;
        let push = UpdatePush { table, id, version };
        self.truth.commit(&push);
        self.total += 1;
        push
    }

    /// The trainer-side truth ledger (what drill oracles compare served
    /// versions against).
    pub fn truth(&self) -> &VersionLedger {
        &self.truth
    }

    /// Latest version the trainer has pushed for `(table, id)`.
    pub fn version_of(&self, table: u16, id: u64) -> u64 {
        self.truth.get(table, id)
    }

    /// Total pushes generated so far.
    pub fn total_pushed(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::embedding_value;
    use fleche_workload::spec;
    use std::collections::BTreeMap;

    #[test]
    fn version_zero_matches_frozen_table() {
        for (t, id) in [(0u16, 0u64), (3, 17), (1, 999)] {
            let mut frozen = vec![0.0f32; 16];
            let mut v0 = vec![0.0f32; 16];
            embedding_value(t, id, &mut frozen);
            versioned_embedding_value(t, id, 0, &mut v0);
            assert_eq!(frozen, v0, "version 0 must be the frozen value");
        }
    }

    #[test]
    fn versions_change_every_component() {
        let mut a = vec![0.0f32; 32];
        let mut b = vec![0.0f32; 32];
        versioned_embedding_value(2, 5, 1, &mut a);
        versioned_embedding_value(2, 5, 2, &mut b);
        assert!(
            a.iter().zip(&b).all(|(x, y)| x != y),
            "adjacent versions must differ in every component"
        );
    }

    #[test]
    fn ledger_commits_are_idempotent_and_monotonic() {
        let mut l = VersionLedger::new();
        let p2 = UpdatePush {
            table: 1,
            id: 9,
            version: 2,
        };
        let p1 = UpdatePush {
            table: 1,
            id: 9,
            version: 1,
        };
        assert!(l.commit(&p2));
        assert!(!l.commit(&p2), "duplicate push is a no-op");
        assert!(!l.commit(&p1), "reordered stale push is a no-op");
        assert_eq!(l.get(1, 9), 2);
        assert_eq!(l.tracked_keys(), 1);
        assert_eq!(l.max_version(), 2);
        assert_eq!(l.commits(), 3);
    }

    #[test]
    fn stream_is_deterministic_and_monotonic_per_key() {
        let ds = spec::synthetic(4, 1_000, 8, -1.2);
        let run = |seed: u64| {
            let mut s = UpdateStream::new(&ds, seed);
            let mut all = Vec::new();
            for _ in 0..10 {
                all.extend(s.next_burst(50));
            }
            all
        };
        assert_eq!(run(7), run(7), "same seed replays identically");
        assert_ne!(run(7), run(8), "different seeds diverge");
        let pushes = run(7);
        let mut seen: BTreeMap<(u16, u64), u64> = BTreeMap::new();
        for p in &pushes {
            let prev = seen.entry((p.table, p.id)).or_insert(0);
            assert_eq!(p.version, *prev + 1, "per-key versions advance by one");
            *prev = p.version;
        }
    }

    #[test]
    fn hot_burst_prefers_the_front_of_the_hot_set() {
        let ds = spec::synthetic(2, 10_000, 8, -1.2);
        let mut s = UpdateStream::new(&ds, 3);
        let hot: Vec<(u16, u64)> = (0..100u64).map(|i| (0u16, i)).collect();
        let pushes = s.next_burst_from(&hot, 2_000);
        let front = pushes.iter().filter(|p| p.id < 25).count();
        assert!(
            front > pushes.len() / 3,
            "front quarter of the hot set got {front} of {} pushes",
            pushes.len()
        );
        assert!(
            pushes.iter().all(|p| p.id < 100),
            "stays inside the hot set"
        );
    }
}
