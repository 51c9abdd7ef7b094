//! Epoch-based space reclamation.
//!
//! Eviction may race with in-flight decoupled copy kernels (the paper's
//! read-after-delete case): an evicted pool slot must stay readable until
//! every reader that could still hold its address has finished. The scheme
//! is the classic epoch one: readers pin the current epoch; retiring a slot
//! records the epoch at retirement; a retired slot is reclaimed only once
//! every pinned epoch has advanced past it.

use std::collections::VecDeque;

/// A guard representing an in-flight reader (e.g. a launched copy kernel
/// that received pool addresses). Dropping the guard is *not* enough — it
/// must be explicitly released so the release can be tied to the simulated
/// kernel completion, not Rust scope.
#[derive(Debug, PartialEq, Eq)]
pub struct EpochGuard {
    id: u64,
    epoch: u64,
}

/// Manages retirement of items of type `T` (for the cache, pool slots).
#[derive(Debug)]
pub struct EpochManager<T> {
    global: u64,
    /// (guard id, pinned epoch) for every outstanding reader.
    active: Vec<(u64, u64)>,
    /// (retirement epoch, item), oldest first.
    retired: VecDeque<(u64, T)>,
    next_guard: u64,
}

impl<T> Default for EpochManager<T> {
    fn default() -> Self {
        EpochManager::new()
    }
}

impl<T> EpochManager<T> {
    /// Creates a manager at epoch 0 with no readers.
    pub fn new() -> EpochManager<T> {
        EpochManager {
            global: 0,
            active: Vec::new(),
            retired: VecDeque::new(),
            next_guard: 0,
        }
    }

    /// Number of outstanding readers.
    pub fn readers(&self) -> usize {
        self.active.len()
    }

    /// Number of items awaiting reclamation.
    pub fn retired_len(&self) -> usize {
        self.retired.len()
    }

    /// Advances the global epoch (called once per query batch).
    pub fn advance(&mut self) {
        self.global += 1;
    }

    /// Registers a reader pinned at the current epoch.
    pub fn pin(&mut self) -> EpochGuard {
        let id = self.next_guard;
        self.next_guard += 1;
        debug_assert!(
            self.active.iter().all(|&(_, e)| e <= self.global),
            "pinned epochs may never exceed the global epoch"
        );
        self.active.push((id, self.global));
        EpochGuard {
            id,
            epoch: self.global,
        }
    }

    /// Releases a reader.
    ///
    /// # Panics
    ///
    /// Panics if the guard was already released — that is a
    /// use-after-release bug in the caller.
    pub fn unpin(&mut self, guard: EpochGuard) {
        let pos = self
            .active
            .iter()
            .position(|&(id, _)| id == guard.id)
            // Documented panic: a second release is a use-after-release bug
            // in the caller, and the guard it names may already be another
            // reader's; carrying on could free a slot that reader holds.
            // analyzer: allow(no-panic-hot-path)
            .expect("epoch guard released twice");
        self.active.swap_remove(pos);
    }

    /// Marks `item` logically deleted at the current epoch.
    pub fn retire(&mut self, item: T) {
        // The queue stays sorted by retirement epoch because the global
        // epoch is monotone; try_reclaim's front-only scan relies on it.
        debug_assert!(
            self.retired.back().map_or(true, |&(e, _)| e <= self.global),
            "retirement epochs must be monotone"
        );
        self.retired.push_back((self.global, item));
    }

    /// Reclaims every retired item whose retirement epoch is strictly
    /// before all pinned epochs, invoking `free` on each. Returns how many
    /// were reclaimed.
    pub fn try_reclaim(&mut self, mut free: impl FnMut(T)) -> usize {
        let horizon = self
            .active
            .iter()
            .map(|&(_, e)| e)
            .min()
            .unwrap_or(self.global);
        debug_assert!(
            horizon <= self.global,
            "horizon is bounded by the global epoch"
        );
        let n = self
            .retired
            .iter()
            .take_while(|&&(e, _)| e < horizon)
            .count();
        for (_, item) in self.retired.drain(..n) {
            free(item);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_readers_reclaims_after_advance() {
        let mut m = EpochManager::new();
        m.retire(1u32);
        // Retired at the current epoch: not yet safe (a reader could still
        // be registered in this epoch).
        assert_eq!(m.try_reclaim(|_| {}), 0);
        m.advance();
        let mut freed = Vec::new();
        assert_eq!(m.try_reclaim(|x| freed.push(x)), 1);
        assert_eq!(freed, vec![1]);
        assert_eq!(m.retired_len(), 0);
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let mut m = EpochManager::new();
        let guard = m.pin();
        m.retire(7u32);
        m.advance();
        m.advance();
        assert_eq!(m.try_reclaim(|_| {}), 0, "reader from epoch 0 still live");
        m.unpin(guard);
        assert_eq!(m.try_reclaim(|_| {}), 1);
    }

    #[test]
    fn later_reader_does_not_block_older_garbage() {
        let mut m = EpochManager::new();
        m.retire(1u32); // retired at epoch 0
        m.advance(); // epoch 1
        let late = m.pin(); // pinned at 1
        m.retire(2u32); // retired at epoch 1
        m.advance();
        let mut freed = Vec::new();
        m.try_reclaim(|x| freed.push(x));
        assert_eq!(freed, vec![1], "item from epoch 0 is older than pin at 1");
        m.unpin(late);
        m.try_reclaim(|x| freed.push(x));
        assert_eq!(freed, vec![1, 2]);
    }

    #[test]
    fn reclaim_preserves_retirement_order() {
        let mut m = EpochManager::new();
        m.retire("a");
        m.advance();
        m.retire("b");
        m.advance();
        let mut freed = Vec::new();
        m.try_reclaim(|x| freed.push(x));
        assert_eq!(freed, vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn double_release_panics() {
        let mut m = EpochManager::<u32>::new();
        let g = m.pin();
        let fake = EpochGuard {
            id: g.id,
            epoch: g.epoch,
        };
        m.unpin(g);
        m.unpin(fake);
    }

    #[test]
    fn reader_counts_track() {
        let mut m = EpochManager::<u32>::new();
        let a = m.pin();
        let b = m.pin();
        assert_eq!(m.readers(), 2);
        m.unpin(a);
        assert_eq!(m.readers(), 1);
        m.unpin(b);
        assert_eq!(m.readers(), 0);
    }
}
