//! Modeled synchronization primitives.
//!
//! These shims mirror the semantics of `std::sync::{Mutex, Condvar}`, but
//! as plain data inside a [`Model`](crate::explore::Model): the explorer
//! decides when a blocked thread resumes, so every legal wakeup order is
//! explored. Each operation reports its footprint as [`Access`]es on a
//! caller-chosen resource id, which is what the sleep-set reduction keys
//! independence on.
//!
//! Faithfulness notes:
//!
//! * [`Condvar::notify_one`] with no registered waiter is a no-op — the
//!   signal is *lost*, exactly like the real primitive. A model that
//!   checks its predicate before registering as a waiter will deadlock
//!   under some schedule, and the explorer reports it.
//! * A woken waiter does not hold the mutex: it moves to a *wakeable*
//!   set and must re-acquire before touching state, so another thread
//!   can barge in between the notify and the wakeup — the schedule that
//!   breaks `if`-based wait conditions.
//! * Spurious wakeups are not modeled; the barging behavior above
//!   already forces the re-check discipline that spurious wakeups
//!   defend against.

use crate::explore::Access;

/// A modeled mutex: just the holder, plus a resource id for footprints.
#[derive(Clone, Debug)]
pub struct Mutex {
    id: u64,
    holder: Option<usize>,
}

impl Mutex {
    /// A free mutex with footprint resource `id`.
    pub fn new(id: u64) -> Mutex {
        Mutex { id, holder: None }
    }

    /// True when no thread holds the mutex (the enabledness test for an
    /// acquiring step).
    pub fn free(&self) -> bool {
        self.holder.is_none()
    }

    /// Acquires for `tid`. Caller must have checked [`Mutex::free`].
    pub fn acquire(&mut self, tid: usize) -> Access {
        debug_assert!(self.holder.is_none(), "acquire of a held mutex");
        self.holder = Some(tid);
        Access::write(self.id)
    }

    /// Releases. Caller must hold the mutex.
    pub fn release(&mut self, tid: usize) -> Access {
        debug_assert_eq!(self.holder, Some(tid), "release by a non-holder");
        self.holder = None;
        Access::write(self.id)
    }

    /// Canonical encoding for [`Model::snapshot`](crate::explore::Model::snapshot).
    pub fn snapshot(&self, out: &mut Vec<u64>) {
        out.push(self.holder.map_or(0, |t| t as u64 + 1));
    }
}

/// A modeled condition variable: who is waiting, who has been woken but
/// not yet resumed.
#[derive(Clone, Debug)]
pub struct Condvar {
    id: u64,
    /// Threads blocked in `wait` (sorted: wakeup picks the lowest id,
    /// keeping exploration order deterministic; the explorer still
    /// interleaves every *resume* order via the wakeable set).
    waiting: Vec<usize>,
    /// Threads notified but not yet re-acquired the mutex.
    wakeable: Vec<usize>,
}

impl Condvar {
    /// A condvar with footprint resource `id`.
    pub fn new(id: u64) -> Condvar {
        Condvar {
            id,
            waiting: Vec::new(),
            wakeable: Vec::new(),
        }
    }

    /// Registers `tid` as a waiter. The caller's step must also release
    /// the guard mutex (wait is atomically release-and-block).
    pub fn wait_begin(&mut self, tid: usize) -> Access {
        debug_assert!(!self.waiting.contains(&tid));
        self.waiting.push(tid);
        self.waiting.sort_unstable();
        Access::write(self.id)
    }

    /// Wakes the lowest-id waiter, if any; a notify with nobody waiting
    /// is lost.
    pub fn notify_one(&mut self) -> Access {
        if !self.waiting.is_empty() {
            let t = self.waiting.remove(0);
            self.wakeable.push(t);
            self.wakeable.sort_unstable();
        }
        Access::write(self.id)
    }

    /// Wakes every waiter.
    pub fn notify_all(&mut self) -> Access {
        self.wakeable.append(&mut self.waiting);
        self.wakeable.sort_unstable();
        Access::write(self.id)
    }

    /// True when `tid` has been woken and may try to re-acquire.
    pub fn woken(&self, tid: usize) -> bool {
        self.wakeable.contains(&tid)
    }

    /// Consumes `tid`'s wakeup (call when it re-acquires the mutex).
    pub fn resume(&mut self, tid: usize) -> Access {
        self.wakeable.retain(|&t| t != tid);
        Access::write(self.id)
    }

    /// Canonical encoding for snapshots.
    pub fn snapshot(&self, out: &mut Vec<u64>) {
        out.push(self.waiting.iter().fold(0u64, |m, &t| m | (1 << t)));
        out.push(self.wakeable.iter().fold(0u64, |m, &t| m | (1 << t)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notify_with_no_waiter_is_lost() {
        let mut cv = Condvar::new(7);
        cv.notify_one();
        cv.wait_begin(0);
        assert!(!cv.woken(0), "the earlier notify must not be banked");
        cv.notify_one();
        assert!(cv.woken(0));
        cv.resume(0);
        assert!(!cv.woken(0));
    }

    #[test]
    fn notify_one_wakes_lowest_id() {
        let mut cv = Condvar::new(7);
        cv.wait_begin(3);
        cv.wait_begin(1);
        cv.notify_one();
        assert!(cv.woken(1));
        assert!(!cv.woken(3));
    }

    #[test]
    fn mutex_tracks_holder() {
        let mut m = Mutex::new(1);
        assert!(m.free());
        m.acquire(2);
        assert!(!m.free());
        m.release(2);
        assert!(m.free());
    }
}
