//! A counting allocator for the traced pass.
//!
//! Every allocation goes to the system allocator; a thread that has
//! switched counting on (only [`counted`] does, only in the traced pass)
//! also tallies calls and bytes. Counting is per thread so the serving
//! workload's feeder thread does not pollute the worker's numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The process allocator: the system allocator plus the tally above.
pub struct CountingAlloc;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down, when they can no longer be reached.
    let _ = ACTIVE.try_with(|active| {
        if active.get() {
            let _ = CALLS.try_with(|c| c.set(c.get() + 1));
            let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; `note` touches only
// const-initialised thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this layout; `new_size` is
        // the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with counting on for this thread; returns its result and the
/// `(calls, bytes)` it allocated.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (c0, b0) = (CALLS.get(), BYTES.get());
    ACTIVE.set(true);
    let r = f();
    ACTIVE.set(false);
    (r, CALLS.get() - c0, BYTES.get() - b0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_counted() {
        let outside = vec![0u8; 4096];
        let (v, calls, bytes) = counted(|| vec![0u8; 1000]);
        assert_eq!(v.len() + outside.len(), 5096);
        assert!(calls >= 1, "the vec allocation is seen");
        assert!((1000..4096).contains(&bytes), "only the inner vec: {bytes}");
    }
}
