//! The serving path's allocation budget: once warmed up, a
//! `FlecheSystem::query_batch` allocates a bounded number of times per
//! batch, not once per access. The output matrix is lent by the system and
//! handed back when the caller drops it, and every per-batch buffer keeps
//! its capacity, so what a steady-state batch still allocates does not
//! scale with its size. The bar is fewer than 100 allocations per batch,
//! on three shapes: Criteo-Kaggle at batch 512 (cache hits dominate),
//! Criteo-TB's dim-128 rows through a tiny cache (fills and evictions
//! dominate), and Avazu at batch sizes 1 to 32 (the serving front-end's
//! variable batches). Every row is also checked against ground truth.

use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::CpuStore;
use fleche_workload::{spec, Batch, DatasetSpec, TraceGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations allowed per steady-state batch (ROADMAP item 2's bar).
const BUDGET: u64 = 100;
/// Steady-state batches measured per setup.
const MEASURED: usize = 50;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calls a thread makes while it has
/// counting switched on (tests run on parallel threads, so the tally is
/// per thread).
struct CountingAlloc;

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down, when they can no longer be reached.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; `note` touches only
// const-initialised thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` with this layout; `new_size` is
        // the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with counting on for this thread; returns its result and the
/// allocator calls it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let c0 = CALLS.get();
    COUNTING.set(true);
    let r = f();
    COUNTING.set(false);
    (r, CALLS.get() - c0)
}

/// Warms a checksummed full Fleche over `ds` with `warmup` batches, then
/// measures [`MEASURED`] more; `size(i)` is batch `i`'s sample count.
/// Asserts every measured batch stays under [`BUDGET`] and every row
/// equals ground truth. Returns the eviction passes the measured batches
/// ran.
fn assert_budget(
    ds: &DatasetSpec,
    cache_fraction: f64,
    warmup: usize,
    size: impl Fn(usize) -> usize,
) -> u64 {
    let config = FlecheConfig {
        checksums: true,
        ..FlecheConfig::full(cache_fraction)
    };
    let truth = CpuStore::new(ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(ds, truth.clone(), config);
    let mut gpu = Gpu::new(DeviceSpec::t4());
    let mut gen = TraceGenerator::new(ds);
    for i in 0..warmup {
        sys.query_batch(&mut gpu, &gen.next_batch(size(i)));
    }
    let mut worst = 0;
    let passes = sys.cache().evict_passes();
    for i in warmup..warmup + MEASURED {
        let batch: Batch = gen.next_batch(size(i));
        let (out, allocs) = counted(|| sys.query_batch(&mut gpu, &batch));
        worst = worst.max(allocs);
        assert_eq!(out.rows.len(), batch.total_ids());
        for (k, ((t, id), row)) in batch.iter_accesses().zip(&out.rows).enumerate() {
            assert_eq!(*row, truth.read(t, id), "{}: batch {i}, row {k}", ds.name);
        }
        assert!(
            allocs < BUDGET,
            "{}: batch {i} of {} accesses made {allocs} allocations",
            ds.name,
            batch.total_ids()
        );
    }
    println!("{}: at most {worst} allocations per batch", ds.name);
    sys.cache().evict_passes() - passes
}

#[test]
fn kaggle_batches_of_512_stay_under_budget() {
    assert_budget(&spec::criteo_kaggle(), 0.10, 20, |_| 512);
}

#[test]
fn dim_128_rows_through_a_tiny_cache_stay_under_budget() {
    let passes = assert_budget(&spec::criteo_tb(), 0.0002, 10, |_| 256);
    assert!(passes > 0, "the budget covers the eviction pass");
}

#[test]
fn batches_of_1_to_32_stay_under_budget() {
    // Warm-up opens on the largest batch, then sizes cycle through 1..=32.
    assert_budget(&spec::avazu(), 0.05, 64, |i| {
        if i == 0 {
            32
        } else {
            1 + (i * 13) % 32
        }
    });
}
