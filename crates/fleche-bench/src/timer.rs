//! The crate's one wall-clock read: a mean-time-per-call timer for the
//! `hotpath` row's host hot loops. Everything else in `fleche-bench`
//! reports the simulated `Ns` clock.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rough wall time spent in the timed loop of one body.
const TARGET: Duration = Duration::from_millis(200);

/// Mean wall time of one call and the number of calls behind it.
pub(crate) struct Timing {
    pub per_iter_ns: f64,
    pub iters: u64,
}

/// Calls `f` once to warm up and to size the timed loop, then times
/// `iters` calls and reports their mean.
pub(crate) fn time<O>(mut f: impl FnMut() -> O) -> Timing {
    let t0 = Instant::now();
    black_box(f());
    let first = t0.elapsed().max(Duration::from_nanos(1));
    let iters = (TARGET.as_nanos() / first.as_nanos()).clamp(1, 100_000) as u64;
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    Timing {
        per_iter_ns: (t0.elapsed() / iters as u32).as_nanos().max(1) as f64,
        iters,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_trivial_body_is_timed_at_least_once() {
        let t = super::time(|| 1 + 1);
        assert!(t.iters >= 1);
        assert!(t.per_iter_ns.is_finite() && t.per_iter_ns > 0.0);
    }
}
