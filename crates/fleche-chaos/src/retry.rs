//! Retry policy: backoff, jitter, hedging, deadlines.

use crate::rng::ChaosRng;
use fleche_gpu::Ns;

/// How a caller reacts to failed remote fetches.
///
/// The policy is pure data; the store interprets it. All durations are
/// simulated time.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Ns,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_multiplier: f64,
    /// Uniform ± fraction applied to every backoff so synchronized clients
    /// don't retry in lockstep.
    pub jitter_frac: f64,
    /// When set, a hedged second fetch is fired this long into an attempt
    /// that has not answered yet; whichever answers first wins.
    pub hedge_after: Option<Ns>,
    /// Per-batch time budget across all attempts and backoffs. When the
    /// budget is exhausted the caller stops retrying and falls back
    /// (stale-serve or failure).
    pub deadline: Option<Ns>,
}

impl RetryPolicy {
    /// No recovery at all: one attempt, no hedge, no deadline. The baseline
    /// the chaos suite measures degradation against.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Ns::ZERO,
            backoff_multiplier: 1.0,
            jitter_frac: 0.0,
            hedge_after: None,
            deadline: None,
        }
    }

    /// A production-shaped default: three attempts, 50 µs starting backoff
    /// doubling each time with ±25 % jitter, a hedged fetch halfway into the
    /// typical remote RTT, and a 5 ms per-batch budget.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Ns::from_us(50.0),
            backoff_multiplier: 2.0,
            jitter_frac: 0.25,
            hedge_after: Some(Ns::from_us(30.0)),
            deadline: Some(Ns::from_ms(5.0)),
        }
    }

    /// Jittered backoff to wait before attempt `attempt` (attempts count
    /// from 1; the first attempt has no backoff).
    pub fn backoff_before(&self, attempt: u32, rng: &mut ChaosRng) -> Ns {
        if attempt <= 1 {
            return Ns::ZERO;
        }
        let exp = (attempt - 2) as i32;
        let base = self.base_backoff * self.backoff_multiplier.powi(exp);
        base * rng.jitter(self.jitter_frac)
    }

    /// True when spending `elapsed` so far leaves room under the deadline.
    pub fn within_deadline(&self, elapsed: Ns) -> bool {
        match self.deadline {
            Some(d) => elapsed < d,
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_retries() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert!(p.within_deadline(Ns::from_secs(100.0)));
        let mut rng = ChaosRng::new(1);
        assert_eq!(p.backoff_before(1, &mut rng), Ns::ZERO);
    }

    #[test]
    fn backoff_grows_exponentially_with_jitter_band() {
        let p = RetryPolicy {
            jitter_frac: 0.25,
            ..RetryPolicy::standard()
        };
        let mut rng = ChaosRng::new(2);
        for attempt in 2..6u32 {
            let nominal = p.base_backoff.as_ns() * 2f64.powi(attempt as i32 - 2);
            for _ in 0..100 {
                let b = p.backoff_before(attempt, &mut rng).as_ns();
                assert!(
                    b >= nominal * 0.75 - 1e-9 && b <= nominal * 1.25 + 1e-9,
                    "attempt {attempt}: backoff {b} outside ±25% of {nominal}"
                );
            }
        }
    }

    #[test]
    fn deadline_cuts_off() {
        let p = RetryPolicy {
            deadline: Some(Ns::from_ms(1.0)),
            ..RetryPolicy::standard()
        };
        assert!(p.within_deadline(Ns::from_us(999.0)));
        assert!(!p.within_deadline(Ns::from_ms(1.0)));
    }
}
