//! # fleche-chaos
//!
//! Deterministic fault injection and degradation policies for the Fleche
//! serving stack. Everything here runs in *simulated* time ([`Ns`]) and draws
//! from seeded streams, so a chaos experiment replays bit-identically for a
//! fixed seed — robustness becomes a regression-checkable property exactly
//! like a latency figure.
//!
//! The crate has two halves:
//!
//! * **Injection** — a [`FaultPlan`] describes the fault environment in five
//!   domains (remote parameter-server outages and per-fetch timeouts,
//!   transient GPU launch faults and stream stalls, slab-pool bit flips,
//!   snapshot-image rot, trainer-push channel faults) and hands out
//!   per-domain injectors seeded from independent substreams. A whole-device
//!   loss is not a plan domain: it has no randomness, so a drill injects
//!   [`fleche_gpu::DeviceFault`]s at the batches it chooses.
//! * **Recovery policy** — [`RetryPolicy`] (exponential backoff + jitter,
//!   hedged second fetch, per-batch deadline) and [`CircuitBreaker`]
//!   (closed → open → half-open probing) are plain data + state machines the
//!   store and cache layers consult; they own no I/O themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fleche_gpu::Ns;

pub mod breaker;
pub mod plan;
pub mod retry;
pub mod rng;

pub use breaker::{
    BreakerConfig, BreakerState, BreakerTransitions, CircuitBreaker, StalenessConfig,
    StalenessPolicy,
};
pub use plan::{
    CorruptionInjector, CorruptionSpec, FaultPlan, FlashCrowdSpec, GpuFaultInjector, GpuFaultSpec,
    OverloadSpec, RemoteFaultInjector, RemoteFaultSpec, SnapshotFaultInjector, SnapshotFaultSpec,
    UpdateFaultInjector, UpdateFaultSpec,
};
pub use retry::RetryPolicy;
pub use rng::ChaosRng;

/// Convenience: true when `now` falls inside a periodic window of
/// `duration` that opens every `period` (first window starts at `period`,
/// so a simulation's warmup at t=0 is outage-free).
pub(crate) fn in_periodic_window(now: Ns, period: Ns, duration: Ns) -> bool {
    if period.as_ns() <= 0.0 || duration.as_ns() <= 0.0 {
        return false;
    }
    let t = now.as_ns();
    let p = period.as_ns();
    if t < p {
        return false;
    }
    let phase = t % p;
    phase < duration.as_ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_window_math() {
        let period = Ns::from_ms(10.0);
        let dur = Ns::from_ms(2.0);
        assert!(!in_periodic_window(Ns::ZERO, period, dur));
        assert!(!in_periodic_window(Ns::from_ms(5.0), period, dur));
        assert!(in_periodic_window(Ns::from_ms(10.5), period, dur));
        assert!(in_periodic_window(Ns::from_ms(11.9), period, dur));
        assert!(!in_periodic_window(Ns::from_ms(12.1), period, dur));
        assert!(in_periodic_window(Ns::from_ms(20.1), period, dur));
        // Degenerate specs never fire.
        assert!(!in_periodic_window(Ns::from_ms(10.5), Ns::ZERO, dur));
        assert!(!in_periodic_window(Ns::from_ms(10.5), period, Ns::ZERO));
    }
}
