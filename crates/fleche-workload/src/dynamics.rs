//! Non-stationary workload dynamics.
//!
//! The stationary power-law traces of [`crate::trace`] model a steady
//! recommendation workload; production traffic is not steady. Two
//! dynamics the overload drills exercise, each deterministic under the
//! dataset seed like every other generator in this crate:
//!
//! * **Flash-crowd hot-key churn** ([`HotChurnSpec`]) — for a bounded
//!   window of samples, a fraction of every draw is redirected onto a
//!   small *crowd* of keys that were not previously hot (a viral item, a
//!   breaking-news entity). The crowd is placed by a salted hash, so it is
//!   disjoint from the steady hot set with high probability and identical
//!   across runs.
//! * **Diurnal popularity rotation** ([`DiurnalSpec`]) — the rank-to-ID
//!   scattering rotates through a fixed cycle of phases, one per simulated
//!   "hour"; after a full cycle the phase-0 popularity returns, so a cache
//!   that adapted once can be measured re-adapting to a set it has seen
//!   before. A cycle of `u64::MAX` phases never returns: that is hotspot
//!   drift, the hot set moving every `period` samples for good.
//!
//! Both compose via [`TraceDynamics`] and are consumed by
//! [`crate::TraceGenerator::with_dynamics`]. They draw from the
//! generator's single RNG stream, so a given `(spec, dynamics)` pair
//! yields one byte-identical trace forever.

/// Flash-crowd hot-key churn over a window of samples.
#[derive(Clone, Copy, Debug)]
pub struct HotChurnSpec {
    /// Sample index at which the crowd forms.
    pub start: u64,
    /// Crowd lifetime in samples (window is `[start, start + duration)`).
    pub duration: u64,
    /// Fraction of draws inside the window redirected onto the crowd.
    pub crowd_fraction: f64,
    /// Number of distinct crowd keys per table.
    pub crowd_size: u64,
    /// Salt mixed into the crowd placement hash; different salts place
    /// the crowd on different keys.
    pub salt: u64,
}

impl HotChurnSpec {
    /// Whether sample index `produced` falls inside the crowd window.
    pub fn active_at(&self, produced: u64) -> bool {
        produced >= self.start && produced - self.start < self.duration
    }

    /// The `k`-th crowd key for table `table`, in `[0, corpus)`.
    ///
    /// A salted split-mix hash: deterministic, spread over the key space,
    /// and (for crowds far smaller than the corpus) almost surely disjoint
    /// from the steady-state hot head.
    pub fn crowd_id(&self, table: usize, k: u64, corpus: u64) -> u64 {
        debug_assert!(corpus > 0);
        let mut x = self
            .salt
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((table as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(k.wrapping_mul(0x94D0_49BB_1331_11EB));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x % corpus
    }
}

/// Diurnal popularity rotation: the hot set cycles through `phases`
/// distinct scatterings, advancing every `period` samples, and returns to
/// phase 0 after a full cycle.
#[derive(Clone, Copy, Debug)]
pub struct DiurnalSpec {
    /// Samples per phase (one simulated "hour").
    pub period: u64,
    /// Distinct popularity phases before the cycle repeats.
    pub phases: u64,
}

impl DiurnalSpec {
    /// The phase in effect at sample index `produced`.
    pub fn phase_at(&self, produced: u64) -> u64 {
        debug_assert!(self.period > 0 && self.phases > 0);
        (produced / self.period) % self.phases
    }
}

/// Composition of the two dynamics; `None` fields leave the trace
/// stationary along that axis.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceDynamics {
    /// Flash-crowd hot-key churn, if any.
    pub hot_churn: Option<HotChurnSpec>,
    /// Diurnal popularity rotation, if any.
    pub diurnal: Option<DiurnalSpec>,
}

impl TraceDynamics {
    /// A stationary trace (all dynamics off).
    pub fn none() -> TraceDynamics {
        TraceDynamics::default()
    }

    /// Panics if any knob is out of range (fractions outside `[0, 1]`,
    /// zero periods or crowd sizes).
    pub fn validate(&self) {
        if let Some(hc) = &self.hot_churn {
            assert!(
                (0.0..=1.0).contains(&hc.crowd_fraction),
                "crowd_fraction must be in [0, 1]"
            );
            assert!(hc.crowd_size > 0, "crowd_size must be positive");
        }
        if let Some(d) = &self.diurnal {
            assert!(d.period > 0, "diurnal period must be positive");
            assert!(d.phases > 0, "diurnal phases must be positive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crowd_window_bounds() {
        let hc = HotChurnSpec {
            start: 100,
            duration: 50,
            crowd_fraction: 0.5,
            crowd_size: 8,
            salt: 1,
        };
        assert!(!hc.active_at(99));
        assert!(hc.active_at(100));
        assert!(hc.active_at(149));
        assert!(!hc.active_at(150));
    }

    #[test]
    fn crowd_ids_are_deterministic_and_in_range() {
        let hc = HotChurnSpec {
            start: 0,
            duration: 1,
            crowd_fraction: 1.0,
            crowd_size: 16,
            salt: 42,
        };
        for t in 0..4 {
            for k in 0..16 {
                let a = hc.crowd_id(t, k, 10_000);
                let b = hc.crowd_id(t, k, 10_000);
                assert_eq!(a, b);
                assert!(a < 10_000);
            }
        }
    }

    #[test]
    fn different_salts_place_different_crowds() {
        let mk = |salt| HotChurnSpec {
            start: 0,
            duration: 1,
            crowd_fraction: 1.0,
            crowd_size: 64,
            salt,
        };
        let (a, b) = (mk(1), mk(2));
        let same = (0..64)
            .filter(|&k| a.crowd_id(0, k, 1 << 40) == b.crowd_id(0, k, 1 << 40))
            .count();
        assert!(same <= 1, "salted crowds should not coincide: {same}");
    }

    #[test]
    fn diurnal_phase_cycles() {
        let d = DiurnalSpec {
            period: 10,
            phases: 3,
        };
        assert_eq!(d.phase_at(0), 0);
        assert_eq!(d.phase_at(9), 0);
        assert_eq!(d.phase_at(10), 1);
        assert_eq!(d.phase_at(29), 2);
        assert_eq!(d.phase_at(30), 0, "cycle returns to phase 0");
    }

    #[test]
    #[should_panic(expected = "crowd_fraction")]
    fn validate_rejects_bad_fraction() {
        TraceDynamics {
            hot_churn: Some(HotChurnSpec {
                start: 0,
                duration: 1,
                crowd_fraction: 1.5,
                crowd_size: 1,
                salt: 0,
            }),
            ..TraceDynamics::none()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "phases")]
    fn validate_rejects_zero_phases() {
        TraceDynamics {
            diurnal: Some(DiurnalSpec {
                period: 5,
                phases: 0,
            }),
            ..TraceDynamics::none()
        }
        .validate();
    }
}
