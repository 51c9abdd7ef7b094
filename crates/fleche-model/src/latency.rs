//! Latency recording and throughput accounting.
//!
//! Exp #2 plots throughput against median and P99 embedding latency; this
//! module collects per-batch wall times from the simulated clock and
//! derives those statistics.

use fleche_gpu::Ns;

/// A collection of per-batch latency samples.
#[derive(Clone, Debug, Default)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::default()
    }

    /// Records one batch latency.
    pub fn record(&mut self, t: Ns) {
        debug_assert!(t.is_valid());
        self.samples.push(t.as_ns());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (0..=1) by nearest-rank on sorted samples.
    ///
    /// # Panics
    ///
    /// Panics if the recorder is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Ns {
        nearest_rank(&self.samples, q)
    }

    /// The 99th percentile of the samples recorded after the first
    /// `from`: a rolling window without a second recorder.
    pub(crate) fn p99_since(&self, from: usize) -> Ns {
        nearest_rank(&self.samples[from..], 0.99)
    }

    /// Median latency.
    pub fn median(&self) -> Ns {
        self.quantile(0.5)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Ns {
        self.quantile(0.99)
    }

    /// Mean latency.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn mean(&self) -> Ns {
        assert!(!self.samples.is_empty(), "no latency samples recorded");
        Ns(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// Total recorded time.
    pub fn total(&self) -> Ns {
        Ns(self.samples.iter().sum())
    }
}

/// The `q`-quantile of `samples` by nearest rank.
fn nearest_rank(samples: &[f64], q: f64) -> Ns {
    assert!(!samples.is_empty(), "no latency samples recorded");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
    Ns(sorted[idx])
}

/// Inferences per second given samples processed in simulated `elapsed`.
pub fn throughput(samples: u64, elapsed: Ns) -> f64 {
    if elapsed <= Ns::ZERO {
        return 0.0;
    }
    samples as f64 / elapsed.as_secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_data() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100 {
            r.record(Ns(i as f64));
        }
        assert_eq!(r.len(), 100);
        assert!((r.median().as_ns() - 50.0).abs() <= 1.0);
        assert!((r.p99().as_ns() - 99.0).abs() <= 1.0);
        assert!((r.mean().as_ns() - 50.5).abs() < 1e-9);
        assert_eq!(r.quantile(0.0).as_ns(), 1.0);
        assert_eq!(r.quantile(1.0).as_ns(), 100.0);
    }

    #[test]
    fn single_sample() {
        let mut r = LatencyRecorder::new();
        r.record(Ns(42.0));
        assert_eq!(r.median(), Ns(42.0));
        assert_eq!(r.p99(), Ns(42.0));
        assert_eq!(r.mean(), Ns(42.0));
    }

    #[test]
    #[should_panic(expected = "no latency samples")]
    fn empty_median_panics() {
        LatencyRecorder::new().median();
    }

    #[test]
    fn throughput_math() {
        // 1000 samples in 1 ms = 1M/s.
        let t = throughput(1000, Ns::from_ms(1.0));
        assert!((t - 1_000_000.0).abs() < 1e-6);
        assert_eq!(throughput(10, Ns::ZERO), 0.0);
    }
}
