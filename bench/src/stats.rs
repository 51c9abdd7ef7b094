//! Order statistics the benchmark reports.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of all samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile rank must be in (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` ascending (they are finite by construction).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Median; the mean of the two middle samples when the count is even.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    sort(&mut s);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Throughput as the median over `segments` equal runs of consecutive
/// batches, so one disturbed stretch of a run moves one segment and not
/// the reported figure. Each entry is `(work, seconds)` of one timed call;
/// a segment's rate is its summed work over its summed seconds. Trailing
/// batches that do not fill a segment are left out.
///
/// # Panics
///
/// Panics if there are fewer batches than segments.
pub fn segment_median_rate(batches: &[(f64, f64)], segments: usize) -> f64 {
    median(&segment_rates(batches, segments))
}

/// The per-segment rates behind [`segment_median_rate`], in run order.
pub fn segment_rates(batches: &[(f64, f64)], segments: usize) -> Vec<f64> {
    assert!(
        segments > 0 && batches.len() >= segments,
        "need at least one batch per segment"
    );
    let per = batches.len() / segments;
    batches
        .chunks_exact(per)
        .take(segments)
        .map(|seg| {
            let work: f64 = seg.iter().map(|b| b.0).sum();
            let secs: f64 = seg.iter().map(|b| b.1).sum();
            work / secs
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.001), 1.0);
        // Five samples: p50 is the third, p99 the fifth.
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.99), 5.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn segment_median_ignores_one_slow_stretch() {
        // 20 batches of 10 units in 1 s each, except one stretch of two
        // that took 10x as long: the mean rate drops, the segment median
        // does not.
        let mut b = vec![(10.0, 1.0); 20];
        b[4].1 = 10.0;
        b[5].1 = 10.0;
        assert_eq!(segment_median_rate(&b, 10), 10.0);
        // The remainder beyond ten equal segments is dropped.
        let b = vec![(10.0, 2.0); 25];
        assert_eq!(segment_median_rate(&b, 10), 5.0);
    }
}
