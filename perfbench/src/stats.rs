//! Sample statistics: nearest-rank percentiles and the tail rule.
//!
//! A tail latency is reported at the highest percentile of
//! [`TAIL_LADDER`] that leaves at least [`MIN_BEYOND`] samples above it,
//! so a p99 is only claimed from 1000 or more samples. With fewer than
//! 20 samples no percentile qualifies and the maximum is reported.

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Rank (1-based) of the nearest-rank `p`-th percentile of `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when none has.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= 1 && n - rank(p, n) >= MIN_BEYOND)
}

/// Nearest-rank `p`-th percentile of an ascending slice (0 when empty).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// Median and tail of one latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at the tail percentile (the maximum when none qualifies).
    pub tail: f64,
    /// The percentile `tail` was taken at (100 for the maximum).
    pub tail_p: f64,
}

/// Summarises a sample by the tail rule.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (tail, tail_p) = match tail_percentile(v.len()) {
        Some(p) => (percentile_sorted(&v, p), p),
        None => (v.last().copied().unwrap_or(0.0), 100.0),
    };
    Summary {
        n: v.len(),
        p50: percentile_sorted(&v, 50.0),
        tail,
        tail_p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn reported_tail_is_the_highest_with_ten_beyond() {
        for n in 1..3000usize {
            let Some(p) = tail_percentile(n) else {
                assert!(n < 20, "n={n} should support the median");
                continue;
            };
            let beyond = n - rank(p, n);
            assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
            // Every higher ladder rung leaves fewer than ten beyond.
            for &q in TAIL_LADDER.iter().filter(|&&q| q > p) {
                assert!(n - rank(q, n) < MIN_BEYOND, "n={n}: p{q} also qualifies");
            }
        }
    }

    #[test]
    fn summary_uses_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.p50, s.tail, s.tail_p), (1000, 500.0, 990.0, 99.0));
        let few = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail, few.tail_p), (2.0, 3.0, 100.0));
    }
}
