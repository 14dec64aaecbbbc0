//! Descriptive statistics used across the pipeline.
//!
//! Three consumers drive the contents: the genre-aggregation step of the
//! dataset pipeline (Shannon [`entropy`]), the Fig. 1 reproduction
//! (empirical CDFs via [`Ecdf`]), and the serving engine's latency metrics
//! (log-bucketed [`Histogram`]s).

/// Shannon entropy (nats) of a count histogram. Zero counts contribute
/// nothing; an empty or all-zero histogram has entropy zero.
#[must_use]
pub fn entropy(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.ln()
        })
        .sum()
}

/// An empirical cumulative distribution function over integer-valued
/// observations (e.g. readings per user).
///
/// Stores the sorted distinct values with cumulative probabilities;
/// [`Ecdf::points`] yields exactly the series a CDF plot needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    values: Vec<u64>,
    cumulative: Vec<f64>,
    n: usize,
}

impl Ecdf {
    /// Builds the ECDF from raw observations.
    #[must_use]
    pub fn from_observations(obs: &[u64]) -> Self {
        let mut sorted = obs.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let mut values = Vec::new();
        let mut cumulative = Vec::new();
        let mut seen = 0usize;
        let mut i = 0usize;
        while i < n {
            let v = sorted[i];
            let mut j = i;
            while j < n && sorted[j] == v {
                j += 1;
            }
            seen += j - i;
            values.push(v);
            cumulative.push(seen as f64 / n as f64);
            i = j;
        }
        Self {
            values,
            cumulative,
            n,
        }
    }

    /// Number of observations the ECDF was built from.
    #[must_use]
    pub fn sample_size(&self) -> usize {
        self.n
    }

    /// P(X <= x).
    #[must_use]
    pub fn eval(&self, x: u64) -> f64 {
        match self.values.binary_search(&x) {
            Ok(i) => self.cumulative[i],
            Err(0) => 0.0,
            Err(i) => self.cumulative[i - 1],
        }
    }

    /// The (value, cumulative-probability) step points.
    pub fn points(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.values
            .iter()
            .copied()
            .zip(self.cumulative.iter().copied())
    }

    /// Largest observed value (None when empty).
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.values.last().copied()
    }

    /// Smallest `x` with `P(X <= x) >= q` (i.e. the `q`-quantile of the
    /// step function).
    ///
    /// # Panics
    ///
    /// Panics if the ECDF is empty or `q` is outside `(0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(!self.values.is_empty(), "quantile of empty ECDF");
        assert!(q > 0.0 && q <= 1.0, "quantile level out of range: {q}");
        let idx = self
            .cumulative
            .partition_point(|&c| c < q)
            .min(self.values.len() - 1);
        self.values[idx]
    }
}

/// A mergeable latency histogram with logarithmic buckets.
///
/// Values (e.g. nanoseconds) land in quarter-octave buckets — bucket
/// boundaries grow by `2^(1/4)` — so quantile estimates carry at most
/// ~19 % relative error while the whole histogram stays 256 counters,
/// cheap enough to sit on every request path. Exact `min`/`max`/`sum`
/// are tracked on the side, and [`Histogram::merge`] combines per-worker
/// histograms without loss (bucket counts simply add).
///
/// The serving engine records request latencies here and reports
/// p50/p95/p99 via [`Histogram::quantile`].
///
/// Observations so large that their bucket's upper bound saturates at
/// `u64::MAX` (values ≥ 2⁶²) are additionally counted in an explicit
/// overflow counter ([`Histogram::overflow`]): quantile estimates that
/// land in those buckets carry unbounded relative error, and exporters
/// surface the counter so saturation is visible instead of silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
    overflow: u64,
}

/// Quarter-octave buckets spanning all of `u64`: 4 per power of two.
const HIST_BUCKETS: usize = 256;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; HIST_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            overflow: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value <= 1 {
            return 0;
        }
        // floor(log2(v) * 4): exponent gives the octave, the top bits of
        // the mantissa pick the quarter within it.
        let e = value.ilog2();
        let quarter = if e >= 2 {
            // The two bits just below the leading one.
            ((value >> (e - 2)) & 0b11) as u32
        } else {
            // e == 1: values 2 and 3 fall in quarters 0 and 2.
            ((value & 1) * 2) as u32
        };
        ((e * 4 + quarter) as usize).min(HIST_BUCKETS - 1)
    }

    /// Upper bound of bucket `i` — the representative value reported for
    /// samples that landed there.
    fn bucket_upper(i: usize) -> u64 {
        let e = (i / 4) as u32;
        let quarter = (i % 4) as u64;
        if e >= 62 {
            return u64::MAX;
        }
        // 2^e * (1 + (quarter+1)/4), exact in integers.
        (1u64 << e) + ((quarter + 1) << e) / 4
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical observations in O(1) — how batched request
    /// paths account one amortised per-request latency for a whole chunk.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let bucket = Self::bucket_of(value);
        if Self::bucket_upper(bucket) == u64::MAX {
            self.overflow += n;
        }
        self.counts[bucket] += n;
        self.total += n;
        self.sum += u128::from(value) * u128::from(n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.overflow += other.overflow;
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of every recorded value (u128: `u64::MAX` observations
    /// of `u64::MAX` cannot overflow it).
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Cumulative bucket counts over the occupied range, as
    /// `(upper_bound, observations ≤ upper_bound)` pairs — exactly the
    /// series a Prometheus-style histogram exposition needs. Empty when
    /// nothing has been recorded; the last entry's count equals
    /// [`Histogram::count`].
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        if self.total == 0 {
            return Vec::new();
        }
        // bucket_of is monotone, so no count lands below bucket_of(min).
        let lo = Self::bucket_of(self.min);
        let hi = Self::bucket_of(self.max);
        let mut cumulative = 0u64;
        (lo..=hi)
            .map(|i| {
                cumulative += self.counts[i];
                (Self::bucket_upper(i), cumulative)
            })
            .collect()
    }

    /// Observations whose bucket's upper bound saturated at `u64::MAX`
    /// (values ≥ 2⁶²): quantiles touching those buckets are unreliable,
    /// so saturation is counted rather than hidden.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact arithmetic mean; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Exact smallest observation; `0` when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest observation.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// holding the `⌈q·n⌉`-th smallest sample, clamped to the exact
    /// observed range. `0` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile level out of range: {q}");
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_uniform_is_log_n() {
        let h = entropy(&[10, 10, 10, 10]);
        assert!((h - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn entropy_degenerate_is_zero() {
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[0, 0]), 0.0);
        assert_eq!(entropy(&[42]), 0.0);
    }

    #[test]
    fn entropy_merging_equal_bins_decreases() {
        // Aggregating two equal-mass genres into one strictly reduces
        // entropy — the property the genre pipeline relies on.
        let before = entropy(&[50, 50, 100]);
        let after = entropy(&[100, 100]);
        assert!(after < before);
    }

    #[test]
    fn ecdf_step_behaviour() {
        let e = Ecdf::from_observations(&[1, 1, 2, 5]);
        assert_eq!(e.sample_size(), 4);
        assert_eq!(e.eval(0), 0.0);
        assert_eq!(e.eval(1), 0.5);
        assert_eq!(e.eval(3), 0.75);
        assert_eq!(e.eval(5), 1.0);
        assert_eq!(e.eval(99), 1.0);
        assert_eq!(e.max(), Some(5));
    }

    #[test]
    fn ecdf_quantile_matches_eval() {
        let e = Ecdf::from_observations(&[10, 20, 30, 40, 50]);
        assert_eq!(e.quantile(0.2), 10);
        assert_eq!(e.quantile(0.5), 30);
        assert_eq!(e.quantile(1.0), 50);
    }

    #[test]
    fn histogram_empty_is_inert() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn histogram_single_value_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(1_000);
        // Clamping to the observed range makes a single sample exact.
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), 1_000);
        }
        assert_eq!(h.mean(), 1_000.0);
    }

    #[test]
    fn histogram_quantiles_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        // Quarter-octave buckets: estimate within ~19 % of the true value.
        for (q, truth) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let est = h.quantile(q) as f64;
            assert!(
                (est - truth).abs() / truth < 0.2,
                "q{q}: estimated {est}, true {truth}"
            );
        }
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        assert!((h.mean() - 5_000.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        let mut h = Histogram::new();
        for v in [3u64, 17, 90, 1_000, 250_000, 1 << 40] {
            for _ in 0..5 {
                h.record(v);
            }
        }
        let qs: Vec<u64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert!(qs[0] >= 3 && *qs.last().unwrap() == 1 << 40);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in 0..500u64 {
            let target = if v % 2 == 0 { &mut a } else { &mut b };
            target.record(v * 37);
            both.record(v * 37);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn histogram_record_n_equals_repeated_record() {
        let mut bulk = Histogram::new();
        let mut loop_ = Histogram::new();
        bulk.record_n(777, 9);
        bulk.record_n(5, 0); // no-op
        for _ in 0..9 {
            loop_.record(777);
        }
        assert_eq!(bulk, loop_);
    }

    #[test]
    fn histogram_cumulative_buckets_cover_all_counts() {
        let mut h = Histogram::new();
        assert!(h.cumulative_buckets().is_empty());
        for v in [10u64, 10, 500, 64_000, 64_001] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        // Bounds ascend strictly, counts never decrease.
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1));
        // Every observation is ≤ the last bound; count closes at total.
        assert_eq!(buckets.last().unwrap().1, h.count());
        assert!(buckets.last().unwrap().0 >= h.max());
        assert_eq!(h.sum(), 128_521);
    }

    #[test]
    fn histogram_extremes_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_overflow_counts_saturated_buckets() {
        let mut h = Histogram::new();
        h.record(1_000);
        h.record((1 << 62) - 1); // largest value with a finite bucket bound
        assert_eq!(h.overflow(), 0, "finite-bound buckets never overflow");
        h.record(1 << 62);
        h.record_n(u64::MAX, 3);
        assert_eq!(h.overflow(), 4);
        // Merge accumulates overflow alongside the bucket counts.
        let mut other = Histogram::new();
        other.record(1 << 63);
        h.merge(&other);
        assert_eq!(h.overflow(), 5);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn ecdf_points_are_monotone() {
        let e = Ecdf::from_observations(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let pts: Vec<_> = e.points().collect();
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }
}
