//! Discrete and continuous sampling machinery.
//!
//! The synthetic data generators draw millions of events from skewed
//! categorical distributions (book popularity, genre preference), so the
//! workhorse here is [`AliasTable`] — Walker's alias method, O(n) setup and
//! O(1) per draw. [`ZipfWeights`] produces the power-law popularity profiles
//! the paper's dataset exhibits, and [`LogNormal`] models per-user activity
//! (heavy-tailed reading counts). All samplers take the RNG by `&mut` so
//! callers control seeding.

use rand::{Rng, RngExt};

/// Walker alias table for O(1) sampling from a fixed categorical
/// distribution.
///
/// Construction normalises the weights; zero weights are allowed (those
/// indices are never drawn) but the total weight must be positive and finite.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance probability for each bucket, scaled to [0, 1].
    prob: Vec<f64>,
    /// Alias index for each bucket.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds an alias table from unnormalised weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    #[must_use]
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        assert!(
            weights.len() <= u32::MAX as usize,
            "alias table supports at most 2^32-1 outcomes"
        );
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(
                    w.is_finite() && w >= 0.0,
                    "weights must be finite and non-negative"
                );
                w
            })
            .sum();
        assert!(total > 0.0, "total weight must be positive");

        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];

        // Classic two-stack construction. `small` holds buckets with
        // remaining mass < 1, `large` those with > 1.
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            // Move the deficit of `s` out of `l`.
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical slack: leftovers get probability 1.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }

        Self { prob, alias }
    }

    /// Number of outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table has no outcomes (never: construction forbids it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome index.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.random_range(0..self.prob.len());
        let coin: f64 = rng.random();
        if coin < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// Unnormalised Zipf–Mandelbrot weights `1 / (rank + shift)^exponent` for
/// ranks `0..n`.
///
/// `shift > 0` flattens the head (plain Zipf is `shift = 1.0` applied to
/// 1-based ranks). The synthetic catalogue uses these as popularity weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfWeights {
    /// Power-law exponent (`s` in 1/rank^s). Typical range 0.5–1.5.
    pub exponent: f64,
    /// Mandelbrot shift added to the 1-based rank.
    pub shift: f64,
}

impl ZipfWeights {
    /// Plain Zipf with the given exponent.
    #[must_use]
    pub fn new(exponent: f64) -> Self {
        Self {
            exponent,
            shift: 0.0,
        }
    }

    /// Zipf–Mandelbrot with a head-flattening shift.
    #[must_use]
    pub fn with_shift(exponent: f64, shift: f64) -> Self {
        Self { exponent, shift }
    }

    /// Weight of 0-based rank `r`.
    #[inline]
    #[must_use]
    pub fn weight(&self, r: usize) -> f64 {
        ((r + 1) as f64 + self.shift).powf(-self.exponent)
    }

    /// Materialises weights for ranks `0..n`.
    #[must_use]
    pub fn weights(&self, n: usize) -> Vec<f64> {
        (0..n).map(|r| self.weight(r)).collect()
    }

    /// Builds an alias table over ranks `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn alias_table(&self, n: usize) -> AliasTable {
        AliasTable::new(&self.weights(n))
    }
}

/// A log-normal distribution sampled via Box–Muller.
///
/// `mu`/`sigma` are the parameters of the underlying normal (so the median is
/// `exp(mu)`). Used for per-user activity volumes, which the paper reports as
/// strongly right-skewed (mean 33 loans, 75 % of users below 24).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal distribution.
    pub mu: f64,
    /// Standard deviation of the underlying normal distribution.
    pub sigma: f64,
}

impl LogNormal {
    /// Creates the distribution; `sigma` must be non-negative.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    #[must_use]
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        Self { mu, sigma }
    }

    /// Draws one value.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// Draws one value, clamped to `[lo, hi]` and rounded to the nearest
    /// integer — the common "how many readings does this user have" shape.
    #[inline]
    pub fn sample_count<R: Rng + ?Sized>(&self, rng: &mut R, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let v = self.sample(rng).round();
        if v <= lo as f64 {
            lo
        } else if v >= hi as f64 {
            hi
        } else {
            v as u64
        }
    }
}

/// One draw from the standard normal distribution (Box–Muller, polar-free
/// form). Two uniforms per draw; the paired variate is discarded for
/// simplicity — generation here is nowhere near the profile's hot path.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard against ln(0).
    let u1: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::EPSILON {
            break u;
        }
    };
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples one index from unnormalised `weights` by inverse-CDF walk.
///
/// O(n) per draw — fine for one-off draws over small supports where building
/// an [`AliasTable`] would not pay off.
///
/// # Panics
///
/// Panics if weights are empty or sum to zero.
pub fn sample_weighted_once<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must have positive total");
    let mut target = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target < 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    fn frequencies(table: &AliasTable, draws: usize, seed: u64) -> Vec<f64> {
        let mut rng = rng_from_seed(seed);
        let mut counts = vec![0usize; table.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn alias_matches_distribution() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights);
        let freq = frequencies(&table, 200_000, 1);
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / 10.0;
            assert!(
                (freq[i] - expected).abs() < 0.01,
                "bucket {i}: got {} want {expected}",
                freq[i]
            );
        }
    }

    #[test]
    fn alias_zero_weight_never_drawn() {
        let table = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]);
        let freq = frequencies(&table, 50_000, 2);
        assert_eq!(freq[0], 0.0);
        assert_eq!(freq[2], 0.0);
    }

    #[test]
    fn alias_single_outcome() {
        let table = AliasTable::new(&[3.5]);
        let mut rng = rng_from_seed(3);
        for _ in 0..10 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn alias_rejects_zero_total() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn alias_rejects_empty() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    fn zipf_weights_decrease() {
        let z = ZipfWeights::new(1.0);
        let w = z.weights(10);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        assert!((w[0] / w[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_shift_flattens_head() {
        let plain = ZipfWeights::new(1.0);
        let shifted = ZipfWeights::with_shift(1.0, 5.0);
        let ratio_plain = plain.weight(0) / plain.weight(1);
        let ratio_shifted = shifted.weight(0) / shifted.weight(1);
        assert!(ratio_shifted < ratio_plain);
    }

    #[test]
    fn lognormal_median_near_exp_mu() {
        let d = LogNormal::new(3.0, 0.8);
        let mut rng = rng_from_seed(4);
        let mut v: Vec<f64> = (0..20_001).map(|_| d.sample(&mut rng)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        let expected = 3.0f64.exp();
        assert!(
            (median / expected - 1.0).abs() < 0.05,
            "median {median} vs {expected}"
        );
    }

    #[test]
    fn lognormal_count_respects_bounds() {
        let d = LogNormal::new(3.0, 1.5);
        let mut rng = rng_from_seed(5);
        for _ in 0..1000 {
            let c = d.sample_count(&mut rng, 10, 480);
            assert!((10..=480).contains(&c));
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = rng_from_seed(6);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn sample_weighted_once_respects_weights() {
        let mut rng = rng_from_seed(9);
        let weights = [0.0, 9.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[sample_weighted_once(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let share1 = counts[1] as f64 / 20_000.0;
        assert!((share1 - 0.9).abs() < 0.01, "share {share1}");
    }
}
