//! Bootstrap confidence intervals over evaluation users.
//!
//! The paper reports point KPIs; a reproduction should also say how firm a
//! comparison is. Per-user outcomes (hits@k, test size, first rank) are
//! computed once, then user indices are resampled with replacement —
//! making both single-system CIs and *paired* difference CIs (the right
//! tool for "BPR beats Closest Items") cheap: no model re-evaluation per
//! resample.

use crate::metrics::UserCase;
use rand::{Rng, RngExt};
use rm_core::Recommender;
use rm_util::rng::rng_from_seed;

/// Which KPI a bootstrap targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Users with Relevant Recommendations (Eq. 4).
    Urr,
    /// Average relevant recommendations (Eq. 5).
    Nrr,
    /// Precision (Eq. 6).
    Precision,
    /// Recall (Eq. 7).
    Recall,
    /// Average first-rank position.
    FirstRank,
}

/// Pre-computed per-user evaluation outcomes for one recommender.
#[derive(Debug, Clone)]
pub struct PerUserStats {
    /// Relevant recommendations in the top-k, per user.
    pub hits: Vec<u32>,
    /// Test-set size per user.
    pub test_sizes: Vec<u32>,
    /// First relevant rank per user (sentinel = ranking length + 1 —
    /// one past the end — when no test book appears).
    pub first_ranks: Vec<f64>,
    /// The list length.
    pub k: usize,
}

impl PerUserStats {
    /// Evaluates `rec` once per user, recording the per-user outcomes.
    #[must_use]
    pub fn collect(rec: &dyn Recommender, cases: &[UserCase<'_>], k: usize) -> Self {
        let mut hits = Vec::with_capacity(cases.len());
        let mut test_sizes = Vec::with_capacity(cases.len());
        let mut first_ranks = Vec::with_capacity(cases.len());
        for case in cases {
            if case.test.is_empty() {
                continue;
            }
            let ranking = rec.rank_all(case.user);
            let mut h = 0u32;
            let mut first = None;
            for (pos, b) in ranking.iter().enumerate() {
                if case.test.binary_search(b).is_ok() {
                    if pos < k {
                        h += 1;
                    }
                    if first.is_none() {
                        first = Some(pos + 1);
                    }
                    // Past k and first found: nothing else to learn.
                    if pos >= k {
                        break;
                    }
                }
            }
            hits.push(h);
            test_sizes.push(case.test.len() as u32);
            // Same miss sentinel as `metrics::count`: one rank past
            // the end of the list.
            first_ranks.push(first.unwrap_or(ranking.len() + 1) as f64);
        }
        Self {
            hits,
            test_sizes,
            first_ranks,
            k,
        }
    }

    /// Number of evaluation users.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// True when no user was evaluated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// The metric value over a subset of user indices (with repetitions —
    /// a bootstrap resample).
    #[must_use]
    pub fn metric_of(&self, metric: Metric, idx: &[usize]) -> f64 {
        let n = idx.len().max(1) as f64;
        match metric {
            Metric::Urr => idx.iter().filter(|&&i| self.hits[i] > 0).count() as f64 / n,
            Metric::Nrr => idx.iter().map(|&i| f64::from(self.hits[i])).sum::<f64>() / n,
            Metric::Precision => {
                idx.iter()
                    .map(|&i| f64::from(self.hits[i]) / self.k as f64)
                    .sum::<f64>()
                    / n
            }
            Metric::Recall => {
                idx.iter()
                    .map(|&i| f64::from(self.hits[i]) / f64::from(self.test_sizes[i]))
                    .sum::<f64>()
                    / n
            }
            Metric::FirstRank => idx.iter().map(|&i| self.first_ranks[i]).sum::<f64>() / n,
        }
    }

    /// The metric over all users (the point estimate).
    #[must_use]
    pub fn point(&self, metric: Metric) -> f64 {
        let idx: Vec<usize> = (0..self.len()).collect();
        self.metric_of(metric, &idx)
    }
}

/// A percentile bootstrap interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Point estimate on the full user set.
    pub point: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Confidence level (e.g. 0.95).
    pub level: f64,
}

impl Interval {
    /// Whether the interval excludes zero (for difference intervals: the
    /// comparison is significant at the interval's level).
    #[must_use]
    pub fn excludes_zero(&self) -> bool {
        self.lo > 0.0 || self.hi < 0.0
    }
}

fn percentile_interval(mut samples: Vec<f64>, point: f64, level: f64) -> Interval {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite bootstrap samples"));
    let alpha = (1.0 - level) / 2.0;
    let pick = |q: f64| {
        let pos = ((samples.len() - 1) as f64 * q).round() as usize;
        samples[pos]
    };
    Interval {
        point,
        lo: pick(alpha),
        hi: pick(1.0 - alpha),
        level,
    }
}

fn resample<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<usize> {
    (0..n).map(|_| rng.random_range(0..n)).collect()
}

/// Percentile bootstrap CI of one recommender's metric.
///
/// # Panics
///
/// Panics if `stats` is empty, `replicates == 0`, or `level ∉ (0, 1)`.
#[must_use]
pub fn bootstrap_ci(
    stats: &PerUserStats,
    metric: Metric,
    replicates: usize,
    seed: u64,
    level: f64,
) -> Interval {
    assert!(!stats.is_empty(), "no users to bootstrap");
    assert!(replicates > 0, "need at least one replicate");
    assert!(level > 0.0 && level < 1.0, "level out of range");
    let mut rng = rng_from_seed(seed);
    let samples: Vec<f64> = (0..replicates)
        .map(|_| stats.metric_of(metric, &resample(&mut rng, stats.len())))
        .collect();
    percentile_interval(samples, stats.point(metric), level)
}

/// Paired-difference bootstrap CI: `metric(a) − metric(b)` resampling the
/// *same* users for both systems. Both stats must come from the same case
/// list in the same order.
///
/// # Panics
///
/// Panics on length mismatch or invalid parameters.
#[must_use]
pub fn paired_difference_ci(
    a: &PerUserStats,
    b: &PerUserStats,
    metric: Metric,
    replicates: usize,
    seed: u64,
    level: f64,
) -> Interval {
    assert_eq!(
        a.len(),
        b.len(),
        "paired bootstrap needs identical user sets"
    );
    assert!(!a.is_empty(), "no users to bootstrap");
    assert!(replicates > 0, "need at least one replicate");
    assert!(level > 0.0 && level < 1.0, "level out of range");
    let mut rng = rng_from_seed(seed);
    let samples: Vec<f64> = (0..replicates)
        .map(|_| {
            let idx = resample(&mut rng, a.len());
            a.metric_of(metric, &idx) - b.metric_of(metric, &idx)
        })
        .collect();
    percentile_interval(samples, a.point(metric) - b.point(metric), level)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(hits: Vec<u32>) -> PerUserStats {
        let n = hits.len();
        PerUserStats {
            hits,
            test_sizes: vec![4; n],
            first_ranks: vec![10.0; n],
            k: 20,
        }
    }

    #[test]
    fn point_estimates_match_definitions() {
        let s = stats(vec![0, 1, 2, 0]);
        assert_eq!(s.point(Metric::Urr), 0.5);
        assert_eq!(s.point(Metric::Nrr), 0.75);
        assert!((s.point(Metric::Precision) - 0.75 / 20.0).abs() < 1e-12);
        assert_eq!(s.point(Metric::Recall), 0.75 / 4.0);
        assert_eq!(s.point(Metric::FirstRank), 10.0);
    }

    #[test]
    fn ci_contains_point_for_iid_data() {
        let s = stats((0..200).map(|i| u32::from(i % 3 == 0)).collect());
        let ci = bootstrap_ci(&s, Metric::Urr, 500, 7, 0.95);
        assert!(ci.lo <= ci.point && ci.point <= ci.hi);
        assert!(ci.hi - ci.lo < 0.2, "CI too wide: {ci:?}");
    }

    #[test]
    fn ci_is_deterministic_per_seed() {
        let s = stats((0..100).map(|i| u32::from(i % 2 == 0)).collect());
        let a = bootstrap_ci(&s, Metric::Nrr, 200, 1, 0.9);
        let b = bootstrap_ci(&s, Metric::Nrr, 200, 1, 0.9);
        assert_eq!(a, b);
        let c = bootstrap_ci(&s, Metric::Nrr, 200, 2, 0.9);
        assert_ne!(a, c);
    }

    #[test]
    fn paired_difference_detects_a_clear_gap() {
        // System A hits twice as often as B on the same users.
        let a = stats((0..300).map(|i| u32::from(i % 2 == 0)).collect());
        let b = stats((0..300).map(|i| u32::from(i % 4 == 0)).collect());
        let ci = paired_difference_ci(&a, &b, Metric::Urr, 500, 3, 0.95);
        assert!(ci.point > 0.2);
        assert!(ci.excludes_zero(), "gap should be significant: {ci:?}");
    }

    #[test]
    fn paired_difference_of_identical_systems_includes_zero() {
        let a = stats((0..300).map(|i| u32::from(i % 3 == 0)).collect());
        let ci = paired_difference_ci(&a, &a.clone(), Metric::Urr, 300, 4, 0.95);
        assert_eq!(ci.point, 0.0);
        assert!(!ci.excludes_zero());
    }

    #[test]
    fn collect_matches_evaluate() {
        use rm_dataset::ids::{BookIdx, UserIdx};
        use rm_dataset::interactions::Interactions;

        struct Fixed {
            train: Interactions,
        }
        impl Recommender for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn fit(&mut self, _t: &Interactions) {}
            fn score(&self, _u: UserIdx, b: BookIdx) -> f32 {
                -(b.0 as f32)
            }
            fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32> {
                let seen = self.train.seen(user);
                (0..self.train.n_books() as u32)
                    .filter(|b| seen.binary_search(b).is_err())
                    .take(k)
                    .collect()
            }
            fn rank_all(&self, user: UserIdx) -> Vec<u32> {
                self.recommend(user, self.train.n_books())
            }
        }
        let rec = Fixed {
            train: Interactions::from_pairs(1, 10, &[(UserIdx(0), BookIdx(0))]),
        };
        let test = [2u32, 9];
        let cases = [UserCase {
            user: UserIdx(0),
            test: &test,
        }];
        let stats = PerUserStats::collect(&rec, &cases, 3);
        let kpis = crate::metrics::evaluate(&rec, &cases, 3);
        assert_eq!(stats.point(Metric::Urr), kpis.urr);
        assert_eq!(stats.point(Metric::Nrr), kpis.nrr);
        assert!((stats.point(Metric::Recall) - kpis.recall).abs() < 1e-12);
        assert_eq!(stats.point(Metric::FirstRank), kpis.first_rank);
    }

    #[test]
    #[should_panic(expected = "identical user sets")]
    fn paired_mismatch_rejected() {
        let a = stats(vec![1, 0]);
        let b = stats(vec![1]);
        let _ = paired_difference_ci(&a, &b, Metric::Urr, 10, 0, 0.9);
    }
}
