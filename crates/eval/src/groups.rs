//! User grouping by training-history size (Section 6.1 / Fig. 4).
//!
//! The paper buckets evaluation users by the number of their books in the
//! training set, choosing interval bins "to have approximately the same
//! number of users in each group" (its bins: < 8, 8–10, 11–16, 17–100).

use crate::metrics::{evaluate, Kpis, UserCase};
use rm_core::Recommender;

/// A half-open bin `[lo, hi]` (inclusive bounds, as the paper labels them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryBin {
    /// Smallest training-history size in the bin.
    pub lo: u64,
    /// Largest training-history size in the bin.
    pub hi: u64,
}

impl HistoryBin {
    /// Whether a history size falls in this bin.
    #[must_use]
    pub fn contains(&self, n: u64) -> bool {
        (self.lo..=self.hi).contains(&n)
    }

    /// The paper-style label, e.g. `"<8"` or `"8-10"`.
    #[must_use]
    pub fn label(&self, first: bool) -> String {
        if first {
            format!("<{}", self.hi + 1)
        } else {
            format!("{}-{}", self.lo, self.hi)
        }
    }
}

/// Splits `histories` (training-readings count per evaluation user) into
/// `n_bins` bins of approximately equal population. Returns the bins in
/// ascending order.
///
/// Bin `b` should end after `(b + 1)·n/n_bins` of the `n` users, but all
/// users with one history size share a bin, so a cut that falls inside a
/// block of tied sizes ends the bin on whichever side of the block leaves
/// the cumulative count nearer that ideal (the upper side on a tie). A
/// bin left empty collapses, so fewer bins can come back for very
/// concentrated distributions.
///
/// # Panics
///
/// Panics if `histories` is empty or `n_bins == 0`.
#[must_use]
pub fn equal_population_bins(histories: &[u64], n_bins: usize) -> Vec<HistoryBin> {
    assert!(!histories.is_empty(), "no histories to bin");
    assert!(n_bins > 0, "need at least one bin");
    let mut sorted = histories.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let mut bins: Vec<HistoryBin> = Vec::with_capacity(n_bins);
    // Users binned so far: `sorted[..start]`.
    let mut start = 0;
    for b in 0..n_bins {
        let end = if b == n_bins - 1 {
            n
        } else {
            // Counts are compared scaled by `n_bins`, so the ideal cut
            // `(b + 1)·n/n_bins` stays exact; the user it falls on (or
            // just after, when it falls between two) names the block.
            let ideal = (b + 1) * n;
            let tied = sorted[ideal / n_bins];
            let below = sorted.partition_point(|&h| h < tied);
            let above = sorted.partition_point(|&h| h <= tied);
            if (below * n_bins).abs_diff(ideal) < (above * n_bins).abs_diff(ideal) {
                below
            } else {
                above
            }
        };
        if end > start {
            // Bins tile the range: each starts just above the previous one.
            let lo = bins.last().map_or(sorted[0], |prev| prev.hi + 1);
            bins.push(HistoryBin {
                lo,
                hi: sorted[end - 1],
            });
            start = end;
        }
    }
    bins
}

/// Result of a per-bin evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedKpis {
    /// The bin.
    pub bin: HistoryBin,
    /// Users in the bin.
    pub n_users: usize,
    /// KPIs over the bin's users.
    pub kpis: Kpis,
}

/// Evaluates a recommender per history bin at one `k`.
///
/// `histories[i]` must be the training-history size of `cases[i]`.
///
/// # Panics
///
/// Panics if the two slices differ in length.
#[must_use]
pub fn evaluate_by_bin(
    rec: &dyn Recommender,
    cases: &[UserCase<'_>],
    histories: &[u64],
    bins: &[HistoryBin],
    k: usize,
) -> Vec<BinnedKpis> {
    assert_eq!(cases.len(), histories.len(), "cases/histories mismatch");
    bins.iter()
        .map(|&bin| {
            let subset: Vec<UserCase<'_>> = cases
                .iter()
                .zip(histories)
                .filter(|(_, &h)| bin.contains(h))
                .map(|(c, _)| c.clone())
                .collect();
            let kpis = evaluate(rec, &subset, k);
            BinnedKpis {
                bin,
                n_users: kpis.n_users,
                kpis,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_have_equal_population() {
        let histories: Vec<u64> = (1..=100).collect();
        let bins = equal_population_bins(&histories, 4);
        assert_eq!(bins.len(), 4);
        for (i, bin) in bins.iter().enumerate() {
            let count = histories.iter().filter(|&&h| bin.contains(h)).count();
            assert_eq!(count, 25, "bin {i}: {bin:?}");
        }
        // Bins tile the range without gaps.
        for w in bins.windows(2) {
            assert_eq!(w[0].hi + 1, w[1].lo);
        }
    }

    #[test]
    fn paper_like_bins() {
        // A skewed distribution like the paper's: many small histories.
        let mut histories = Vec::new();
        for h in 1..8u64 {
            histories.extend(std::iter::repeat_n(h, 25));
        }
        for h in 8..=10 {
            histories.extend(std::iter::repeat_n(h, 60));
        }
        for h in 11..=16 {
            histories.extend(std::iter::repeat_n(h, 30));
        }
        for h in 17..=100 {
            histories.extend(std::iter::repeat_n(h, 2));
        }
        let bins = equal_population_bins(&histories, 4);
        assert_eq!(bins.len(), 4);
        assert_eq!(bins[0].lo, 1);
        assert_eq!(bins.last().unwrap().hi, 100);
    }

    #[test]
    fn tied_block_goes_to_the_nearer_side_of_each_cut() {
        // 100 users, ideal cuts after 25, 50 and 75: sizes 1..=10 once
        // each, size 11 sixty times, then 12..=41 once each.
        let mut histories: Vec<u64> = (1..=10).collect();
        histories.extend(std::iter::repeat_n(11, 60));
        histories.extend(12..=41);
        let bins = equal_population_bins(&histories, 4);
        // The cut after 25 falls in the tied block at 10 users below it
        // and 70 above, so the block starts the second bin rather than
        // swelling the first to 70 users and leaving the second empty.
        assert_eq!(
            bins,
            [(1, 10), (11, 11), (12, 16), (17, 41)].map(|(lo, hi)| HistoryBin { lo, hi })
        );
        let counts: Vec<usize> = bins
            .iter()
            .map(|bin| histories.iter().filter(|&&h| bin.contains(h)).count())
            .collect();
        assert_eq!(counts, [10, 60, 5, 25]);
    }

    #[test]
    fn fewer_users_than_bins() {
        let bins = equal_population_bins(&[3, 9], 4);
        assert_eq!(bins, [(3, 3), (4, 9)].map(|(lo, hi)| HistoryBin { lo, hi }));
    }

    #[test]
    fn duplicate_heavy_distribution_collapses_bins() {
        let histories = vec![5u64; 100];
        let bins = equal_population_bins(&histories, 4);
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0], HistoryBin { lo: 5, hi: 5 });
    }

    #[test]
    fn labels() {
        assert_eq!(HistoryBin { lo: 1, hi: 7 }.label(true), "<8");
        assert_eq!(HistoryBin { lo: 8, hi: 10 }.label(false), "8-10");
    }

    #[test]
    #[should_panic(expected = "no histories")]
    fn empty_histories_rejected() {
        let _ = equal_population_bins(&[], 3);
    }
}
