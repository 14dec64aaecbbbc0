//! Deterministic top-k selection of scored items.
//!
//! Every recommender ends with "return the k highest-scored unseen books",
//! over catalogues of a few thousand items and k from 10 to a few hundred.
//! [`TopK`] buffers the offers that beat its current floor; when the
//! buffer reaches `2k` entries, `select_nth_unstable_by` cuts it back to
//! the best `k` and the k-th best becomes the new floor. On a long scan
//! most offers lose to the floor and cost one compare, selection is O(n)
//! expected plus O(k log k) to sort the survivors, and nothing is
//! allocated beyond the `2k`-slot buffer.
//!
//! The order is total ([`f32::total_cmp`], ties broken toward the *lower*
//! item index), so the best `k` and their order are unique: results are
//! fully deterministic regardless of the order items are offered in.

use std::cmp::Ordering;

/// One scored candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// Item identifier (recommenders use dense item indices).
    pub item: u32,
    /// Score; higher is better. NaN scores are skipped by
    /// [`TopK::push`] in every build profile, and the selector's ordering
    /// is total ([`f32::total_cmp`]) so a NaN reaching the comparator can
    /// never panic a serving thread.
    pub score: f32,
}

impl Scored {
    /// Ordering used by the selector: primarily by score, ties by
    /// *reversed* item index so that the "smaller index wins" rule holds
    /// for equal scores.
    ///
    /// Scores compare with [`f32::total_cmp`], which is total over every
    /// bit pattern — `push` filters NaN, but a serving path must not be
    /// able to panic on one slipping through in a release build.
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then(other.item.cmp(&self.item))
    }
}

/// Bounded selector of the `k` highest-scored items.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// Offers that beat `floor`, unordered; cut back to the best `k`
    /// whenever it reaches `2k`.
    buf: Vec<Scored>,
    /// The k-th best item the last cut kept: an offer must beat it to be
    /// buffered. [`TopK::OPEN`] until the first cut.
    floor: Scored,
}

impl TopK {
    /// The floor of a selector that has not cut yet. A negative NaN sorts
    /// below `-inf` under [`f32::total_cmp`], so every offer that passes
    /// `push`'s NaN check beats it.
    const OPEN: Scored = Scored {
        item: u32::MAX,
        score: -f32::NAN,
    };

    /// Creates a selector that keeps the best `k` items.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        let mut sel = Self {
            k,
            buf: Vec::new(),
            floor: Self::OPEN,
        };
        sel.reset(k);
        sel
    }

    /// Number of items the selector would return now: the offers kept so
    /// far, at most `k`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len().min(self.k)
    }

    /// True when the selector holds no item.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Offers a candidate. NaN scores are dropped: a recommender that
    /// divides by a zero norm must degrade a candidate, not kill serving.
    #[inline]
    pub fn push(&mut self, item: u32, score: f32) {
        let cand = Scored { item, score };
        if score.is_nan() || cand.cmp_key(&self.floor) != Ordering::Greater {
            return;
        }
        self.buf.push(cand);
        if self.buf.len() == 2 * self.k {
            self.cut();
        }
    }

    /// Consumes the selector, returning items sorted best-first
    /// (descending score, ascending item index on ties).
    #[must_use]
    pub fn into_sorted(mut self) -> Vec<Scored> {
        self.sort_survivors();
        self.buf
    }

    /// Re-arms the selector for a new `k`, keeping the buffer's allocation
    /// — the reuse hook of the zero-alloc scoring path.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "top-k requires k >= 1");
        self.buf.clear();
        self.floor = Self::OPEN;
        // With the buffer empty, this guarantees capacity >= 2k, the most
        // it holds before a cut: it may grow the buffer on the first reuse
        // with a larger k, and is a no-op (allocation-free) afterwards.
        self.buf.reserve(k.saturating_mul(2));
        self.k = k;
    }

    /// Drains the selection into `out` (cleared first) best-first, leaving
    /// the selector empty but its allocation intact. Allocation-free once
    /// `out` has capacity `k`.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<u32>) {
        self.sort_survivors();
        out.clear();
        out.extend(self.buf.iter().map(|s| s.item));
        self.buf.clear();
        self.floor = Self::OPEN;
    }

    /// Cuts the buffer (more than `k` entries) back to its best `k` and
    /// raises the floor to the k-th best.
    fn cut(&mut self) {
        let last = self.k - 1;
        self.buf.select_nth_unstable_by(last, |a, b| b.cmp_key(a));
        self.buf.truncate(self.k);
        self.floor = self.buf[last];
    }

    /// Leaves only the best `k` in the buffer, sorted best-first.
    fn sort_survivors(&mut self) {
        if self.buf.len() > self.k {
            self.cut();
        }
        // Unstable sort: `cmp_key` is total and no two entries share an
        // item index, so stability buys nothing — and the unstable sort
        // does not allocate, which the zero-alloc scoring path relies on.
        self.buf.sort_unstable_by(|a, b| b.cmp_key(a));
    }
}

/// Selects the top-`k` of an iterator of `(item, score)` pairs, best-first.
#[must_use]
pub fn top_k_of(iter: impl IntoIterator<Item = (u32, f32)>, k: usize) -> Vec<Scored> {
    let mut sel = TopK::new(k);
    for (item, score) in iter {
        sel.push(item, score);
    }
    sel.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keeps_best_k() {
        let scored = top_k_of((0..100).map(|i| (i, i as f32)), 3);
        let items: Vec<u32> = scored.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![99, 98, 97]);
    }

    #[test]
    fn fewer_than_k_returns_all_sorted() {
        let scored = top_k_of([(4, 0.5), (2, 0.9)], 10);
        let items: Vec<u32> = scored.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![2, 4]);
    }

    #[test]
    fn ties_break_by_lower_index() {
        let scored = top_k_of([(5, 1.0), (1, 1.0), (3, 1.0)], 2);
        let items: Vec<u32> = scored.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![1, 3]);
    }

    #[test]
    fn negative_scores_handled() {
        let scored = top_k_of([(0, -3.0), (1, -1.0), (2, -2.0)], 2);
        let items: Vec<u32> = scored.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        let _ = TopK::new(0);
    }

    #[test]
    fn nan_scores_are_skipped_not_fatal() {
        // NaN offers are dropped whether the selector is filling or full,
        // and never displace a real candidate.
        let scored = top_k_of(
            [
                (0, f32::NAN),
                (1, 1.0),
                (2, f32::NAN),
                (3, 2.0),
                (4, f32::NAN),
            ],
            2,
        );
        let items: Vec<u32> = scored.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![3, 1]);
    }

    #[test]
    fn infinities_order_correctly() {
        let scored = top_k_of(
            [
                (0, f32::NEG_INFINITY),
                (1, 0.0),
                (2, f32::INFINITY),
                (3, -1.0),
            ],
            3,
        );
        let items: Vec<u32> = scored.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![2, 1, 3]);
        // -inf still wins a selector with room.
        let lone = top_k_of([(7, f32::NEG_INFINITY)], 2);
        assert_eq!(lone.len(), 1);
        assert_eq!(lone[0].item, 7);
    }

    #[test]
    fn mixed_nan_inf_churn_is_total() {
        // Release-build regression guard for the old partial_cmp panic:
        // interleave NaN and ±inf through enough pushes to cut the buffer
        // many times.
        let mut sel = TopK::new(4);
        for i in 0..64u32 {
            let score = match i % 4 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                _ => (i as f32).sin(),
            };
            sel.push(i, score);
        }
        let got = sel.into_sorted();
        assert_eq!(got.len(), 4);
        assert!(got.iter().all(|s| !s.score.is_nan()));
        for w in got.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn reset_and_drain_reuse_allocations() {
        let mut sel = TopK::new(8);
        let mut out = Vec::with_capacity(8);
        for round in 0..3u32 {
            sel.reset(3);
            for i in 0..50u32 {
                sel.push(i, f64::from((i * 7 + round) % 13) as f32);
            }
            sel.drain_sorted_into(&mut out);
            assert_eq!(out.len(), 3);
            assert!(sel.is_empty());
        }
        // Pointer stability across a full reset+refill cycle proves the
        // output buffer is reused, not reallocated.
        let out_ptr = out.as_ptr();
        sel.reset(3);
        for i in 0..50u32 {
            sel.push(i, i as f32);
        }
        sel.drain_sorted_into(&mut out);
        assert_eq!(out.as_ptr(), out_ptr, "out buffer must be reused");
        assert_eq!(out, vec![49, 48, 47]);
    }

    #[test]
    fn drain_matches_into_sorted() {
        let pairs = [(5u32, 1.0f32), (1, 3.0), (9, 2.0), (4, 3.0)];
        let mut sel = TopK::new(3);
        let mut from_drain = Vec::new();
        for (i, s) in pairs {
            sel.push(i, s);
        }
        sel.drain_sorted_into(&mut from_drain);
        let from_sorted: Vec<u32> = top_k_of(pairs, 3).into_iter().map(|s| s.item).collect();
        assert_eq!(from_drain, from_sorted);
    }

    /// Scores that tie often and cover every edge of `total_cmp`:
    /// signed zeros, NaN, both infinities, and repeated finite values.
    const EDGE_SCORES: [f32; 8] = [
        -0.0,
        0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.0,
        -1.0,
        1.0,
    ];

    proptest! {
        #[test]
        fn matches_full_sort(
            draws in proptest::collection::vec((0usize..16, -100i32..100), 1..200),
            ascending in 0u8..2,
            ks in proptest::collection::vec(1usize..240, 1..5),
        ) {
            // Half the draws come from the edge pool, half are integers.
            let mut scores: Vec<f32> = draws
                .iter()
                .map(|&(pick, int)| EDGE_SCORES.get(pick).copied().unwrap_or(int as f32))
                .collect();
            // Ascending offers all beat the floor: one cut per k offers.
            if ascending == 1 {
                scores.sort_by(f32::total_cmp);
            }
            let pairs: Vec<(u32, f32)> = scores
                .into_iter()
                .enumerate()
                .map(|(i, s)| (i as u32, s))
                .collect();
            let mut all: Vec<(u32, f32)> =
                pairs.iter().copied().filter(|p| !p.1.is_nan()).collect();
            all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

            // One selector, re-armed while k grows and shrinks past n.
            let mut sel = TopK::new(ks[0]);
            let mut got = Vec::new();
            for &k in &ks {
                let want: Vec<(u32, u32)> =
                    all.iter().take(k).map(|&(i, s)| (i, s.to_bits())).collect();
                sel.reset(k);
                let buffer = (sel.buf.as_ptr(), sel.buf.capacity());
                for &(i, s) in &pairs {
                    sel.push(i, s);
                }
                sel.drain_sorted_into(&mut got);
                // Nothing was allocated after the reset.
                prop_assert_eq!((sel.buf.as_ptr(), sel.buf.capacity()), buffer);
                prop_assert_eq!(&got, &want.iter().map(|p| p.0).collect::<Vec<_>>());

                let sorted: Vec<(u32, u32)> = top_k_of(pairs.iter().copied(), k)
                    .iter()
                    .map(|s| (s.item, s.score.to_bits()))
                    .collect();
                prop_assert_eq!(sorted, want);
            }
        }

        #[test]
        fn result_is_sorted_desc(scores in proptest::collection::vec(-1.0f32..1.0, 1..100)) {
            let got = top_k_of(scores.iter().enumerate().map(|(i, &s)| (i as u32, s)), 10);
            for w in got.windows(2) {
                prop_assert!(w[0].score >= w[1].score);
            }
        }
    }
}
