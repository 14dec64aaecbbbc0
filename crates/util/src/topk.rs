//! Deterministic top-k selection of scored items.
//!
//! Every recommender ends with "return the k highest-scored unseen books",
//! over catalogues of a few thousand items and k ≈ 20–50. A bounded binary
//! min-heap gives O(n log k) with no allocation beyond the k-slot buffer.
//! Ties are broken toward the *lower* item index so results are fully
//! deterministic regardless of iteration order quirks.

use std::cmp::Ordering;

/// One scored candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// Item identifier (recommenders use dense item indices).
    pub item: u32,
    /// Score; higher is better. NaN scores are skipped by
    /// [`TopK::push`] in every build profile, and the heap ordering is
    /// total ([`f32::total_cmp`]) so a NaN reaching the comparator can
    /// never panic a serving thread.
    pub score: f32,
}

impl Scored {
    /// Ordering used by the heap: primarily by score, ties by *reversed*
    /// item index so that the "smaller index wins" rule holds for equal
    /// scores.
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
    /// Min-heap on (score, Reverse(item)): `heap[0]` is the current worst
    /// kept element.
    heap: Vec<Scored>,
}

impl TopK {
    /// Creates a selector that keeps the best `k` items.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k requires k >= 1");
        Self {
            k,
            heap: Vec::with_capacity(k),
        }
    }

    /// Capacity `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of items currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no item has been offered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers a candidate. NaN scores are dropped: a recommender that
    /// divides by a zero norm must degrade a candidate, not kill serving.
    #[inline]
    pub fn push(&mut self, item: u32, score: f32) {
        if score.is_nan() {
            return;
        }
        let cand = Scored { item, score };
        if self.heap.len() < self.k {
            self.heap.push(cand);
            self.sift_up(self.heap.len() - 1);
        } else if cand.cmp_key(&self.heap[0]) == Ordering::Greater {
            self.heap[0] = cand;
            self.sift_down(0);
        }
    }

    /// The score a candidate must beat to enter a full selector; `None`
    /// while the selector still has room.
    #[must_use]
    pub fn threshold(&self) -> Option<f32> {
        (self.heap.len() == self.k).then(|| self.heap[0].score)
    }

    /// Consumes the selector, returning items sorted best-first
    /// (descending score, ascending item index on ties).
    #[must_use]
    pub fn into_sorted(mut self) -> Vec<Scored> {
        // Unstable sort: `cmp_key` is total and no two entries share an
        // item index, so stability buys nothing — and the unstable sort
        // does not allocate, which the zero-alloc scoring path relies on.
        self.heap.sort_unstable_by(|a, b| b.cmp_key(a));
        self.heap
    }

    /// Re-arms the selector for a new `k`, keeping the heap's allocation —
    /// the reuse hook of the zero-alloc scoring path.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "top-k requires k >= 1");
        self.k = k;
        self.heap.clear();
        // With the heap empty, this guarantees capacity >= k: it may grow
        // the buffer on the first reuse with a larger k, and is a no-op
        // (allocation-free) afterwards.
        self.heap.reserve(k);
    }

    /// Drains the selection into `out` (cleared first) best-first, leaving
    /// the selector empty but its allocation intact. Allocation-free once
    /// `out` has capacity `k`.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<u32>) {
        out.clear();
        self.heap.sort_unstable_by(|a, b| b.cmp_key(a));
        out.extend(self.heap.iter().map(|s| s.item));
        self.heap.clear();
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].cmp_key(&self.heap[parent]) == Ordering::Less {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut smallest = i;
            if l < n && self.heap[l].cmp_key(&self.heap[smallest]) == Ordering::Less {
                smallest = l;
            }
            if r < n && self.heap[r].cmp_key(&self.heap[smallest]) == Ordering::Less {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
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
    fn threshold_reports_current_floor() {
        let mut sel = TopK::new(2);
        assert_eq!(sel.threshold(), None);
        sel.push(0, 1.0);
        assert_eq!(sel.threshold(), None);
        sel.push(1, 2.0);
        assert_eq!(sel.threshold(), Some(1.0));
        sel.push(2, 3.0);
        assert_eq!(sel.threshold(), Some(2.0));
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
        // interleave NaN and ±inf through enough pushes to exercise both
        // sift directions.
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

    proptest! {
        #[test]
        fn matches_full_sort(scores in proptest::collection::vec(-1000i32..1000, 1..200), k in 1usize..30) {
            let pairs: Vec<(u32, f32)> = scores.iter().enumerate()
                .map(|(i, &s)| (i as u32, s as f32)).collect();
            let got: Vec<u32> = top_k_of(pairs.iter().copied(), k)
                .into_iter().map(|s| s.item).collect();

            let mut all = pairs;
            all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            all.truncate(k);
            let want: Vec<u32> = all.into_iter().map(|(i, _)| i).collect();
            prop_assert_eq!(got, want);
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
