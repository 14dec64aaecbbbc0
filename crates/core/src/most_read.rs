//! The *Most Read Items* baseline (Section 4): the top-k most-read books
//! of the training set, identical for every user minus their seen set.
//!
//! The paper finds this baseline *below* Random for BCT users — the merged
//! training set is dominated by Anobii readers whose popularity profile
//! (comics-heavy) differs from the library public's. The implementation
//! here reproduces that mechanism faithfully: popularity is computed over
//! *all* training readings.

use crate::Recommender;
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;

/// Global-popularity recommender.
#[derive(Debug, Clone, Default)]
pub struct MostReadItems {
    /// Books sorted by descending training read count (ties by index).
    by_popularity: Vec<u32>,
    /// Read count per book.
    counts: Vec<u64>,
    train: Option<Interactions>,
}

impl MostReadItems {
    /// Creates the (unfitted) baseline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the baseline from persisted read counts (see
    /// [`crate::persist`]): the popularity order is derived from the
    /// counts, exactly as [`Recommender::fit`] derives it. The training
    /// matrix for seen-book exclusion must follow via
    /// [`MostReadItems::install`].
    #[must_use]
    pub fn from_counts(counts: Vec<u64>) -> Self {
        let mut m = Self::default();
        m.set_counts(counts);
        m
    }

    /// Attaches the interactions used for seen-book exclusion to a model
    /// restored by [`MostReadItems::from_counts`].
    ///
    /// # Panics
    ///
    /// Panics if the catalogue sizes disagree.
    pub fn install(&mut self, train: &Interactions) {
        assert_eq!(self.counts.len(), train.n_books(), "book count mismatch");
        self.train = Some(train.clone());
    }

    fn set_counts(&mut self, counts: Vec<u64>) {
        let mut order: Vec<u32> = (0..counts.len() as u32).collect();
        order.sort_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b)));
        self.counts = counts;
        self.by_popularity = order;
    }

    /// The fitted training matrix, or `None` before [`Recommender::fit`].
    /// Request-path methods degrade through this instead of panicking:
    /// an unfitted model on the serve path answers empty rather than
    /// poisoning a worker.
    fn fitted(&self) -> Option<&Interactions> {
        self.train.as_ref()
    }

    /// Read count of a book in the training set.
    #[must_use]
    pub fn count(&self, book: BookIdx) -> u64 {
        self.counts[book.index()]
    }

    /// Read counts per book (the persisted state).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Books sorted by descending read count (ties by index).
    #[must_use]
    pub fn popularity_order(&self) -> &[u32] {
        &self.by_popularity
    }
}

impl Recommender for MostReadItems {
    fn name(&self) -> &str {
        "Most Read Items"
    }

    fn fit(&mut self, train: &Interactions) {
        self.set_counts(train.book_counts());
        self.train = Some(train.clone());
    }

    fn score(&self, _user: UserIdx, book: BookIdx) -> f32 {
        self.counts[book.index()] as f32
    }

    fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32> {
        let Some(train) = self.fitted() else {
            return Vec::new();
        };
        let seen = train.seen(user);
        self.by_popularity
            .iter()
            .copied()
            .filter(|&b| seen.binary_search(&b).is_err())
            .take(k)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fitted() -> MostReadItems {
        // Book read counts: 0 → 3, 1 → 1, 2 → 2, 3 → 0.
        let train = Interactions::from_pairs(
            3,
            4,
            &[
                (UserIdx(0), BookIdx(0)),
                (UserIdx(1), BookIdx(0)),
                (UserIdx(2), BookIdx(0)),
                (UserIdx(0), BookIdx(2)),
                (UserIdx(1), BookIdx(2)),
                (UserIdx(2), BookIdx(1)),
            ],
        );
        let mut m = MostReadItems::new();
        m.fit(&train);
        m
    }

    #[test]
    fn popularity_order() {
        let m = fitted();
        // User 1 has read 0 and 2 → gets 1 then 3.
        assert_eq!(m.recommend(UserIdx(1), 4), vec![1, 3]);
        // User 2 has read 0 and 1 → gets 2 then 3.
        assert_eq!(m.recommend(UserIdx(2), 4), vec![2, 3]);
    }

    #[test]
    fn same_global_list_for_everyone() {
        let m = fitted();
        // An (imaginary) user with nothing read: compare two users' lists
        // ignoring exclusions — both are prefixes of the same order.
        assert_eq!(m.rank_all(UserIdx(1)), vec![1, 3]);
        assert_eq!(m.rank_all(UserIdx(2)), vec![2, 3]);
        assert_eq!(m.score(UserIdx(0), BookIdx(0)), 3.0);
        assert_eq!(m.score(UserIdx(1), BookIdx(0)), 3.0);
    }

    #[test]
    fn counts_exposed() {
        let m = fitted();
        assert_eq!(m.count(BookIdx(0)), 3);
        assert_eq!(m.count(BookIdx(3)), 0);
    }

    #[test]
    fn k_truncates() {
        let m = fitted();
        assert_eq!(m.recommend(UserIdx(1), 1), vec![1]);
    }

    #[test]
    fn ties_break_by_index() {
        let train = Interactions::from_pairs(1, 3, &[(UserIdx(0), BookIdx(2))]);
        let mut m = MostReadItems::new();
        m.fit(&train);
        // Books 0 and 1 both have count 0 → index order.
        assert_eq!(m.recommend(UserIdx(0), 3), vec![0, 1]);
    }
}
