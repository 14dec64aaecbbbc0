//! The *Random Items* baseline (Section 4): k unseen books uniformly at
//! random.
//!
//! Used by the paper "to understand if the RecSys is properly learning".
//! Recommendations are deterministic per (seed, user), so repeated
//! evaluations are reproducible; different users get independent draws.

use crate::Recommender;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;
use rm_util::rng::derive_seed;

/// Uniform-random recommender.
#[derive(Debug, Clone)]
pub struct RandomItems {
    seed: u64,
    train: Option<Interactions>,
}

impl RandomItems {
    /// Creates the baseline with an explicit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed, train: None }
    }

    /// The fitted training matrix, or `None` before [`Recommender::fit`].
    /// Request-path methods degrade through this instead of panicking:
    /// an unfitted model on the serve path answers empty rather than
    /// poisoning a worker.
    fn fitted(&self) -> Option<&Interactions> {
        self.train.as_ref()
    }

    /// The unseen books of `user` in a per-user deterministic random
    /// order; empty before [`Recommender::fit`].
    fn shuffled_unseen(&self, user: UserIdx) -> Vec<u32> {
        let Some(train) = self.fitted() else {
            return Vec::new();
        };
        let seen = train.seen(user);
        let mut seen_iter = seen.iter().copied().peekable();
        let mut unseen: Vec<u32> = Vec::with_capacity(train.n_books() - seen.len());
        for b in 0..train.n_books() as u32 {
            if seen_iter.peek() == Some(&b) {
                seen_iter.next();
            } else {
                unseen.push(b);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(self.seed, u64::from(user.0)));
        unseen.shuffle(&mut rng);
        unseen
    }
}

impl Recommender for RandomItems {
    fn name(&self) -> &str {
        "Random Items"
    }

    fn fit(&mut self, train: &Interactions) {
        self.train = Some(train.clone());
    }

    fn score(&self, user: UserIdx, book: BookIdx) -> f32 {
        // A hash-based pseudo-score consistent with the per-user shuffle
        // in expectation (both are uniform), used only for diagnostics.
        let h = derive_seed(derive_seed(self.seed, u64::from(user.0)), u64::from(book.0));
        (h as f64 / u64::MAX as f64) as f32
    }

    fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32> {
        let mut out = self.shuffled_unseen(user);
        out.truncate(k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_dataset::ids::UserIdx;

    fn fitted() -> RandomItems {
        let train = Interactions::from_pairs(
            2,
            10,
            &[
                (UserIdx(0), BookIdx(0)),
                (UserIdx(0), BookIdx(5)),
                (UserIdx(1), BookIdx(9)),
            ],
        );
        let mut r = RandomItems::new(7);
        r.fit(&train);
        r
    }

    #[test]
    fn recommendations_exclude_seen() {
        let r = fitted();
        let recs = r.recommend(UserIdx(0), 8);
        assert_eq!(recs.len(), 8);
        assert!(!recs.contains(&0));
        assert!(!recs.contains(&5));
    }

    #[test]
    fn deterministic_per_seed_and_user() {
        let r = fitted();
        assert_eq!(r.recommend(UserIdx(0), 5), r.recommend(UserIdx(0), 5));
        assert_ne!(r.recommend(UserIdx(0), 8), r.recommend(UserIdx(1), 8));
        let mut other = RandomItems::new(8);
        other.fit(r.fitted().unwrap());
        assert_ne!(r.recommend(UserIdx(0), 8), other.recommend(UserIdx(0), 8));
    }

    #[test]
    fn rank_all_is_permutation_of_unseen() {
        let r = fitted();
        let mut all = r.rank_all(UserIdx(0));
        assert_eq!(all.len(), 8);
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4, 6, 7, 8, 9]);
    }

    #[test]
    fn truncation_is_prefix_of_full_ranking() {
        let r = fitted();
        let full = r.rank_all(UserIdx(1));
        let top3 = r.recommend(UserIdx(1), 3);
        assert_eq!(top3, full[..3]);
    }

    #[test]
    fn unfitted_answers_empty() {
        let r = RandomItems::new(1);
        assert!(r.recommend(UserIdx(0), 1).is_empty());
        assert!(r.rank_all(UserIdx(0)).is_empty());
    }
}
