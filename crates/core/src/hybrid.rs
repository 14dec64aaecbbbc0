//! Hybrid recommendation: a weighted blend of two recommenders' rankings.
//!
//! The paper's related work repeatedly points at CB+CF hybrids (Salter &
//! Antonopoulos 2006; Christakou et al. 2007); its own Fig. 4 shows the
//! natural division of labour — CF for short histories, CB for long ones.
//! [`Blend`] combines any two fitted recommenders by mixing their
//! *rank-normalised* scores (raw score scales are incomparable across
//! model families), so a `Blend::new(bpr, closest, 0.5)` is the obvious
//! production follow-up the paper gestures at.

use crate::{rank_by_scores, rank_by_scores_into, Recommender};
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;

/// Weighted rank-blend of two recommenders.
pub struct Blend<A, B> {
    first: A,
    second: B,
    /// Weight of `first`'s contribution in `[0, 1]`.
    weight: f32,
    train: Option<Interactions>,
}

impl<A: Recommender, B: Recommender> Blend<A, B> {
    /// Creates the blend; `weight` is the share of the first recommender.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is outside `[0, 1]`.
    #[must_use]
    pub fn new(first: A, second: B, weight: f32) -> Self {
        assert!((0.0..=1.0).contains(&weight), "blend weight out of range");
        Self {
            first,
            second,
            weight,
            train: None,
        }
    }

    /// The fitted training matrix, or `None` before [`Recommender::fit`].
    /// Request-path methods degrade through this instead of panicking:
    /// an unfitted blend on the serve path answers empty rather than
    /// poisoning a worker.
    fn fitted(&self) -> Option<&Interactions> {
        self.train.as_ref()
    }

    /// Rank-normalised blended scores: each component contributes
    /// `1 - rank/n` for the books it ranks (0 for unranked), mixed by the
    /// blend weight.
    fn blended_scores(&self, user: UserIdx) -> Vec<f32> {
        let n_books = self.fitted().map_or(0, |t| t.n_books());
        let mut scores = vec![0.0f32; n_books];
        for (rec, w) in [
            (&self.first as &dyn Recommender, self.weight),
            (&self.second, 1.0 - self.weight),
        ] {
            if w == 0.0 {
                continue;
            }
            let ranking = rec.rank_all(user);
            let len = ranking.len().max(1) as f32;
            for (pos, &b) in ranking.iter().enumerate() {
                scores[b as usize] += w * (1.0 - pos as f32 / len);
            }
        }
        scores
    }
}

impl<A: Recommender, B: Recommender> Recommender for Blend<A, B> {
    fn name(&self) -> &str {
        "Hybrid Blend"
    }

    fn fit(&mut self, train: &Interactions) {
        self.first.fit(train);
        self.second.fit(train);
        self.train = Some(train.clone());
    }

    fn score(&self, user: UserIdx, book: BookIdx) -> f32 {
        self.blended_scores(user)
            .get(book.index())
            .copied()
            .unwrap_or(0.0)
    }

    fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32> {
        let Some(train) = self.fitted() else {
            return Vec::new();
        };
        let scores = self.blended_scores(user);
        rank_by_scores(train.n_books(), train.seen(user), k, |b| scores[b as usize])
    }

    fn recommend_batch_into(&self, users: &[UserIdx], k: usize, out: &mut Vec<Vec<u32>>) {
        let Some(train) = self.fitted() else {
            out.clear();
            out.resize_with(users.len(), Vec::new);
            return;
        };
        let n_books = train.n_books();
        out.resize_with(users.len(), Vec::new);
        // The blended-score buffer, the components' ranking pool, and the
        // TopK are shared across the batch (components that override
        // `recommend_batch_into` also reuse the pool's inner buffer).
        let mut scores = Vec::with_capacity(n_books);
        let mut component_pool: Vec<Vec<u32>> = Vec::new();
        let mut top = rm_util::TopK::new(1);
        for (&u, slot) in users.iter().zip(out.iter_mut()) {
            scores.clear();
            scores.resize(n_books, 0.0);
            for (rec, w) in [
                (&self.first as &dyn Recommender, self.weight),
                (&self.second, 1.0 - self.weight),
            ] {
                if w == 0.0 {
                    continue;
                }
                // rank_all(u) by contract equals recommend(u, everything),
                // which the pooled batch path answers byte-identically.
                rec.recommend_batch_into(std::slice::from_ref(&u), usize::MAX, &mut component_pool);
                let ranking = &component_pool[0];
                let len = ranking.len().max(1) as f32;
                for (pos, &b) in ranking.iter().enumerate() {
                    scores[b as usize] += w * (1.0 - pos as f32 / len);
                }
            }
            rank_by_scores_into(
                n_books,
                train.seen(u),
                k,
                |b| scores[b as usize],
                &mut top,
                slot,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::most_read::MostReadItems;
    use crate::random::RandomItems;

    fn train() -> Interactions {
        Interactions::from_pairs(
            2,
            6,
            &[
                (UserIdx(0), BookIdx(0)),
                (UserIdx(1), BookIdx(0)),
                (UserIdx(1), BookIdx(1)),
            ],
        )
    }

    #[test]
    fn weight_one_equals_first_component() {
        let t = train();
        let mut blend = Blend::new(MostReadItems::new(), RandomItems::new(1), 1.0);
        blend.fit(&t);
        let mut most_read = MostReadItems::new();
        most_read.fit(&t);
        assert_eq!(blend.rank_all(UserIdx(0)), most_read.rank_all(UserIdx(0)));
    }

    #[test]
    fn weight_zero_equals_second_component() {
        let t = train();
        let mut blend = Blend::new(MostReadItems::new(), RandomItems::new(1), 0.0);
        blend.fit(&t);
        let mut random = RandomItems::new(1);
        random.fit(&t);
        assert_eq!(blend.rank_all(UserIdx(0)), random.rank_all(UserIdx(0)));
    }

    #[test]
    fn blend_excludes_seen() {
        let t = train();
        let mut blend = Blend::new(MostReadItems::new(), RandomItems::new(1), 0.5);
        blend.fit(&t);
        let recs = blend.rank_all(UserIdx(1));
        assert!(!recs.contains(&0));
        assert!(!recs.contains(&1));
        assert_eq!(recs.len(), 4);
    }

    #[test]
    fn agreement_wins_over_disagreement() {
        // Two MostRead components agree perfectly: the blend must equal
        // them at any weight.
        let t = train();
        let mut blend = Blend::new(MostReadItems::new(), MostReadItems::new(), 0.3);
        blend.fit(&t);
        let mut single = MostReadItems::new();
        single.fit(&t);
        assert_eq!(blend.rank_all(UserIdx(0)), single.rank_all(UserIdx(0)));
    }

    #[test]
    fn batch_matches_single_calls() {
        let t = train();
        let mut blend = Blend::new(MostReadItems::new(), MostReadItems::new(), 0.4);
        blend.fit(&t);
        let users = [UserIdx(0), UserIdx(1), UserIdx(0)];
        for k in [1usize, 3, usize::MAX] {
            let batch = blend.recommend_batch(&users, k);
            assert_eq!(batch.len(), users.len());
            for (&u, got) in users.iter().zip(&batch) {
                assert_eq!(got, &blend.recommend(u, k), "user {u:?} k {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_weight_rejected() {
        let _ = Blend::new(MostReadItems::new(), RandomItems::new(1), 1.5);
    }
}
