//! Sequential recommendation — the paper's future-work direction
//! ("we could consider sequential recommendation systems algorithms",
//! Section 7, citing Wang et al. 2019).
//!
//! [`SequentialItems`] is a first-order item-transition model: each user's
//! readings are ordered by date, consecutive pairs are counted as
//! transitions `a → b` (both directions — a loan sequence is weak ordering
//! evidence), and a user is scored by the popularity-normalised transition
//! mass from their most recent readings. This is the classic Markov-chain
//! recommender baseline of the sequential-recsys literature.
//!
//! Unlike the other recommenders, fitting needs reading *dates*, so the
//! model is constructed from the corpus plus the training interactions
//! (the split masks which readings are visible).

use crate::{rank_by_scores, Recommender};
use rm_dataset::corpus::Corpus;
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;
use rm_sparse::CsrMatrix;

/// Configuration of the sequential model.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialConfig {
    /// How many of the user's most recent training readings contribute
    /// transition mass at recommendation time.
    pub context: usize,
    /// Additive smoothing on transition counts when normalising by the
    /// source book's out-degree.
    pub smoothing: f32,
}

impl Default for SequentialConfig {
    fn default() -> Self {
        Self {
            context: 5,
            smoothing: 1.0,
        }
    }
}

/// First-order item-transition recommender.
#[derive(Debug, Clone)]
pub struct SequentialItems {
    config: SequentialConfig,
    /// Date-ordered training readings per user (latest last).
    history: Vec<Vec<u32>>,
    /// Symmetric transition matrix (book × book), row-normalised lazily.
    transitions: Option<CsrMatrix>,
    train: Option<Interactions>,
}

impl SequentialItems {
    /// Creates the model over a corpus's dated readings. Only readings
    /// present in the *training* interactions passed to
    /// [`Recommender::fit`] are used; the corpus provides their order.
    #[must_use]
    pub fn from_corpus(corpus: &Corpus, config: SequentialConfig) -> Self {
        let mut history: Vec<Vec<(u32, u32)>> = vec![Vec::new(); corpus.n_users()];
        for r in &corpus.readings {
            history[r.user.index()].push((r.date.0, r.book.0));
        }
        let history = history
            .into_iter()
            .map(|mut h| {
                h.sort_unstable();
                h.into_iter().map(|(_, b)| b).collect()
            })
            .collect();
        Self {
            config,
            history,
            transitions: None,
            train: None,
        }
    }

    /// Both fitted references, or `None` before [`Recommender::fit`].
    /// The request-path trait methods degrade through this instead of
    /// panicking: an unfitted model on the serve path answers empty
    /// (or scores zero) rather than poisoning a worker.
    fn fitted(&self) -> Option<(&Interactions, &CsrMatrix)> {
        Some((self.train.as_ref()?, self.transitions.as_ref()?))
    }

    /// The user's training readings in date order (latest last).
    fn ordered_train(&self, user: UserIdx, train: &Interactions) -> Vec<u32> {
        self.history[user.index()]
            .iter()
            .copied()
            .filter(|&b| train.contains(user, BookIdx(b)))
            .collect()
    }

    /// Transition-based score of `book` given the user's recent context.
    fn context_score(&self, user: UserIdx, book: u32) -> f32 {
        let Some((train, transitions)) = self.fitted() else {
            return 0.0;
        };
        let ordered = self.ordered_train(user, train);
        let context = &ordered[ordered.len().saturating_sub(self.config.context)..];
        let mut score = 0.0f32;
        for &src in context {
            let out: f32 = transitions
                .row_values(src as usize)
                .map_or(0.0, |v| v.iter().sum());
            let raw = transitions.get(src as usize, book);
            score += raw / (out + self.config.smoothing);
        }
        score
    }
}

impl Recommender for SequentialItems {
    fn name(&self) -> &str {
        "Sequential Items"
    }

    fn fit(&mut self, train: &Interactions) {
        assert_eq!(
            train.n_users(),
            self.history.len(),
            "training matrix and corpus disagree on user count"
        );
        let mut triplets: Vec<(u32, u32, f32)> = Vec::new();
        for u in 0..train.n_users() {
            let ordered = self.ordered_train(UserIdx(u as u32), train);
            for w in ordered.windows(2) {
                triplets.push((w[0], w[1], 1.0));
                triplets.push((w[1], w[0], 1.0));
            }
        }
        self.transitions = Some(CsrMatrix::from_triplets(
            train.n_books(),
            train.n_books(),
            &triplets,
            |a, b| a + b,
        ));
        self.train = Some(train.clone());
    }

    fn score(&self, user: UserIdx, book: BookIdx) -> f32 {
        self.context_score(user, book.0)
    }

    fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32> {
        let Some((train, transitions)) = self.fitted() else {
            return Vec::new();
        };
        let ordered = self.ordered_train(user, train);
        if ordered.is_empty() {
            return Vec::new();
        }
        let context = &ordered[ordered.len().saturating_sub(self.config.context)..];
        // Accumulate normalised transition mass from the context books.
        let mut scores = vec![0.0f32; train.n_books()];
        for &src in context {
            let out: f32 = transitions
                .row_values(src as usize)
                .map_or(0.0, |v| v.iter().sum());
            if let Some(values) = transitions.row_values(src as usize) {
                for (&dst, &v) in transitions.row(src as usize).iter().zip(values) {
                    scores[dst as usize] += v / (out + self.config.smoothing);
                }
            }
        }
        rank_by_scores(train.n_books(), train.seen(user), k, |b| scores[b as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_dataset::corpus::{Book, Reading, Source, User};
    use rm_dataset::genre::GenreModel;
    use rm_dataset::ids::{AnobiiItemId, BctBookId, Day};

    /// Users read 0 → 1 → 2 in order; user 2 reads 0 → 1 only.
    fn corpus() -> Corpus {
        let books = (0..5)
            .map(|i| Book {
                title: format!("B{i}"),
                authors: vec!["A".into()],
                plot: String::new(),
                keywords: vec![],
                genres: vec![],
                bct_id: BctBookId(i),
                anobii_id: AnobiiItemId(i),
            })
            .collect();
        let users = (0..3)
            .map(|raw_id| User {
                source: Source::Bct,
                raw_id,
            })
            .collect();
        let mut readings = Vec::new();
        for u in 0..2u32 {
            for b in 0..3u32 {
                readings.push(Reading {
                    user: UserIdx(u),
                    book: BookIdx(b),
                    date: Day(b * 10),
                });
            }
        }
        readings.push(Reading {
            user: UserIdx(2),
            book: BookIdx(0),
            date: Day(0),
        });
        readings.push(Reading {
            user: UserIdx(2),
            book: BookIdx(1),
            date: Day(10),
        });
        let mut c = Corpus {
            books,
            users,
            readings,
            genre_model: GenreModel::identity(),
        };
        c.readings.sort_unstable_by_key(|r| (r.user.0, r.book.0));
        c
    }

    fn fitted() -> (SequentialItems, Interactions) {
        let c = corpus();
        let train = Interactions::from_corpus(&c);
        let mut s = SequentialItems::from_corpus(&c, SequentialConfig::default());
        s.fit(&train);
        (s, train)
    }

    #[test]
    fn follows_the_chain() {
        let (s, _) = fitted();
        // User 2 read 0 → 1; the observed continuation is 2.
        let recs = s.recommend(UserIdx(2), 1);
        assert_eq!(recs, vec![2]);
    }

    #[test]
    fn excludes_seen_books() {
        let (s, train) = fitted();
        for u in 0..3u32 {
            let recs = s.rank_all(UserIdx(u));
            for b in train.seen(UserIdx(u)) {
                assert!(!recs.contains(b));
            }
        }
    }

    #[test]
    fn score_positive_only_for_connected_books() {
        let (s, _) = fitted();
        assert!(s.score(UserIdx(2), BookIdx(2)) > 0.0);
        assert_eq!(s.score(UserIdx(2), BookIdx(4)), 0.0);
    }

    #[test]
    fn empty_history_gives_empty_recommendations() {
        let c = corpus();
        // Train mask excludes user 2 entirely.
        let pairs: Vec<(UserIdx, BookIdx)> = c
            .readings
            .iter()
            .filter(|r| r.user.0 < 2)
            .map(|r| (r.user, r.book))
            .collect();
        let train = Interactions::from_pairs(c.n_users(), c.n_books(), &pairs);
        let mut s = SequentialItems::from_corpus(&c, SequentialConfig::default());
        s.fit(&train);
        assert!(s.recommend(UserIdx(2), 3).is_empty());
    }

    #[test]
    fn context_limits_lookback() {
        let (mut s, train) = fitted();
        s.config.context = 1;
        s.fit(&train);
        // With context 1, user 2's score comes only from book 1.
        let from_1 = s.score(UserIdx(2), BookIdx(2));
        assert!(from_1 > 0.0);
        let full = {
            let (s2, _) = fitted();
            s2.score(UserIdx(2), BookIdx(2))
        };
        // The wider context adds the (0 → 1 skip-free) mass, so the
        // narrow-context score cannot exceed the full one.
        assert!(from_1 <= full + 1e-6);
    }

    #[test]
    fn unfitted_answers_empty() {
        let c = corpus();
        let s = SequentialItems::from_corpus(&c, SequentialConfig::default());
        assert!(s.recommend(UserIdx(0), 1).is_empty());
        assert!(s.rank_all(UserIdx(0)).is_empty());
        assert_eq!(s.score(UserIdx(0), BookIdx(0)), 0.0);
    }
}
