//! Item-based k-nearest-neighbour collaborative filtering.
//!
//! The classic implicit-feedback CF baseline (Sarwar et al.'s item-item
//! family, the workhorse of the `implicit` library the paper's ecosystem
//! builds on): two books are similar when the same users read both. Score
//! of an unseen book = sum of its similarity to the user's read books over
//! the top-N neighbour lists.
//!
//! Similarity is shrunk cosine over co-occurrence counts:
//!
//! ```text
//! sim(a, b) = co(a, b) / (√(pop(a) · pop(b)) + shrinkage)
//! ```
//!
//! The shrinkage term damps similarities supported by few co-readers.
//! Fitting is the standard dense-scratch sweep: for each book, accumulate
//! co-occurrence counts against all books sharing a reader, then keep the
//! top-N — `O(Σ_u n_u²)` time, `O(catalogue)` scratch memory.

use crate::{rank_by_scores, rank_by_scores_into, Recommender};
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;
use rm_sparse::CsrMatrix;
use rm_util::TopK;

/// Item-kNN hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItemKnnConfig {
    /// Neighbour-list length per book.
    pub neighbors: usize,
    /// Cosine shrinkage (damps low-support similarities).
    pub shrinkage: f32,
    /// Users with more readings than this are skipped when counting
    /// co-occurrences (a 500-book reader contributes 250 k pairs of mostly
    /// noise; the cap matches common practice).
    pub max_user_history: usize,
}

impl Default for ItemKnnConfig {
    fn default() -> Self {
        Self {
            neighbors: 50,
            shrinkage: 10.0,
            max_user_history: 500,
        }
    }
}

/// Item-based collaborative-filtering recommender.
#[derive(Debug, Clone)]
pub struct ItemKnn {
    config: ItemKnnConfig,
    /// Top-N similarity lists as a book×book CSR matrix.
    similarities: Option<CsrMatrix>,
    train: Option<Interactions>,
}

impl ItemKnn {
    /// Creates an unfitted model.
    ///
    /// # Panics
    ///
    /// Panics if `neighbors == 0`.
    #[must_use]
    pub fn new(config: ItemKnnConfig) -> Self {
        assert!(config.neighbors > 0, "need at least one neighbour");
        Self {
            config,
            similarities: None,
            train: None,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ItemKnnConfig {
        &self.config
    }

    /// Both fitted references, or `None` before [`Recommender::fit`].
    /// The request-path trait methods degrade through this instead of
    /// panicking: an unfitted model on the serve path answers empty
    /// (or scores zero) rather than poisoning a worker.
    fn fitted(&self) -> Option<(&Interactions, &CsrMatrix)> {
        Some((self.train.as_ref()?, self.similarities.as_ref()?))
    }

    /// The fitted neighbour list of a book: `(neighbour, similarity)`,
    /// unsorted (CSR column order); empty before [`Recommender::fit`].
    #[must_use]
    pub fn neighbors_of(&self, book: BookIdx) -> Vec<(u32, f32)> {
        let Some((_, sims)) = self.fitted() else {
            return Vec::new();
        };
        let values = sims.row_values(book.index()).unwrap_or(&[]);
        sims.row(book.index())
            .iter()
            .copied()
            .zip(values.iter().copied())
            .collect()
    }

    /// Accumulated similarity scores of every book for `user`.
    fn user_scores(&self, user: UserIdx) -> Vec<f32> {
        let mut scores = Vec::new();
        self.user_scores_into(user, &mut scores);
        scores
    }

    /// [`ItemKnn::user_scores`] refilling a caller-owned catalogue-sized
    /// buffer (zeroed, then accumulated) so batch scoring reuses one
    /// allocation.
    fn user_scores_into(&self, user: UserIdx, scores: &mut Vec<f32>) {
        scores.clear();
        let Some((train, sims)) = self.fitted() else {
            return;
        };
        scores.resize(train.n_books(), 0.0);
        for &i in train.seen(user) {
            if let Some(values) = sims.row_values(i as usize) {
                for (&j, &s) in sims.row(i as usize).iter().zip(values) {
                    scores[j as usize] += s;
                }
            }
        }
    }
}

impl Recommender for ItemKnn {
    fn name(&self) -> &str {
        "Item kNN"
    }

    fn fit(&mut self, train: &Interactions) {
        let n_books = train.n_books();
        let by_item = train.as_csr().transpose(); // book × user
                                                  // Popularity for the cosine denominator counts only the users that
                                                  // also contribute to the co-occurrence numerator (those under the
                                                  // history cap) — otherwise books read mostly by skipped heavy
                                                  // users would get systematically shrunken similarities.
        let counted = |u: u32| train.seen(UserIdx(u)).len() <= self.config.max_user_history;
        let pop: Vec<f32> = (0..n_books)
            .map(|b| by_item.row(b).iter().filter(|&&u| counted(u)).count() as f32)
            .collect();

        // Dense scratch with a touched-list for O(neighbourhood) reset.
        let mut counts = vec![0u32; n_books];
        let mut touched: Vec<u32> = Vec::new();
        let mut indptr = Vec::with_capacity(n_books + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();

        for a in 0..n_books {
            for &u in by_item.row(a) {
                if !counted(u) {
                    continue;
                }
                let history = train.seen(UserIdx(u));
                for &b in history {
                    if b as usize == a {
                        continue;
                    }
                    if counts[b as usize] == 0 {
                        touched.push(b);
                    }
                    counts[b as usize] += 1;
                }
            }
            let mut top = TopK::new(self.config.neighbors);
            for &b in &touched {
                let co = counts[b as usize] as f32;
                let sim = co / ((pop[a] * pop[b as usize]).sqrt() + self.config.shrinkage);
                top.push(b, sim);
                counts[b as usize] = 0;
            }
            touched.clear();
            // CSR rows must be sorted by column index.
            let mut row: Vec<(u32, f32)> = top
                .into_sorted()
                .into_iter()
                .map(|s| (s.item, s.score))
                .collect();
            row.sort_unstable_by_key(|&(b, _)| b);
            for (b, s) in row {
                indices.push(b);
                values.push(s);
            }
            indptr.push(indices.len());
        }

        self.similarities = Some(CsrMatrix::from_parts(
            n_books, n_books, indptr, indices, values,
        ));
        self.train = Some(train.clone());
    }

    fn score(&self, user: UserIdx, book: BookIdx) -> f32 {
        self.user_scores(user)
            .get(book.index())
            .copied()
            .unwrap_or(0.0)
    }

    fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32> {
        let Some((train, _)) = self.fitted() else {
            return Vec::new();
        };
        let scores = self.user_scores(user);
        rank_by_scores(train.n_books(), train.seen(user), k, |b| scores[b as usize])
    }

    fn recommend_batch_into(&self, users: &[UserIdx], k: usize, out: &mut Vec<Vec<u32>>) {
        let Some((train, _)) = self.fitted() else {
            out.clear();
            out.resize_with(users.len(), Vec::new);
            return;
        };
        out.resize_with(users.len(), Vec::new);
        // One catalogue-sized score buffer + one TopK for the whole batch.
        let mut scores = Vec::with_capacity(train.n_books());
        let mut top = rm_util::TopK::new(1);
        for (&u, slot) in users.iter().zip(out.iter_mut()) {
            self.user_scores_into(u, &mut scores);
            rank_by_scores_into(
                train.n_books(),
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

    /// Two communities: users 0-4 read books {0,1,2}, users 5-9 read
    /// {3,4,5}; user 0 is missing book 2, user 5 missing book 5.
    fn community_train() -> Interactions {
        let mut pairs = Vec::new();
        for u in 0..5u32 {
            for b in 0..3u32 {
                if !(u == 0 && b == 2) {
                    pairs.push((UserIdx(u), BookIdx(b)));
                }
            }
        }
        for u in 5..10u32 {
            for b in 3..6u32 {
                if !(u == 5 && b == 5) {
                    pairs.push((UserIdx(u), BookIdx(b)));
                }
            }
        }
        Interactions::from_pairs(10, 6, &pairs)
    }

    fn fitted() -> ItemKnn {
        let mut knn = ItemKnn::new(ItemKnnConfig {
            shrinkage: 0.5,
            ..ItemKnnConfig::default()
        });
        knn.fit(&community_train());
        knn
    }

    #[test]
    fn recommends_the_community_holdout() {
        let knn = fitted();
        assert_eq!(knn.recommend(UserIdx(0), 1), vec![2]);
        assert_eq!(knn.recommend(UserIdx(5), 1), vec![5]);
    }

    #[test]
    fn cross_community_scores_are_zero() {
        let knn = fitted();
        assert_eq!(knn.score(UserIdx(0), BookIdx(4)), 0.0);
        assert!(knn.score(UserIdx(0), BookIdx(2)) > 0.0);
    }

    #[test]
    fn neighbour_lists_stay_within_community() {
        let knn = fitted();
        for (b, s) in knn.neighbors_of(BookIdx(0)) {
            assert!(b < 3, "book 0's neighbour {b} crosses communities");
            assert!(s > 0.0);
        }
    }

    #[test]
    fn similarity_is_symmetric_for_equal_popularity() {
        let knn = fitted();
        let get = |a: u32, b: u32| {
            knn.neighbors_of(BookIdx(a))
                .into_iter()
                .find(|&(n, _)| n == b)
                .map(|(_, s)| s)
        };
        // Books 0 and 1 have identical readership (users 0-4 minus none vs
        // user 0 missing 2 only affects book 2).
        assert_eq!(get(0, 1), get(1, 0));
    }

    #[test]
    fn shrinkage_damps_similarities() {
        let strong = {
            let mut knn = ItemKnn::new(ItemKnnConfig {
                shrinkage: 0.0,
                ..ItemKnnConfig::default()
            });
            knn.fit(&community_train());
            knn.neighbors_of(BookIdx(0))[0].1
        };
        let damped = {
            let mut knn = ItemKnn::new(ItemKnnConfig {
                shrinkage: 20.0,
                ..ItemKnnConfig::default()
            });
            knn.fit(&community_train());
            knn.neighbors_of(BookIdx(0))[0].1
        };
        assert!(damped < strong);
    }

    #[test]
    fn neighbor_cap_respected() {
        let mut knn = ItemKnn::new(ItemKnnConfig {
            neighbors: 1,
            ..ItemKnnConfig::default()
        });
        knn.fit(&community_train());
        for b in 0..6 {
            assert!(knn.neighbors_of(BookIdx(b)).len() <= 1);
        }
    }

    #[test]
    fn heavy_users_are_skipped() {
        // One user reads everything: with the cap below their history they
        // contribute no co-occurrence, so the two cliques stay separate.
        let mut pairs: Vec<(UserIdx, BookIdx)> =
            (0..6u32).map(|b| (UserIdx(0), BookIdx(b))).collect();
        pairs.push((UserIdx(1), BookIdx(0)));
        pairs.push((UserIdx(1), BookIdx(1)));
        let train = Interactions::from_pairs(2, 6, &pairs);
        let mut knn = ItemKnn::new(ItemKnnConfig {
            max_user_history: 3,
            shrinkage: 0.0,
            ..ItemKnnConfig::default()
        });
        knn.fit(&train);
        // Only user 1's pair (0, 1) counts.
        assert_eq!(knn.neighbors_of(BookIdx(0)).len(), 1);
        assert!(knn.neighbors_of(BookIdx(5)).is_empty());
    }

    #[test]
    fn batch_matches_single_calls() {
        let knn = fitted();
        let users: Vec<UserIdx> = (0..10).map(UserIdx).collect();
        for k in [1usize, 3, usize::MAX] {
            let batch = knn.recommend_batch(&users, k);
            assert_eq!(batch.len(), users.len());
            for (&u, got) in users.iter().zip(&batch) {
                assert_eq!(got, &knn.recommend(u, k), "user {u:?} k {k}");
            }
        }
    }

    #[test]
    fn unfitted_answers_empty() {
        let knn = ItemKnn::new(ItemKnnConfig::default());
        assert!(knn.recommend(UserIdx(0), 1).is_empty());
        assert!(knn.rank_all(UserIdx(0)).is_empty());
        assert!(knn.neighbors_of(BookIdx(0)).is_empty());
        assert_eq!(knn.score(UserIdx(0), BookIdx(0)), 0.0);
        let mut out = Vec::new();
        knn.recommend_batch_into(&[UserIdx(0), UserIdx(1)], 3, &mut out);
        assert_eq!(out, vec![Vec::<u32>::new(), Vec::new()]);
    }
}
