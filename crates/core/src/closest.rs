//! The *Closest Items* content-based recommender (Section 4, Eq. 1).
//!
//! Score of an unseen book `b` for user `u`:
//!
//! ```text
//! s_b = ( Σ_{i ∈ N_u} s_{b,i} ) / |N_u|
//! ```
//!
//! where `s_{b,i}` is the cosine similarity between the *metadata summary*
//! embeddings of books `b` and `i`. Because all stored embeddings are unit
//! vectors, the average cosine equals the dot product with the (unnormalised)
//! mean of the user's read-book embeddings, so recommendation is one
//! matrix–vector product over the catalogue — the centroid fast path. An
//! exact pairwise scorer is kept for verification ([`ClosestItems::score`]
//! uses the same mean, and tests compare against brute force).

use crate::{rank_by_scores, rank_by_scores_blocked_into, rank_by_scores_into, Recommender};
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;
use rm_dataset::summary::{build_summaries, SummaryFields};
use rm_dataset::Corpus;
use rm_embed::{EmbeddingStore, EncoderConfig, SemanticEncoder};

/// Content-based recommender over metadata-summary embeddings.
#[derive(Debug, Clone)]
pub struct ClosestItems {
    store: EmbeddingStore,
    fields: SummaryFields,
    train: Option<Interactions>,
}

impl ClosestItems {
    /// Builds the recommender from a corpus: renders each book's metadata
    /// summary for `fields`, fits the encoder's IDF model on those
    /// summaries, and encodes the catalogue.
    #[must_use]
    pub fn from_corpus(
        corpus: &Corpus,
        fields: SummaryFields,
        encoder_config: EncoderConfig,
    ) -> Self {
        let summaries = build_summaries(corpus, fields);
        let encoder = SemanticEncoder::fit(encoder_config, &summaries);
        let store = EmbeddingStore::encode_all(&encoder, &summaries);
        Self {
            store,
            fields,
            train: None,
        }
    }

    /// Wraps a pre-built embedding store (rows must align with book
    /// indices).
    #[must_use]
    pub fn from_store(store: EmbeddingStore, fields: SummaryFields) -> Self {
        Self {
            store,
            fields,
            train: None,
        }
    }

    /// The metadata fields this instance embeds.
    #[must_use]
    pub fn fields(&self) -> SummaryFields {
        self.fields
    }

    /// The catalogue embedding store.
    #[must_use]
    pub fn store(&self) -> &EmbeddingStore {
        &self.store
    }

    /// The fitted training matrix, or `None` before [`Recommender::fit`].
    /// Request-path methods degrade through this instead of panicking: an
    /// unfitted model on the serve path answers empty rather than
    /// poisoning a worker.
    fn fitted(&self) -> Option<&Interactions> {
        self.train.as_ref()
    }

    /// The user's Eq. 1 query vector: mean of read-book embeddings, or
    /// `None` for a user with no training readings.
    fn query(&self, user: UserIdx) -> Option<Vec<f32>> {
        let mut buf = Vec::new();
        self.query_into(user, &mut buf).then_some(buf)
    }

    /// [`ClosestItems::query`] into a caller-provided buffer; returns
    /// `false` (buffer untouched) for a user with no training readings.
    fn query_into(&self, user: UserIdx, buf: &mut Vec<f32>) -> bool {
        let Some(train) = self.fitted() else {
            return false;
        };
        let seen = train.seen(user);
        if seen.is_empty() {
            return false;
        }
        self.store.mean_embedding_into(seen, buf);
        true
    }

    /// Top-`k` books for a reader who is not in the training matrix, given
    /// only a reading history — content-based serving needs no fold-in at
    /// all, the centroid is computable from any history. Usable before
    /// [`Recommender::fit`] (only the embedding store is consulted).
    ///
    /// # Panics
    ///
    /// Panics if the history references a book outside the catalogue.
    #[must_use]
    pub fn recommend_for_history(&self, seen: &[u32], k: usize) -> Vec<u32> {
        let mut out = Vec::new();
        self.recommend_for_history_into(seen, k, &mut out);
        out
    }

    /// [`ClosestItems::recommend_for_history`] refilling a caller-owned
    /// ranking buffer, so kiosk-style serving loops rank repeat queries
    /// without per-call allocation of the result.
    ///
    /// # Panics
    ///
    /// Panics if the history references a book outside the catalogue.
    pub fn recommend_for_history_into(&self, seen: &[u32], k: usize, out: &mut Vec<u32>) {
        out.clear();
        if seen.is_empty() {
            return;
        }
        assert!(
            seen.iter().all(|&b| (b as usize) < self.store.len()),
            "history references an unknown book"
        );
        let query = self.store.mean_embedding(seen);
        let sims = self.store.similarities(&query);
        let mut sorted_seen = seen.to_vec();
        sorted_seen.sort_unstable();
        sorted_seen.dedup();
        let mut top = rm_util::TopK::new(1);
        rank_by_scores_into(
            self.store.len(),
            &sorted_seen,
            k,
            |b| sims[b as usize],
            &mut top,
            out,
        );
    }
}

impl Recommender for ClosestItems {
    fn name(&self) -> &str {
        "Closest Items"
    }

    fn fit(&mut self, train: &Interactions) {
        assert_eq!(
            train.n_books(),
            self.store.len(),
            "training matrix and embedding store disagree on catalogue size"
        );
        self.train = Some(train.clone());
    }

    fn score(&self, user: UserIdx, book: BookIdx) -> f32 {
        match self.query(user) {
            Some(q) => rm_sparse::vecops::dot(&q, self.store.embedding(book.index())),
            None => 0.0,
        }
    }

    fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32> {
        let Some((q, train)) = self.query(user).zip(self.fitted()) else {
            return Vec::new();
        };
        let sims = self.store.similarities(&q);
        rank_by_scores(train.n_books(), train.seen(user), k, |b| sims[b as usize])
    }

    fn recommend_batch_into(&self, users: &[UserIdx], k: usize, out: &mut Vec<Vec<u32>>) {
        let Some(train) = self.fitted() else {
            out.clear();
            out.resize_with(users.len(), Vec::new);
            return;
        };
        // The shared blocked loop builds each user's Eq. 1 centroid and
        // scans the catalogue once per four users; a user with no training
        // readings has no centroid and gets an empty slot.
        rank_by_scores_blocked_into(
            users,
            train,
            k,
            |u, query| self.query_into(u, query),
            |queries, sims| self.store.similarities_block_into(queries, sims),
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_dataset::corpus::{Book, Source, User};
    use rm_dataset::genre::{AggGenreId, GenreModel};
    use rm_dataset::ids::{AnobiiItemId, BctBookId, Day};

    fn book(title: &str, author: &str, genre: u8) -> Book {
        Book {
            title: title.to_owned(),
            authors: vec![author.to_owned()],
            plot: format!("la storia di {title}"),
            keywords: vec!["libro".to_owned()],
            genres: vec![(AggGenreId(genre), 1.0)],
            bct_id: BctBookId(0),
            anobii_id: AnobiiItemId(0),
        }
    }

    /// 4 books: 0 & 1 share author+genre; 2 shares genre only; 3 is
    /// unrelated.
    fn corpus() -> Corpus {
        Corpus {
            books: vec![
                book("Delitto al Castello", "Anna Neri", 0),
                book("Morte sul Fiume", "Anna Neri", 0),
                book("Ombra Lunga", "Carlo Verdi", 0),
                book("Draghi di Cristallo", "Luisa Blu", 7),
            ],
            users: vec![User {
                source: Source::Bct,
                raw_id: 0,
            }],
            readings: vec![rm_dataset::corpus::Reading {
                user: UserIdx(0),
                book: BookIdx(0),
                date: Day(0),
            }],
            genre_model: GenreModel::identity(),
        }
    }

    fn fitted(fields: SummaryFields) -> ClosestItems {
        let c = corpus();
        let train = Interactions::from_pairs(1, 4, &[(UserIdx(0), BookIdx(0))]);
        let mut ci = ClosestItems::from_corpus(&c, fields, EncoderConfig::default());
        ci.fit(&train);
        ci
    }

    #[test]
    fn same_author_ranks_first() {
        let ci = fitted(SummaryFields::BEST);
        let recs = ci.recommend(UserIdx(0), 3);
        assert_eq!(recs[0], 1, "same-author book should rank first: {recs:?}");
        // Same-genre book beats the unrelated one.
        assert_eq!(recs[1], 2);
        assert_eq!(recs[2], 3);
    }

    #[test]
    fn seen_books_never_recommended() {
        let ci = fitted(SummaryFields::ALL);
        let recs = ci.rank_all(UserIdx(0));
        assert!(!recs.contains(&0));
        assert_eq!(recs.len(), 3);
    }

    #[test]
    fn centroid_matches_bruteforce_average() {
        // Multi-book history: the fast path must equal Eq. 1 exactly.
        let c = corpus();
        let train =
            Interactions::from_pairs(1, 4, &[(UserIdx(0), BookIdx(0)), (UserIdx(0), BookIdx(3))]);
        let mut ci = ClosestItems::from_corpus(&c, SummaryFields::ALL, EncoderConfig::default());
        ci.fit(&train);
        for b in [1u32, 2] {
            let fast = ci.score(UserIdx(0), BookIdx(b));
            let brute: f32 = [0u32, 3]
                .iter()
                .map(|&i| ci.store().similarity(b as usize, i as usize))
                .sum::<f32>()
                / 2.0;
            assert!((fast - brute).abs() < 1e-5, "book {b}: {fast} vs {brute}");
        }
    }

    #[test]
    fn empty_history_yields_empty_recommendations() {
        let c = corpus();
        let train = Interactions::from_pairs(2, 4, &[(UserIdx(1), BookIdx(0))]);
        let mut ci = ClosestItems::from_corpus(&c, SummaryFields::ALL, EncoderConfig::default());
        ci.fit(&train);
        assert!(ci.recommend(UserIdx(0), 3).is_empty());
        assert_eq!(ci.score(UserIdx(0), BookIdx(1)), 0.0);
    }

    #[test]
    fn title_only_misses_author_signal() {
        let title_only = fitted(SummaryFields::TITLE);
        let authors = fitted(SummaryFields::AUTHORS);
        // With authors, book 1 (same author) scores far above book 3;
        // with titles only the two share no tokens, so the gap collapses.
        let gap =
            |ci: &ClosestItems| ci.score(UserIdx(0), BookIdx(1)) - ci.score(UserIdx(0), BookIdx(3));
        assert!(gap(&authors) > gap(&title_only) + 0.3);
    }

    #[test]
    fn history_serving_matches_fitted_user() {
        // A fresh reader with the same history as user 0 gets the same
        // recommendations — without any training matrix involved.
        let ci = fitted(SummaryFields::BEST);
        let unfitted =
            ClosestItems::from_corpus(&corpus(), SummaryFields::BEST, EncoderConfig::default());
        assert_eq!(
            unfitted.recommend_for_history(&[0], 3),
            ci.recommend(UserIdx(0), 3)
        );
        assert!(unfitted.recommend_for_history(&[], 3).is_empty());
    }

    #[test]
    fn batch_matches_single_calls() {
        // Users 0, 2, 3 and 4 each read one book; user 1 has an empty
        // history, so its batch entry must stay empty without disturbing
        // its neighbours' shared buffers. All four fields give the four
        // books distinct embeddings (the default field set encodes books 0
        // and 1 identically), so these histories rank the catalogue
        // differently. The twelve entries fill two blocks of four scored
        // users, with user 1 inside the first, and leave a remainder of
        // two; user 2 (book 3) sits in each block, and ranking anyone
        // against its scores, or it against theirs, changes the answer.
        let c = corpus();
        let train = Interactions::from_pairs(
            5,
            4,
            &[
                (UserIdx(0), BookIdx(0)),
                (UserIdx(2), BookIdx(3)),
                (UserIdx(3), BookIdx(2)),
                (UserIdx(4), BookIdx(1)),
            ],
        );
        let mut ci = ClosestItems::from_corpus(&c, SummaryFields::ALL, EncoderConfig::default());
        ci.fit(&train);
        let users = [2u32, 0, 1, 3, 4, 0, 2, 4, 3, 1, 2, 0].map(UserIdx);
        for k in [1usize, 3, usize::MAX] {
            let batch = ci.recommend_batch(&users, k);
            assert_eq!(batch.len(), users.len());
            for (&u, got) in users.iter().zip(&batch) {
                assert_eq!(got, &ci.recommend(u, k), "user {u:?} k {k}");
            }
        }
    }

    #[test]
    fn batch_into_reuses_ranking_pool() {
        let c = corpus();
        let train = Interactions::from_pairs(2, 4, &[(UserIdx(0), BookIdx(0))]);
        let mut ci = ClosestItems::from_corpus(&c, SummaryFields::BEST, EncoderConfig::default());
        ci.fit(&train);
        let users = [UserIdx(0), UserIdx(0), UserIdx(0)];
        let mut pool: Vec<Vec<u32>> = Vec::new();
        ci.recommend_batch_into(&users, 3, &mut pool);
        let ptrs: Vec<*const u32> = pool.iter().map(|v| v.as_ptr()).collect();
        let first = pool.clone();
        ci.recommend_batch_into(&users, 3, &mut pool);
        assert_eq!(pool, first);
        for (i, v) in pool.iter().enumerate() {
            assert_eq!(v.as_ptr(), ptrs[i], "ranking buffer {i} reallocated");
        }
    }

    #[test]
    #[should_panic(expected = "catalogue size")]
    fn mismatched_store_panics() {
        let c = corpus();
        let train = Interactions::from_pairs(1, 9, &[]);
        let mut ci = ClosestItems::from_corpus(&c, SummaryFields::ALL, EncoderConfig::default());
        ci.fit(&train);
    }
}
