//! The paper's recommender suite (Section 4).
//!
//! Four implicit-feedback recommenders behind one [`Recommender`] trait:
//!
//! * [`random::RandomItems`] — baseline: k unseen books uniformly at
//!   random;
//! * [`most_read::MostReadItems`] — baseline: the globally most-read books
//!   of the training set, minus each user's seen set;
//! * [`closest::ClosestItems`] — content-based: rank unseen books by mean
//!   cosine similarity between metadata-summary embeddings and the user's
//!   read books (Eq. 1), with a centroid fast path that is exactly
//!   equivalent;
//! * [`bpr::Bpr`] — collaborative filtering: matrix factorisation trained
//!   on the BPR pairwise objective (Eqs. 2–3) with the WARP
//!   negative-sampling variant of Weston et al. for the SGD updates.
//!
//! [`grid::GridSearch`] sweeps BPR hyper-parameters against a
//! caller-supplied validation scorer (the paper selects by validation URR),
//! and [`persist`] round-trips trained factor models through a compact
//! binary codec.
//!
//! Three extensions implement the paper's future-work directions and the
//! surrounding literature's standard baselines:
//! [`markov::SequentialItems`] (first-order sequential recommendation,
//! Section 7's pointer to Wang et al. 2019), [`hybrid::Blend`] (the CB+CF
//! hybrid its related work surveys), and [`item_knn::ItemKnn`] (the
//! classic item-based CF the `implicit` ecosystem ships).
//!
//! # Buffer-reuse naming convention
//!
//! Every hot-path API that can refill a caller-owned buffer instead of
//! allocating comes in two spellings, across rm-core, rm-embed, and
//! rm-eval alike:
//!
//! * the plain name (`recommend_batch`, `similarities`,
//!   `mean_embedding`) allocates and returns its result;
//! * the `*_into(&mut ...)` variant takes the same inputs *in the same
//!   order*, followed by the output buffer(s) last; the buffer is
//!   cleared and refilled in place, and the contents are byte-identical
//!   to what the plain variant returns.
//!
//! New buffer-reusing APIs must follow this shape — no `_buf` suffixes,
//! no output-first argument orders.

pub mod bpr;
pub mod closest;
pub mod grid;
pub mod hybrid;
pub mod item_knn;
pub mod markov;
pub mod most_read;
pub mod persist;
pub mod quant;
pub mod random;

use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;

/// A top-N implicit-feedback recommender.
///
/// The lifecycle is `fit` once on a training interaction matrix, then any
/// number of `recommend`/`rank_all`/`score` calls. Users and books are the
/// dense corpus indices of the training matrix.
pub trait Recommender {
    /// Short display name (used in report tables). Borrowed from `self` so
    /// implementations may carry runtime-built names (e.g. a serving slot
    /// labelled with its artifact epoch).
    fn name(&self) -> &str;

    /// Fits the recommender on the training interactions.
    fn fit(&mut self, train: &Interactions);

    /// Model score of `(user, book)`; higher ranks earlier. Only
    /// meaningful after [`Recommender::fit`].
    fn score(&self, user: UserIdx, book: BookIdx) -> f32;

    /// The top-`k` unseen books for `user`, best first. Books the user has
    /// read in the training set are never recommended.
    fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32>;

    /// Top-`k` recommendations for a batch of users, in input order.
    ///
    /// Delegates to [`Recommender::recommend_batch_into`] with a fresh
    /// output pool; callers that batch repeatedly (the eval harness, the
    /// serving engine) should hold the pool themselves and call the
    /// `_into` variant directly.
    fn recommend_batch(&self, users: &[UserIdx], k: usize) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        self.recommend_batch_into(users, k, &mut out);
        out
    }

    /// [`Recommender::recommend_batch`] writing into a caller-owned pool.
    ///
    /// `out` is resized to `users.len()`; each inner `Vec` is cleared and
    /// refilled *in place*, so a pool passed back across batches makes
    /// per-user scoring allocation-free once the buffers have grown to
    /// steady state. Implementations must produce rankings byte-identical
    /// to the corresponding single-user [`Recommender::recommend`] calls.
    ///
    /// The default defers to `recommend` per user (allocating per user);
    /// models with per-call setup cost (score buffers, centroids) override
    /// it to amortise that work and reuse the pool.
    fn recommend_batch_into(&self, users: &[UserIdx], k: usize, out: &mut Vec<Vec<u32>>) {
        out.resize_with(users.len(), Vec::new);
        for (&u, slot) in users.iter().zip(out.iter_mut()) {
            *slot = self.recommend(u, k);
        }
    }

    /// The full ranking of unseen books, used by the First-Rank KPI:
    /// `recommend` with an unbounded `k`, which every implementation
    /// clamps to the catalogue.
    fn rank_all(&self, user: UserIdx) -> Vec<u32> {
        self.recommend(user, usize::MAX)
    }
}

/// Shared helper: ranks all books by a score function, excluding `seen`,
/// keeping the top `k`. Ties break toward the lower book index.
#[must_use]
pub(crate) fn rank_by_scores(
    n_books: usize,
    seen: &[u32],
    k: usize,
    score: impl FnMut(u32) -> f32,
) -> Vec<u32> {
    let mut top = rm_util::TopK::new(1);
    let mut out = Vec::new();
    rank_by_scores_into(n_books, seen, k, score, &mut top, &mut out);
    out
}

/// [`rank_by_scores`] with caller-owned scratch: `top` is re-armed via
/// [`rm_util::TopK::reset`] and `out` refilled in place, so batch scorers
/// rank every user without per-user allocation.
pub(crate) fn rank_by_scores_into(
    n_books: usize,
    seen: &[u32],
    k: usize,
    mut score: impl FnMut(u32) -> f32,
    top: &mut rm_util::TopK,
    out: &mut Vec<u32>,
) {
    // Clamp before TopK: `k` may be usize::MAX ("rank everything") and
    // TopK pre-allocates its capacity; k = 0 ranks nothing.
    let k = k.min(n_books);
    if k == 0 {
        out.clear();
        return;
    }
    top.reset(k);
    let mut seen_iter = seen.iter().copied().peekable();
    for b in 0..n_books as u32 {
        // `seen` is sorted: advance the cursor instead of binary-searching.
        if seen_iter.peek() == Some(&b) {
            seen_iter.next();
            continue;
        }
        top.push(b, score(b));
    }
    top.drain_sorted_into(out);
}

/// Ranks a batch of users through query-blocked catalogue scans: the one
/// batch loop [`bpr::Bpr`] and [`closest::ClosestItems`] share.
///
/// `query_into` writes a user's query vector into the buffer it is handed
/// and returns `false` for a user without one, whose slot in `out` is
/// left empty. The users that have a query are gathered four at a time
/// and scored in one `scan` call — a
/// [`rm_sparse::DenseMatrix::matvec_block_into`] pass, which loads each
/// catalogue row once for all four — and each is then ranked by
/// [`rank_by_scores_into`] against its training history. The kernel's
/// reduction order does not depend on how many queries share a pass, so
/// every ranking is byte-identical to the model's single-user `recommend`.
///
/// The query and score buffers (four of each, grown on first use) and the
/// `TopK` live for the call; per user and per quad nothing is allocated,
/// and `out`'s inner vectors are refilled in place.
pub(crate) fn rank_by_scores_blocked_into(
    users: &[UserIdx],
    train: &Interactions,
    k: usize,
    mut query_into: impl FnMut(UserIdx, &mut Vec<f32>) -> bool,
    mut scan: impl FnMut(&[&[f32]], &mut [Vec<f32>]),
    out: &mut Vec<Vec<u32>>,
) {
    const QUAD: usize = 4;
    let n_books = train.n_books();
    out.resize_with(users.len(), Vec::new);
    let mut top = rm_util::TopK::new(1);
    let mut queries: [Vec<f32>; QUAD] = Default::default();
    let mut scores: [Vec<f32>; QUAD] = Default::default();
    let mut slots = [0usize; QUAD];
    let mut next = 0;
    loop {
        let mut n = 0;
        while n < QUAD && next < users.len() {
            if query_into(users[next], &mut queries[n]) {
                slots[n] = next;
                n += 1;
            } else {
                out[next].clear();
            }
            next += 1;
        }
        if n == 0 {
            return;
        }
        let xs: [&[f32]; QUAD] = std::array::from_fn(|j| queries[j].as_slice());
        scan(&xs[..n], &mut scores[..n]);
        for (&slot, scores) in slots[..n].iter().zip(&scores[..n]) {
            rank_by_scores_into(
                n_books,
                train.seen(users[slot]),
                k,
                |b| scores[b as usize],
                &mut top,
                &mut out[slot],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_by_scores_excludes_seen_and_orders() {
        let got = rank_by_scores(5, &[1, 3], 3, |b| b as f32);
        assert_eq!(got, vec![4, 2, 0]);
    }

    #[test]
    fn rank_by_scores_k_larger_than_catalog() {
        let got = rank_by_scores(3, &[], 10, |b| -(b as f32));
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn rank_by_scores_k_zero_ranks_nothing() {
        assert!(rank_by_scores(5, &[1], 0, |b| b as f32).is_empty());
        let (mut top, mut out) = (rm_util::TopK::new(1), vec![7]);
        rank_by_scores_into(5, &[], 0, |b| b as f32, &mut top, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn rank_by_scores_all_seen() {
        let got = rank_by_scores(2, &[0, 1], 5, |_| 1.0);
        assert!(got.is_empty());
    }
}
