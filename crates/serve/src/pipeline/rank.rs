//! The rank stage: score the merged pool and keep the top `k`.
//!
//! Reuses the deterministic [`TopK`] selector that backs
//! `rank_by_scores_into` (rm-core), with the same contract: ties break
//! toward the lower book index whatever order the pool is pushed in,
//! because [`TopK`]'s packed keys order by score, then by inverted
//! index. So ranking the best-first pool (see [`crate::pipeline::merge`])
//! gives exactly what a full-catalogue `rank_by_scores` walk restricted
//! to the pool would give. That identity is what makes the default
//! pipeline bit-identical to the legacy fallback chain, and what lets the
//! engine skip the secondary sources for a user the primary fills
//! (DESIGN.md §15).

use super::sources::Candidate;
use rm_util::TopK;

/// Ranks `pool` by `score` and writes the top `k` book indices into
/// `out` (cleared first), best first. `top` is caller-owned scratch so
/// batch serving loops rank without per-call allocation. An empty pool
/// yields an empty `out`.
pub fn rank_pool_into(
    pool: &[Candidate],
    k: usize,
    mut score: impl FnMut(u32) -> f32,
    top: &mut TopK,
    out: &mut Vec<u32>,
) {
    if pool.is_empty() {
        out.clear();
        return;
    }
    let k = k.min(pool.len()).max(1);
    top.reset(k);
    for cand in pool {
        top.push(cand.book, score(cand.book));
    }
    top.drain_sorted_into(out);
}

#[cfg(test)]
mod tests {
    use super::super::sources::{Reason, SourceId};
    use super::*;

    fn pool(books: &[u32]) -> Vec<Candidate> {
        books
            .iter()
            .map(|&book| Candidate {
                book,
                source: SourceId::MostRead,
                reason: Reason::Exploration,
            })
            .collect()
    }

    #[test]
    fn ranks_best_first_with_lower_index_tie_break() {
        let pool = pool(&[1, 3, 5, 7]);
        let mut top = TopK::new(1);
        let mut out = Vec::new();
        // Books 3 and 5 tie; 3 must win the tie.
        let score = |b: u32| match b {
            3 | 5 => 2.0,
            7 => 3.0,
            _ => 1.0,
        };
        rank_pool_into(&pool, 3, score, &mut top, &mut out);
        assert_eq!(out, vec![7, 3, 5]);
    }

    #[test]
    fn empty_pool_yields_empty_ranking() {
        let mut top = TopK::new(1);
        let mut out = vec![42];
        rank_pool_into(&[], 5, |_| 0.0, &mut top, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn k_larger_than_pool_returns_whole_pool_ranked() {
        let pool = pool(&[2, 4]);
        let mut top = TopK::new(1);
        let mut out = Vec::new();
        rank_pool_into(
            &pool,
            usize::MAX,
            |b| f32::from(u16::try_from(b).unwrap()),
            &mut top,
            &mut out,
        );
        assert_eq!(out, vec![4, 2]);
    }
}
