//! Deterministic merge/dedup of per-source candidate emissions.
//!
//! Stage two of the serving pipeline: the per-source candidate lists
//! from [`crate::pipeline::sources`] are pooled into one deduplicated
//! list. The emissions are concatenated, stably sorted by book index and
//! deduplicated, so the output order is ascending book index regardless
//! of how many sources ran or in which order their emissions arrive — a
//! hard determinism requirement (DESIGN.md §15). When two sources
//! propose the same book the *first* source's provenance wins (the
//! stable sort keeps emission order among equal books, and the dedup
//! keeps the first of each run), so the explanation a reader sees
//! always names the highest-priority signal that suggested the book.

use super::sources::Candidate;

/// Merges per-source emissions for one user into `pool`, deduplicating
/// by book with first-source-wins provenance. `pool` is cleared and
/// refilled in ascending book order; reused across calls, it allocates
/// only the stable sort's scratch.
pub fn merge_into<'a, I>(emissions: I, pool: &mut Vec<Candidate>)
where
    I: IntoIterator<Item = &'a [Candidate]>,
{
    pool.clear();
    for emission in emissions {
        pool.extend_from_slice(emission);
    }
    pool.sort_by_key(|c| c.book);
    pool.dedup_by_key(|c| c.book);
}

#[cfg(test)]
mod tests {
    use super::super::sources::{Reason, SourceId};
    use super::*;

    fn cand(book: u32, source: SourceId) -> Candidate {
        Candidate {
            book,
            source,
            reason: Reason::Exploration,
        }
    }

    #[test]
    fn merge_dedups_and_sorts_by_book() {
        let a = [
            cand(5, SourceId::CfNeighbours),
            cand(2, SourceId::CfNeighbours),
        ];
        let b = [cand(2, SourceId::MostRead), cand(9, SourceId::MostRead)];
        let mut pool = vec![cand(99, SourceId::MostRead)]; // stale content is cleared
        merge_into([a.as_slice(), b.as_slice()], &mut pool);
        let books: Vec<u32> = pool.iter().map(|c| c.book).collect();
        assert_eq!(books, vec![2, 5, 9]);
    }

    #[test]
    fn first_source_wins_provenance() {
        let a = [cand(7, SourceId::CfNeighbours)];
        let b = [cand(7, SourceId::MostRead)];
        let mut pool = Vec::new();
        merge_into([a.as_slice(), b.as_slice()], &mut pool);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool[0].source, SourceId::CfNeighbours);
        // And the winner does not depend on per-emission candidate order,
        // only on emission order.
        merge_into([b.as_slice(), a.as_slice()], &mut pool);
        assert_eq!(pool[0].source, SourceId::MostRead);
    }

    #[test]
    fn empty_emissions_yield_empty_pool() {
        let mut pool = vec![cand(1, SourceId::CfNeighbours)];
        merge_into(std::iter::empty::<&[Candidate]>(), &mut pool);
        assert!(pool.is_empty());
    }
}
