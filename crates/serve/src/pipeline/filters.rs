//! Candidate filters: the business-rule stage of the serving pipeline.
//!
//! After merge/dedup, each [`CandidateFilter`] gets one in-place pass
//! over the pooled candidates (`Vec::retain`-style), in the order the
//! filters were configured. The pool arrives best-first (see
//! [`crate::pipeline::merge`]), and a filter only looks backwards: it
//! keeps its survivors in order, and its verdict on a candidate depends
//! only on the candidates before it. So filtering a pool that grew at
//! its end leaves the filtered old pool as the prefix, which is what
//! lets the engine run the secondary sources only for the users the
//! primary cannot fill (DESIGN.md §15). Filters are pure functions of
//! the [`FilterCtx`] and the pool — no I/O, no clock — so a fixed
//! configuration filters identically on every run. A filter that lacks
//! its inputs (e.g. the diversity cap with no [`BookGenres`]
//! configured) must degrade to a no-op rather than guess.

use super::sources::{BookGenres, Candidate};
use rm_dataset::ids::UserIdx;
use std::fmt;

/// Per-user inputs a filter may consult.
#[derive(Debug, Clone, Copy)]
pub struct FilterCtx<'a> {
    /// The user being served.
    pub user: UserIdx,
    /// The user's training-set reading history, ascending book order.
    pub seen: &'a [u32],
    /// Catalogue genre lookup, when the engine was configured with one.
    pub genres: Option<&'a BookGenres>,
}

/// One business rule applied to the merged candidate pool.
pub trait CandidateFilter: Send + Sync + fmt::Debug {
    /// Drops candidates from `pool` in place. The pool arrives
    /// best-first (the merge stage's output order). The relative order
    /// of survivors must be preserved, and whether a candidate survives
    /// may depend only on the candidates before it in the pool.
    fn retain(&self, ctx: &FilterCtx<'_>, pool: &mut Vec<Candidate>);
}

/// Drops books the user has already borrowed. Every bundled source
/// excludes the seen set on its own; this filter is the safety net for
/// external sources that do not.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlreadyBorrowedFilter;

impl CandidateFilter for AlreadyBorrowedFilter {
    fn retain(&self, ctx: &FilterCtx<'_>, pool: &mut Vec<Candidate>) {
        pool.retain(|c| ctx.seen.binary_search(&c.book).is_err());
    }
}

/// Caps how many candidates any single primary genre may contribute, so
/// one dominant genre cannot crowd the pool. The pool arrives
/// best-first, so the survivors of each genre are its first
/// `max_per_genre` candidates in pool order: the primary source's
/// best-ranked ones, then the later sources' first new books. Books with
/// no primary genre share one "unknown" bucket. No-op when the engine
/// has no [`BookGenres`] configured.
#[derive(Debug, Clone, Copy)]
pub struct DiversityCapFilter {
    max_per_genre: usize,
}

impl DiversityCapFilter {
    /// Caps each primary genre's pool share at `max_per_genre`.
    #[must_use]
    pub fn new(max_per_genre: usize) -> Self {
        Self { max_per_genre }
    }
}

impl CandidateFilter for DiversityCapFilter {
    fn retain(&self, ctx: &FilterCtx<'_>, pool: &mut Vec<Candidate>) {
        let Some(genres) = ctx.genres else {
            return;
        };
        // 256 genre buckets plus one for books without a primary genre.
        let mut counts = [0usize; 257];
        pool.retain(|c| {
            let bucket = genres.primary(c.book).map_or(256, usize::from);
            counts[bucket] += 1;
            counts[bucket] <= self.max_per_genre
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::sources::{Reason, SourceId};
    use super::*;

    fn cand(book: u32) -> Candidate {
        Candidate {
            book,
            source: SourceId::MostRead,
            reason: Reason::Exploration,
        }
    }

    fn genres() -> BookGenres {
        // books 0,1,2 -> genre 0; book 3 -> genre 1; book 4 -> unlabelled.
        BookGenres::new(vec![Some(0), Some(0), Some(0), Some(1), None])
    }

    fn ctx<'a>(seen: &'a [u32], genres: Option<&'a BookGenres>) -> FilterCtx<'a> {
        FilterCtx {
            user: UserIdx(0),
            seen,
            genres,
        }
    }

    #[test]
    fn already_borrowed_drops_seen_books() {
        let mut pool = vec![cand(1), cand(2), cand(3)];
        AlreadyBorrowedFilter.retain(&ctx(&[0, 2], None), &mut pool);
        let books: Vec<u32> = pool.iter().map(|c| c.book).collect();
        assert_eq!(books, vec![1, 3]);
    }

    #[test]
    fn diversity_cap_keeps_first_c_per_genre_in_pool_order() {
        let g = genres();
        let mut pool = vec![cand(2), cand(3), cand(0), cand(4), cand(1)];
        DiversityCapFilter::new(2).retain(&ctx(&[], Some(&g)), &mut pool);
        let books: Vec<u32> = pool.iter().map(|c| c.book).collect();
        assert_eq!(
            books,
            vec![2, 3, 0, 4],
            "genre 0 keeps its first two in pool order, not its lowest indices"
        );
    }
}
