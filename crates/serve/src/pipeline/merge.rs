//! Deterministic merge/dedup of per-source candidate emissions.
//!
//! Stage two of the serving pipeline: the per-source candidate lists
//! from [`crate::pipeline::sources`] are pooled into one deduplicated
//! list that keeps the *first* proposal of each book in emission order,
//! and keeps those proposals in that order. The pool therefore arrives
//! best-first: the primary source's candidates in its own rank order,
//! then each later source's new books in its order (DESIGN.md §15). A
//! book two sources propose keeps the earlier source's provenance, so
//! the explanation a reader sees always names the highest-priority
//! signal that suggested the book.
//!
//! The emissions are concatenated into the pool, and each candidate gets
//! one `u64` key, `book << 32 | position`. Sorting the keys orders them by
//! book, then by position, so the first key of each book names the
//! candidate that survives; that position is marked in a bitmap over the
//! pool, and the marked candidates are compacted to the front in position
//! order. Keys and bitmap share one buffer of `pool + pool / 64` words,
//! whatever the book indices, so the merge stays cheap next to the
//! sources' scans.

use super::sources::Candidate;

/// Merges per-source emissions for one user into `pool`, deduplicating
/// by book with first-source-wins provenance. `pool` is cleared and
/// refilled with the first proposal of each book, in emission order;
/// reused across calls, it allocates only the key buffer.
pub fn merge_into<'a, I>(emissions: I, pool: &mut Vec<Candidate>)
where
    I: IntoIterator<Item = &'a [Candidate]>,
{
    pool.clear();
    for emission in emissions {
        pool.extend_from_slice(emission);
    }
    let n = pool.len();
    // A position fits the low word: a pool of 2^32 candidates would
    // need 96 GiB. The bitmap's words follow the keys, zeroed.
    let mut scratch: Vec<u64> = pool
        .iter()
        .zip(0u32..)
        .map(|(c, at)| u64::from(c.book) << 32 | u64::from(at))
        .chain(std::iter::repeat_n(0, n.div_ceil(64)))
        .collect();
    let (keys, first) = scratch.split_at_mut(n);
    keys.sort_unstable();
    let mut last = None;
    for &key in keys.iter() {
        let book = (key >> 32) as u32;
        if last != Some(book) {
            last = Some(book);
            let at = key as u32 as usize;
            first[at / 64] |= 1 << (at % 64);
        }
    }
    // A kept candidate moves only toward the front, onto a position
    // already read.
    let mut kept = 0;
    for at in 0..n {
        if first[at / 64] >> (at % 64) & 1 == 1 {
            pool[kept] = pool[at];
            kept += 1;
        }
    }
    pool.truncate(kept);
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
    fn merge_dedups_in_emission_order() {
        let a = [
            cand(5, SourceId::CfNeighbours),
            cand(2, SourceId::CfNeighbours),
        ];
        let b = [cand(2, SourceId::MostRead), cand(9, SourceId::MostRead)];
        let mut pool = vec![cand(99, SourceId::MostRead)]; // stale content is cleared
        merge_into([a.as_slice(), b.as_slice()], &mut pool);
        let books: Vec<u32> = pool.iter().map(|c| c.book).collect();
        assert_eq!(books, vec![5, 2, 9], "first source's order, then new books");
        assert_eq!(pool[1].source, SourceId::CfNeighbours);
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
