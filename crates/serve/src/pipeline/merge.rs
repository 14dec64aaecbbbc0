//! Deterministic merge/dedup of per-source candidate emissions.
//!
//! Stage two of the serving pipeline: the per-source candidate lists
//! from [`crate::pipeline::sources`] are pooled into one deduplicated
//! list in ascending book order, regardless of how many sources ran or
//! in which order their emissions arrive — a hard determinism
//! requirement (DESIGN.md §15). When two sources propose the same book
//! the *first* proposal in emission order wins, so the explanation a
//! reader sees always names the highest-priority signal that suggested
//! the book.
//!
//! The emissions are concatenated into the pool, and each candidate gets
//! one `u64` key, `book << 32 | position`. Sorting the keys orders them by
//! book, then by position, so the first key of each book names the
//! candidate that survives; the survivors are then gathered to the front
//! of the pool in key order. Sorting 8-byte keys instead of the 24-byte
//! candidates is what keeps the merge cheap next to the sources' scans.

use super::sources::Candidate;

/// Merges per-source emissions for one user into `pool`, deduplicating
/// by book with first-source-wins provenance. `pool` is cleared and
/// refilled in ascending book order; reused across calls, it allocates
/// only the key buffer.
pub fn merge_into<'a, I>(emissions: I, pool: &mut Vec<Candidate>)
where
    I: IntoIterator<Item = &'a [Candidate]>,
{
    pool.clear();
    for emission in emissions {
        pool.extend_from_slice(emission);
    }
    // A position fits the low word: a pool of 2^32 candidates would
    // need 96 GiB.
    let mut keys: Vec<u64> = pool
        .iter()
        .zip(0u32..)
        .map(|(c, at)| u64::from(c.book) << 32 | u64::from(at))
        .collect();
    keys.sort_unstable();
    // In-place gather of the first key of each book. Slot `kept` takes
    // the candidate from position `at`, and the candidate it held moves
    // to `at`; `keys[kept]` (already read) records that move. A wanted
    // position below `kept` was such a slot, so its candidate is found
    // by following the recorded moves, which only go forward.
    let mut kept = 0;
    let mut last = None;
    for j in 0..keys.len() {
        let key = keys[j];
        let book = (key >> 32) as u32;
        if last == Some(book) {
            continue;
        }
        last = Some(book);
        let mut at = key as u32 as usize;
        while at < kept {
            at = keys[at] as usize;
        }
        pool.swap(kept, at);
        keys[kept] = at as u64;
        kept += 1;
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
