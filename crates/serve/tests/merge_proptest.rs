//! Property: the merge stage pools exactly the first proposal of each
//! book in emission order — one candidate per book, in the order the
//! emissions proposed them, and for a book proposed more than once the
//! first proposal (within one emission, then across emissions) keeps its
//! position and its provenance.
//!
//! Books are drawn from a small range, so most cases repeat books within
//! one emission and across emissions; a quarter of the emissions are
//! empty, and some cases have no emission at all. A second property runs
//! emissions of up to 300 candidates, the size of a real source's pool,
//! over books up to `u32::MAX`, so a merge key that shifted, truncated or
//! narrowed the book or the position would pool a wrong candidate.

use proptest::collection::vec;
use proptest::{prop_assert_eq, proptest};
use rm_serve::pipeline::merge_into;
use rm_serve::{Candidate, Reason, SourceId};
use std::collections::BTreeSet;

/// The reference: one linear scan over the emissions in order, keeping
/// each candidate whose book is not yet in the set of taken books.
fn btree_merge(emissions: &[Vec<Candidate>]) -> Vec<Candidate> {
    let mut taken: BTreeSet<u32> = BTreeSet::new();
    emissions
        .iter()
        .flatten()
        .filter(|cand| taken.insert(cand.book))
        .copied()
        .collect()
}

const SOURCES: [SourceId; 3] = [
    SourceId::CfNeighbours,
    SourceId::ContentSimilar,
    SourceId::MostRead,
];

/// Builds the emissions: emission `e` comes from `SOURCES[e % 3]`, is
/// empty when its flag is 0, and each candidate's reason records its
/// position, so two proposals of one book never compare equal and the
/// surviving one is identified exactly.
fn emissions_of(raw: &[(u8, Vec<u32>)]) -> Vec<Vec<Candidate>> {
    raw.iter()
        .enumerate()
        .map(|(e, (empty, books))| {
            let books = if *empty == 0 { &[][..] } else { &books[..] };
            books
                .iter()
                .enumerate()
                .map(|(j, &book)| Candidate {
                    book,
                    source: SOURCES[e % SOURCES.len()],
                    reason: Reason::MostRead {
                        count: (e * 1000 + j) as u64,
                    },
                })
                .collect()
        })
        .collect()
}

proptest! {
    #[test]
    fn merge_matches_btreemap_reference(
        raw in vec((0u8..4, vec(0u32..24, 0..40)), 0..5),
        stale in vec(0u32..24, 0..8),
    ) {
        let emissions = emissions_of(&raw);
        // The pool arrives holding a previous user's candidates.
        let mut pool: Vec<Candidate> = stale
            .iter()
            .map(|&book| Candidate {
                book,
                source: SourceId::MostRead,
                reason: Reason::Exploration,
            })
            .collect();
        merge_into(emissions.iter().map(Vec::as_slice), &mut pool);
        prop_assert_eq!(pool, btree_merge(&emissions));
    }

    #[test]
    fn merge_matches_btreemap_reference_at_pool_size_and_key_edges(
        raw in vec((0u8..4, vec((0usize..4, 0u32..300), 0..300)), 0..5),
    ) {
        // Books come from four bands of 300: from 0, 2^16 and 2^31, and
        // up to `u32::MAX`. They repeat within and across emissions, the
        // top band fills every bit of the key's high word, and the bands
        // from 2^16 and 2^31 collide with the bottom one in a key that
        // drops a book's upper 16 bits or its top bit.
        const BANDS: [u32; 4] = [0, 1 << 16, 1 << 31, u32::MAX - 299];
        let raw: Vec<(u8, Vec<u32>)> = raw
            .into_iter()
            .map(|(empty, draws)| {
                let books = draws
                    .into_iter()
                    .map(|(band, offset)| BANDS[band] + offset)
                    .collect();
                (empty, books)
            })
            .collect();
        let emissions = emissions_of(&raw);
        let mut pool = Vec::new();
        merge_into(emissions.iter().map(Vec::as_slice), &mut pool);
        prop_assert_eq!(pool, btree_merge(&emissions));
    }
}
