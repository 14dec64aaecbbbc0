//! Property: the merge stage pools exactly what the `BTreeMap` merge it
//! replaced pooled — one candidate per book, ascending book order, and
//! for a book proposed more than once the first proposal in emission
//! order (within one emission, then across emissions) keeps its
//! provenance.
//!
//! Books are drawn from a small range, so most cases repeat books within
//! one emission and across emissions; a quarter of the emissions are
//! empty, and some cases have no emission at all.

use proptest::collection::vec;
use proptest::{prop_assert_eq, proptest};
use rm_serve::pipeline::merge_into;
use rm_serve::{Candidate, Reason, SourceId};
use std::collections::BTreeMap;

/// The reference: a `BTreeMap` keyed by book, first insertion wins,
/// drained in ascending key order.
fn btree_merge(emissions: &[Vec<Candidate>]) -> Vec<Candidate> {
    let mut by_book: BTreeMap<u32, Candidate> = BTreeMap::new();
    for emission in emissions {
        for &cand in emission {
            by_book.entry(cand.book).or_insert(cand);
        }
    }
    by_book.into_values().collect()
}

const SOURCES: [SourceId; 3] = [
    SourceId::CfNeighbours,
    SourceId::ContentSimilar,
    SourceId::MostRead,
];

proptest! {
    #[test]
    fn merge_matches_btreemap_reference(
        raw in vec((0u8..4, vec(0u32..24, 0..40)), 0..5),
        stale in vec(0u32..24, 0..8),
    ) {
        // Each candidate's reason records its position, so two proposals
        // of one book never compare equal and the surviving one is
        // identified exactly.
        let emissions: Vec<Vec<Candidate>> = raw
            .iter()
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
            .collect();
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
}
