//! The candidate-source orchestration pipeline (DESIGN.md §15).
//!
//! The paper's central claim is that *heterogeneous* signals — loans,
//! catalogue content, popularity — beat any single model. The pipeline
//! makes that heterogeneity an explicit serving structure instead of a
//! hard-coded fallback chain:
//!
//! ```text
//! sources ──▶ merge/dedup ──▶ filters ──▶ rank ──▶ top-k + explanations
//!                                           └─ empty ─▶ terminals
//! ```
//!
//! * [`sources`] — [`CandidateSource`]s fan out per request, each
//!   emitting a few hundred [`Candidate`]s with provenance (who
//!   proposed the book, and why), one type per signal, with IVF
//!   retrieval and quantized scoring as builder steps;
//! * [`merge`] — deterministic pooling, deduplicated by book index with
//!   first-source-wins provenance, best-first: the primary's candidates
//!   in its rank order, then each later source's new books;
//! * [`filters`] — [`CandidateFilter`] business rules pruning the pool
//!   in place, each verdict looking only at the candidates before it;
//! * [`rank`] — the pooled survivors are re-scored by the primary
//!   source's model and reduced to top-k with the same deterministic
//!   [`rm_util::TopK`] selector the recommenders use;
//! * [`explain`] — the winning candidates' [`Reason`]s render as
//!   reader-facing sentences ("because you borrowed X");
//! * terminals — users the stages above left empty try the fallback
//!   chain's remaining slots in order, each through its exact-scan
//!   source ([`CfNeighboursSource`], [`ContentSimilarSource`],
//!   [`MostReadSource`], or [`FallbackSource`] for Random) answering
//!   its own top-k, re-stamped [`SourceId::Fallback`].
//!
//! When the primary source retrieves exhaustively (its emission is its
//! exact top-`pool_size` under the rank stage's scores), the engine runs
//! the secondary sources only for the users whose ranked answer comes
//! out shorter than k: for every other user a secondary's books would
//! rank below the primary's and, the filters looking backwards, could
//! not reach the top-k (DESIGN.md §15).
//!
//! The engine runs every slot call, source or terminal, inside one
//! fault envelope: the per-slot circuit breaker, panic isolation, and
//! deadline budgets. The brownout level picks the sources, the filter
//! flag, and the terminals from a plan built once at engine load. With
//! the default configuration (single CF source, no filters) the
//! pipeline's top-k is bit-identical to the pre-pipeline chain.

pub mod explain;
pub mod filters;
pub mod merge;
pub mod rank;
pub mod sources;

pub use filters::{AlreadyBorrowedFilter, CandidateFilter, DiversityCapFilter, FilterCtx};
pub use merge::merge_into;
pub use rank::rank_pool_into;
pub use sources::{
    anchor_book, AnnCfNeighboursSource, AnnContentSimilarSource, BookGenres, Candidate,
    CandidateSource, CfNeighboursSource, ContentSimilarSource, FallbackSource, MostReadSource,
    Reason, SourceId,
};

use crate::engine::ModelSlot;
use std::sync::Arc;

/// Pipeline-stage configuration carried inside `EngineConfig`.
///
/// The zero-value default — no explicit sources, pool of 256, no
/// filters, no genre lookup — makes the pipeline behave exactly like
/// the legacy fallback chain: the engine derives a single source from
/// the head of the chain and ranks its emission unfiltered.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Slots to run as candidate sources, in priority order (priority
    /// decides merge provenance and the rank-stage scoring model).
    /// `None` derives the single-source default from the fallback
    /// chain's head.
    pub sources: Option<Vec<ModelSlot>>,
    /// Candidates each source may emit per user. The effective pool is
    /// `pool_size.max(k)` so a large request never truncates below `k`.
    pub pool_size: usize,
    /// Business-rule filters, applied in order after the merge.
    pub filters: Vec<Arc<dyn CandidateFilter>>,
    /// Catalogue genre lookup for genre-aware filters.
    pub book_genres: Option<Arc<BookGenres>>,
    /// Posting lists probed per ANN-accelerated source call. Only
    /// consulted when the loaded registry carries a valid ANN artifact;
    /// clamped to the index's list count at search time, so a value of
    /// `usize::MAX` forces exact (bit-identical) retrieval through the
    /// index.
    pub ann_nprobe: usize,
}

/// Default [`PipelineConfig::ann_nprobe`]: with the trainer's `√n`
/// list-count heuristic this probes a fixed slice of the coarse space —
/// small enough to keep retrieval sub-linear at catalogue scale, large
/// enough for high recall on clustered data (see `BENCH_ann.json`).
pub const DEFAULT_ANN_NPROBE: usize = 8;

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            sources: None,
            pool_size: 256,
            filters: Vec::new(),
            book_genres: None,
            ann_nprobe: DEFAULT_ANN_NPROBE,
        }
    }
}
