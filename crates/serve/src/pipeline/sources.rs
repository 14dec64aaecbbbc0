//! Candidate sources: the fan-out stage of the serving pipeline.
//!
//! A [`CandidateSource`] wraps one retrieval signal — collaborative
//! filtering, content similarity, global popularity — and emits a few
//! hundred [`Candidate`]s per user, each carrying its provenance: which
//! source proposed it ([`SourceId`]) and why ([`Reason`]). The fallback
//! chain's terminal slots are served by the same exact-scan sources,
//! asked for `k` candidates. Provenance is what the explanation layer
//! ([`crate::pipeline::explain`]) surfaces as "because you borrowed X",
//! and what the merge stage keeps when two sources propose the same
//! book (first source wins — see [`crate::pipeline::merge`]).
//!
//! Sources are ranked *suggestions*, not answers: the pipeline merges,
//! filters, and re-scores the pooled candidates, so a source only has
//! to be good at recall. Every source emits in a deterministic order
//! for a fixed model + training matrix.

use crate::engine::ModelSlot;
use rm_core::bpr::Bpr;
use rm_core::closest::ClosestItems;
use rm_core::most_read::MostReadItems;
use rm_core::quant::{QuantArtifact, QuantMatrix, QuantQuery, QuantRecommender};
use rm_core::Recommender;
use rm_dataset::corpus::Corpus;
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;
use rm_embed::ivf::{IvfIndex, IvfScratch};
use rm_embed::store::EmbeddingStore;
use rm_sparse::vecops;

/// Which source proposed a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceId {
    /// Collaborative filtering over co-borrowing neighbourhoods (BPR).
    CfNeighbours,
    /// Content similarity to the user's borrowed books (Closest Items).
    ContentSimilar,
    /// Global popularity (Most Read Items).
    MostRead,
    /// A plain fallback wrap of one serving slot (e.g. Random Items).
    Fallback(ModelSlot),
}

impl SourceId {
    /// Snake-case identifier for trace events and CLI output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::CfNeighbours => "cf_neighbours",
            Self::ContentSimilar => "content_similar",
            Self::MostRead => "most_read",
            Self::Fallback(slot) => slot.metric_label(),
        }
    }

    /// The serving slot this source is backed by — used to attribute
    /// `served` metrics.
    #[must_use]
    pub fn slot(self) -> ModelSlot {
        match self {
            Self::CfNeighbours => ModelSlot::Bpr,
            Self::ContentSimilar => ModelSlot::ClosestItems,
            Self::MostRead => ModelSlot::MostRead,
            Self::Fallback(slot) => slot,
        }
    }
}

/// Why a source proposed a candidate — the provenance the explanation
/// layer renders for the reader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reason {
    /// Readers with a similar borrowing history also read it.
    CfNeighbours,
    /// Its metadata is close to a book the user borrowed.
    SimilarToBorrowed {
        /// The borrowed book the recommendation is anchored to.
        anchor: u32,
    },
    /// It is among the library's most-read books.
    MostRead {
        /// Training-set read count.
        count: u64,
    },
    /// An exploration pick with no model-specific story (Random Items).
    Exploration,
}

/// One candidate book with full provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Dense book index.
    pub book: u32,
    /// The source that proposed it.
    pub source: SourceId,
    /// Why it proposed it.
    pub reason: Reason,
}

/// A pluggable candidate source: stage one of the serving pipeline.
///
/// Implementations must be deterministic — identical model state and
/// inputs emit identical candidate lists — and must never propose a
/// book the user has already borrowed (every wrapped recommender
/// excludes the seen set by contract).
pub trait CandidateSource: Send + Sync {
    /// The source's identity, stamped on every candidate it emits.
    fn id(&self) -> SourceId;

    /// Emits up to `pool_size` candidates per user, best first. `out`
    /// is resized to `users.len()`; each inner `Vec` is cleared and
    /// refilled in place. An empty inner list means the source has
    /// nothing to say for that user (it is *not* an error).
    fn emit_batch(&self, users: &[UserIdx], pool_size: usize, out: &mut Vec<Vec<Candidate>>);
}

/// Maps a recommender's ranked output into candidates. `reason` runs
/// once per user and returns that user's per-book reason, so per-user
/// provenance (a content anchor) is computed once, not once per book.
fn emit_ranked<R: FnMut(u32) -> Reason>(
    model: &dyn Recommender,
    id: SourceId,
    users: &[UserIdx],
    pool_size: usize,
    out: &mut Vec<Vec<Candidate>>,
    mut reason: impl FnMut(UserIdx) -> R,
) {
    let mut ranked: Vec<Vec<u32>> = Vec::new();
    model.recommend_batch_into(users, pool_size, &mut ranked);
    out.resize_with(users.len(), Vec::new);
    for ((&u, books), slot) in users.iter().zip(&ranked).zip(out.iter_mut()) {
        let mut reason = reason(u);
        slot.clear();
        slot.extend(books.iter().map(|&b| Candidate {
            book: b,
            source: id,
            reason: reason(b),
        }));
    }
}

/// CF-neighbours source: the BPR model's top books for the user,
/// proposed because similar readers borrowed them.
#[derive(Debug, Clone, Copy)]
pub struct CfNeighboursSource<'a> {
    bpr: &'a Bpr,
}

impl<'a> CfNeighboursSource<'a> {
    /// Wraps a fitted (or installed) BPR model.
    #[must_use]
    pub fn new(bpr: &'a Bpr) -> Self {
        Self { bpr }
    }
}

impl CandidateSource for CfNeighboursSource<'_> {
    fn id(&self) -> SourceId {
        SourceId::CfNeighbours
    }

    fn emit_batch(&self, users: &[UserIdx], pool_size: usize, out: &mut Vec<Vec<Candidate>>) {
        emit_ranked(self.bpr, self.id(), users, pool_size, out, |_| {
            |_| Reason::CfNeighbours
        });
    }
}

/// Content-similar source: Closest Items' top books, each anchored to
/// the borrowed book most representative of the user's taste.
#[derive(Debug, Clone, Copy)]
pub struct ContentSimilarSource<'a> {
    closest: &'a ClosestItems,
    train: &'a Interactions,
}

impl<'a> ContentSimilarSource<'a> {
    /// Wraps a fitted Closest Items model and the training matrix its
    /// seen sets come from.
    #[must_use]
    pub fn new(closest: &'a ClosestItems, train: &'a Interactions) -> Self {
        Self { closest, train }
    }
}

impl CandidateSource for ContentSimilarSource<'_> {
    fn id(&self) -> SourceId {
        SourceId::ContentSimilar
    }

    fn emit_batch(&self, users: &[UserIdx], pool_size: usize, out: &mut Vec<Vec<Candidate>>) {
        let store = self.closest.store();
        let mut centroid = Vec::new();
        emit_ranked(self.closest, self.id(), users, pool_size, out, |u| {
            let reason = similar_reason(anchor_into(store, self.train.seen(u), &mut centroid));
            move |_| reason
        });
    }
}

/// Exact-scan CF-neighbours source backed by a quantized artifact: the
/// same emission contract as [`CfNeighboursSource`], but every score is
/// a fused integer dot over the artifact's compact rows instead of an
/// f32 matvec over the full factor matrices. Installed by the engine
/// when the artifact's factor sections validate against the live BPR
/// model; any mismatch keeps the exact f32 source instead.
pub struct QuantCfNeighboursSource<'a> {
    rec: QuantRecommender<'a>,
}

impl<'a> QuantCfNeighboursSource<'a> {
    /// Wraps a validated quantized artifact and the training matrix its
    /// factor sections were quantized from.
    ///
    /// # Panics
    ///
    /// Panics if the artifact lacks factor sections or their shapes
    /// disagree with `train` (the engine validates before wiring).
    #[must_use]
    pub fn new(artifact: &'a QuantArtifact, train: &'a Interactions) -> Self {
        Self {
            rec: QuantRecommender::new(artifact, train),
        }
    }
}

impl CandidateSource for QuantCfNeighboursSource<'_> {
    fn id(&self) -> SourceId {
        SourceId::CfNeighbours
    }

    fn emit_batch(&self, users: &[UserIdx], pool_size: usize, out: &mut Vec<Vec<Candidate>>) {
        emit_ranked(&self.rec, self.id(), users, pool_size, out, |_| {
            |_| Reason::CfNeighbours
        });
    }
}

/// IVF-accelerated CF-neighbours source: sub-linear retrieval over the
/// BPR item factors through the MIPS index, re-scoring candidates with
/// the same `dot` kernel the exact scan uses. At `nprobe` = the index's
/// list count the emission is bit-identical to [`CfNeighboursSource`];
/// at serving `nprobe` it trades a bounded recall loss for an
/// `O(nprobe · list)` scan instead of `O(catalogue)`.
///
/// With [`AnnCfNeighboursSource::with_quant`] the probe re-score reads
/// the quantized item rows instead of the f32 factor matrix, so the hot
/// per-candidate loop touches 4-8× fewer bytes.
#[derive(Debug, Clone, Copy)]
pub struct AnnCfNeighboursSource<'a> {
    bpr: &'a Bpr,
    train: &'a Interactions,
    index: &'a IvfIndex,
    nprobe: usize,
    quant: Option<(QuantMatrix<'a>, QuantMatrix<'a>)>,
}

impl<'a> AnnCfNeighboursSource<'a> {
    /// Wraps an installed BPR model, the training matrix (seen-set
    /// exclusion), and the MIPS IVF index built over the model's item
    /// factors.
    #[must_use]
    pub fn new(bpr: &'a Bpr, train: &'a Interactions, index: &'a IvfIndex, nprobe: usize) -> Self {
        Self {
            bpr,
            train,
            index,
            nprobe,
            quant: None,
        }
    }

    /// Re-scores IVF probes against validated quantized factor rows
    /// (`user`, `item` sections) instead of the f32 matrices.
    #[must_use]
    pub fn with_quant(mut self, user: QuantMatrix<'a>, item: QuantMatrix<'a>) -> Self {
        self.quant = Some((user, item));
        self
    }
}

impl CandidateSource for AnnCfNeighboursSource<'_> {
    fn id(&self) -> SourceId {
        SourceId::CfNeighbours
    }

    fn emit_batch(&self, users: &[UserIdx], pool_size: usize, out: &mut Vec<Vec<Candidate>>) {
        out.resize_with(users.len(), Vec::new);
        let Some(model) = self.bpr.model() else {
            for slot in out.iter_mut() {
                slot.clear();
            }
            return;
        };
        let mut scratch = IvfScratch::new();
        let mut ids: Vec<u32> = Vec::new();
        for (&u, slot) in users.iter().zip(out.iter_mut()) {
            slot.clear();
            let query = model.user_factors.row(u.index());
            match self.quant {
                Some((qu, qi)) => {
                    let urow = qu.row(u.index());
                    self.index.search_into(
                        query,
                        pool_size,
                        self.nprobe,
                        self.train.seen(u),
                        |i| qi.row(i as usize).dot(&urow),
                        &mut scratch,
                        &mut ids,
                    );
                }
                None => {
                    self.index.search_into(
                        query,
                        pool_size,
                        self.nprobe,
                        self.train.seen(u),
                        |i| vecops::dot(query, model.item_factors.row(i as usize)),
                        &mut scratch,
                        &mut ids,
                    );
                }
            }
            slot.extend(ids.iter().map(|&b| Candidate {
                book: b,
                source: SourceId::CfNeighbours,
                reason: Reason::CfNeighbours,
            }));
        }
    }
}

/// IVF-accelerated content-similar source: the user's Eq. 1 centroid
/// query retrieves through the cosine IVF index instead of the full
/// catalogue matvec, re-scored with the same `dot` kernel. Emission
/// semantics (empty history → nothing, anchored provenance) match
/// [`ContentSimilarSource`]; at `nprobe` = the index's list count the
/// two are bit-identical.
///
/// With [`AnnContentSimilarSource::with_quant`] the probe re-score
/// quantizes the centroid query once per user and dots it against the
/// artifact's compact embedding rows instead of the f32 store.
#[derive(Debug, Clone, Copy)]
pub struct AnnContentSimilarSource<'a> {
    closest: &'a ClosestItems,
    train: &'a Interactions,
    index: &'a IvfIndex,
    nprobe: usize,
    quant: Option<QuantMatrix<'a>>,
}

impl<'a> AnnContentSimilarSource<'a> {
    /// Wraps a fitted Closest Items model, the training matrix, and the
    /// cosine IVF index built over the model's embedding store.
    #[must_use]
    pub fn new(
        closest: &'a ClosestItems,
        train: &'a Interactions,
        index: &'a IvfIndex,
        nprobe: usize,
    ) -> Self {
        Self {
            closest,
            train,
            index,
            nprobe,
            quant: None,
        }
    }

    /// Re-scores IVF probes against a validated quantized embeddings
    /// section instead of the f32 store.
    #[must_use]
    pub fn with_quant(mut self, embeddings: QuantMatrix<'a>) -> Self {
        self.quant = Some(embeddings);
        self
    }
}

impl CandidateSource for AnnContentSimilarSource<'_> {
    fn id(&self) -> SourceId {
        SourceId::ContentSimilar
    }

    fn emit_batch(&self, users: &[UserIdx], pool_size: usize, out: &mut Vec<Vec<Candidate>>) {
        let store = self.closest.store();
        let mut query: Vec<f32> = Vec::with_capacity(store.dim());
        let mut scratch = IvfScratch::new();
        let mut ids: Vec<u32> = Vec::new();
        out.resize_with(users.len(), Vec::new);
        for (&u, slot) in users.iter().zip(out.iter_mut()) {
            slot.clear();
            let seen = self.train.seen(u);
            if seen.is_empty() {
                continue;
            }
            store.mean_embedding_into(seen, &mut query);
            match self.quant {
                Some(qe) => {
                    let qq = QuantQuery::quantize(qe.mode(), &query);
                    self.index.search_into(
                        &query,
                        pool_size,
                        self.nprobe,
                        seen,
                        |i| qe.row(i as usize).dot(&qq.as_row()),
                        &mut scratch,
                        &mut ids,
                    );
                }
                None => {
                    self.index.search_into(
                        &query,
                        pool_size,
                        self.nprobe,
                        seen,
                        |i| vecops::dot(&query, store.embedding(i as usize)),
                        &mut scratch,
                        &mut ids,
                    );
                }
            }
            // The search is done with the user's mean; normalised in
            // place it is `store.centroid(seen)`, which picks the anchor.
            let reason = similar_reason(nearest_seen(store, seen, &mut query));
            slot.extend(ids.iter().map(|&b| Candidate {
                book: b,
                source: SourceId::ContentSimilar,
                reason,
            }));
        }
    }
}

/// The borrowed book most representative of the user's taste: the seen
/// book whose embedding is most similar to the (normalised) centroid of
/// everything they borrowed. Ties break toward the lower book index;
/// `None` for an empty history.
#[must_use]
pub fn anchor_book(closest: &ClosestItems, seen: &[u32]) -> Option<u32> {
    anchor_into(closest.store(), seen, &mut Vec::new())
}

/// [`anchor_book`] with a caller-owned centroid buffer, so a chunk of
/// users shares one allocation.
fn anchor_into(store: &EmbeddingStore, seen: &[u32], centroid: &mut Vec<f32>) -> Option<u32> {
    if seen.is_empty() {
        return None;
    }
    store.mean_embedding_into(seen, centroid);
    nearest_seen(store, seen, centroid)
}

/// Normalises `mean` — the mean embedding of `seen` — in place, which
/// makes it exactly [`EmbeddingStore::centroid`] of `seen`, and returns
/// the seen book most similar to it (the first on ties).
fn nearest_seen(store: &EmbeddingStore, seen: &[u32], mean: &mut [f32]) -> Option<u32> {
    vecops::normalize(mean);
    let mut best: Option<(u32, f32)> = None;
    for &b in seen {
        let sim = vecops::dot(mean, store.embedding(b as usize));
        let better = match best {
            None => true,
            Some((_, best_sim)) => sim > best_sim,
        };
        if better {
            best = Some((b, sim));
        }
    }
    best.map(|(b, _)| b)
}

/// The content-similar provenance for a user's anchor, or exploration
/// for an empty history.
fn similar_reason(anchor: Option<u32>) -> Reason {
    anchor.map_or(Reason::Exploration, |anchor| Reason::SimilarToBorrowed {
        anchor,
    })
}

/// Most-read source: the globally most-borrowed books the user has not
/// read, with their read counts as provenance.
#[derive(Debug, Clone, Copy)]
pub struct MostReadSource<'a> {
    most_read: &'a MostReadItems,
}

impl<'a> MostReadSource<'a> {
    /// Wraps a fitted Most Read Items baseline.
    #[must_use]
    pub fn new(most_read: &'a MostReadItems) -> Self {
        Self { most_read }
    }
}

impl CandidateSource for MostReadSource<'_> {
    fn id(&self) -> SourceId {
        SourceId::MostRead
    }

    fn emit_batch(&self, users: &[UserIdx], pool_size: usize, out: &mut Vec<Vec<Candidate>>) {
        emit_ranked(self.most_read, self.id(), users, pool_size, out, |_| {
            |b| Reason::MostRead {
                count: self.most_read.count(BookIdx(b)),
            }
        });
    }
}

/// Per-book primary genre lookup, built once from a corpus and shared
/// by the genre-aware filters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BookGenres {
    primary: Vec<Option<u8>>,
}

impl BookGenres {
    /// Wraps per-book primary genre ids (`None` = no surviving genre).
    #[must_use]
    pub fn new(primary: Vec<Option<u8>>) -> Self {
        Self { primary }
    }

    /// Derives each book's primary genre — its highest-probability
    /// aggregated genre, ties toward the lower genre id — from the
    /// corpus genre profiles.
    #[must_use]
    pub fn from_corpus(corpus: &Corpus) -> Self {
        let primary = corpus
            .books
            .iter()
            .map(|book| {
                book.genres
                    .iter()
                    .max_by(|(ga, pa), (gb, pb)| pa.total_cmp(pb).then(gb.0.cmp(&ga.0)))
                    .map(|&(g, _)| g.0)
            })
            .collect();
        Self { primary }
    }

    /// Number of books covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.primary.len()
    }

    /// True when no books are covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.primary.is_empty()
    }

    /// The primary genre of `book`, if it has one.
    #[must_use]
    pub fn primary(&self, book: u32) -> Option<u8> {
        self.primary.get(book as usize).copied().flatten()
    }
}

/// Wraps any [`Recommender`] as a provenance-neutral source — the
/// terminal Random Items slot, or a test double. Candidates carry
/// [`Reason::Exploration`]: a plain fallback has no model-specific
/// story to tell.
pub struct FallbackSource<'a> {
    slot: ModelSlot,
    model: &'a (dyn Recommender + Sync),
}

impl<'a> FallbackSource<'a> {
    /// Wraps `model` as the source for `slot`.
    #[must_use]
    pub fn new(slot: ModelSlot, model: &'a (dyn Recommender + Sync)) -> Self {
        Self { slot, model }
    }
}

impl CandidateSource for FallbackSource<'_> {
    fn id(&self) -> SourceId {
        SourceId::Fallback(self.slot)
    }

    fn emit_batch(&self, users: &[UserIdx], pool_size: usize, out: &mut Vec<Vec<Candidate>>) {
        emit_ranked(self.model, self.id(), users, pool_size, out, |_| {
            |_| Reason::Exploration
        });
    }
}
