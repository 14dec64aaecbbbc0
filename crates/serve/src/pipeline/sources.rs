//! Candidate sources: the fan-out stage of the serving pipeline.
//!
//! A [`CandidateSource`] wraps one retrieval signal — collaborative
//! filtering, content similarity, global popularity — and emits a few
//! hundred [`Candidate`]s per user, each carrying its provenance: which
//! source proposed it ([`SourceId`]) and why ([`Reason`]). Provenance is
//! what the explanation layer ([`crate::pipeline::explain`]) surfaces as
//! "because you borrowed X", and what the merge stage keeps when two
//! sources propose the same book (first source wins — see
//! [`crate::pipeline::merge`]).
//!
//! Each signal has one source type. [`CfNeighboursSource`] and
//! [`ContentSimilarSource`] start as their model's exact f32 scan; the
//! builder steps `ivf(index, nprobe)` and `with_quant(…)` move retrieval
//! to an IVF index and scoring to quantized rows, and the type's one
//! `emit_batch` picks the path. The engine holds each slot's source as
//! one `SlotSource` value, which emits, says whether it retrieves
//! exhaustively, and ranks a pool by the score it retrieves by. The
//! fallback chain's terminal slots are served by the plain exact scans,
//! asked for `k` candidates.
//!
//! Sources are ranked *suggestions*, not answers: the pipeline merges,
//! filters, and re-scores the pooled candidates, so a source only has
//! to be good at recall. Every source emits in a deterministic order
//! for a fixed model + training matrix.

use crate::engine::ModelSlot;
use crate::pipeline::rank_pool_into;
use rm_core::bpr::Bpr;
use rm_core::closest::ClosestItems;
use rm_core::most_read::MostReadItems;
use rm_core::quant::{QuantMatrix, QuantQuery, QuantRecommender};
use rm_core::random::RandomItems;
use rm_core::Recommender;
use rm_dataset::corpus::Corpus;
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;
use rm_embed::ivf::{IvfIndex, IvfScratch};
use rm_embed::store::EmbeddingStore;
use rm_sparse::vecops;
use rm_util::TopK;

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
///
/// By default the model's exact f32 scan. [`CfNeighboursSource::ivf`]
/// retrieves through a MIPS IVF index instead (`O(nprobe · list)`, not
/// `O(catalogue)`; bit-identical to the exhaustive scan at `nprobe` =
/// the list count), and [`CfNeighboursSource::with_quant`] scores from
/// quantized factor rows: exhaustively that is [`QuantRecommender`]'s
/// scan, under IVF the probe re-score. Seen books come from the model's
/// own training matrix ([`Bpr::train`]).
#[derive(Debug, Clone, Copy)]
pub struct CfNeighboursSource<'a> {
    bpr: &'a Bpr,
    ivf: Option<(&'a IvfIndex, usize)>,
    quant: Option<(QuantMatrix<'a>, QuantMatrix<'a>)>,
}

impl<'a> CfNeighboursSource<'a> {
    /// Wraps a fitted (or installed) BPR model.
    #[must_use]
    pub fn new(bpr: &'a Bpr) -> Self {
        Self {
            bpr,
            ivf: None,
            quant: None,
        }
    }

    /// Retrieves through `index`, the MIPS IVF index built over the
    /// model's item factors, probing `nprobe` posting lists per user.
    #[must_use]
    pub fn ivf(mut self, index: &'a IvfIndex, nprobe: usize) -> Self {
        self.ivf = Some((index, nprobe));
        self
    }

    /// Scores from validated quantized factor rows (`user`, `item`
    /// sections) instead of the f32 matrices.
    #[must_use]
    pub fn with_quant(mut self, user: QuantMatrix<'a>, item: QuantMatrix<'a>) -> Self {
        self.quant = Some((user, item));
        self
    }

    /// The score the source retrieves `user`'s books by, which also
    /// ranks them: the quantized row dot under
    /// [`CfNeighboursSource::with_quant`], otherwise BPR's f32 score (0
    /// from an unfitted model).
    fn scorer(&self, user: UserIdx) -> impl Fn(u32) -> f32 + 'a {
        let quant = self.quant.map(|(qu, qi)| (qu.row(user.index()), qi));
        let exact = self
            .bpr
            .model()
            .map(|m| (m.user_factors.row(user.index()), &m.item_factors));
        move |b| match (&quant, exact) {
            (Some((urow, qi)), _) => qi.row(b as usize).dot(urow),
            (None, Some((urow, items))) => vecops::dot(urow, items.row(b as usize)),
            (None, None) => 0.0,
        }
    }
}

impl CandidateSource for CfNeighboursSource<'_> {
    fn emit_batch(&self, users: &[UserIdx], pool_size: usize, out: &mut Vec<Vec<Candidate>>) {
        let id = SourceId::CfNeighbours;
        let reason = |_| |_| Reason::CfNeighbours;
        let fitted = self.bpr.model().zip(self.bpr.train());
        let (Some((index, nprobe)), Some((model, train))) = (self.ivf, fitted) else {
            // The exhaustive scan; an unfitted model answers empty.
            match (self.quant, fitted) {
                (Some((qu, qi)), Some((_, train))) => {
                    let rec = QuantRecommender::from_rows(qu, qi, train);
                    emit_ranked(&rec, id, users, pool_size, out, reason);
                }
                _ => emit_ranked(self.bpr, id, users, pool_size, out, reason),
            }
            return;
        };
        let mut scratch = IvfScratch::new();
        let mut ids: Vec<u32> = Vec::new();
        out.resize_with(users.len(), Vec::new);
        for (&u, slot) in users.iter().zip(out.iter_mut()) {
            slot.clear();
            index.search_into(
                model.user_factors.row(u.index()),
                pool_size,
                nprobe,
                train.seen(u),
                self.scorer(u),
                &mut scratch,
                &mut ids,
            );
            slot.extend(ids.iter().map(|&b| Candidate {
                book: b,
                source: SourceId::CfNeighbours,
                reason: Reason::CfNeighbours,
            }));
        }
    }
}

/// Content-similar source: Closest Items' top books, each anchored to
/// the borrowed book most representative of the user's taste.
///
/// By default Closest Items' exact f32 scan. [`ContentSimilarSource::ivf`]
/// retrieves the user's Eq. 1 centroid query through a cosine IVF index
/// instead (bit-identical at `nprobe` = the list count), and
/// [`ContentSimilarSource::with_quant`] re-scores its probes against
/// quantized embedding rows. Either way an empty history emits nothing.
#[derive(Debug, Clone, Copy)]
pub struct ContentSimilarSource<'a> {
    closest: &'a ClosestItems,
    train: &'a Interactions,
    ivf: Option<(&'a IvfIndex, usize)>,
    quant: Option<QuantMatrix<'a>>,
}

impl<'a> ContentSimilarSource<'a> {
    /// Wraps a fitted Closest Items model and the training matrix its
    /// seen sets come from.
    #[must_use]
    pub fn new(closest: &'a ClosestItems, train: &'a Interactions) -> Self {
        Self {
            closest,
            train,
            ivf: None,
            quant: None,
        }
    }

    /// Retrieves through `index`, the cosine IVF index built over the
    /// model's embedding store, probing `nprobe` posting lists per user.
    #[must_use]
    pub fn ivf(mut self, index: &'a IvfIndex, nprobe: usize) -> Self {
        self.ivf = Some((index, nprobe));
        self
    }

    /// Re-scores IVF probes against a validated quantized embeddings
    /// section, quantizing the centroid query once per user. The
    /// exhaustive scan stays Closest Items' own f32 ranking.
    #[must_use]
    pub fn with_quant(mut self, embeddings: QuantMatrix<'a>) -> Self {
        self.quant = Some(embeddings);
        self
    }
}

impl CandidateSource for ContentSimilarSource<'_> {
    fn emit_batch(&self, users: &[UserIdx], pool_size: usize, out: &mut Vec<Vec<Candidate>>) {
        let store = self.closest.store();
        let Some((index, nprobe)) = self.ivf else {
            let mut centroid = Vec::new();
            let id = SourceId::ContentSimilar;
            emit_ranked(self.closest, id, users, pool_size, out, |u| {
                let reason = similar_reason(anchor_into(store, self.train.seen(u), &mut centroid));
                move |_| reason
            });
            return;
        };
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
            let quant = self
                .quant
                .map(|qe| (QuantQuery::quantize(qe.mode(), &query), qe));
            let score = |i: u32| match &quant {
                Some((qq, qe)) => qe.row(i as usize).dot(&qq.as_row()),
                None => vecops::dot(&query, store.embedding(i as usize)),
            };
            index.search_into(
                &query,
                pool_size,
                nprobe,
                seen,
                score,
                &mut scratch,
                &mut ids,
            );
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

/// [`CfNeighboursSource`] with [`CfNeighboursSource::ivf`], under the
/// name the benchmark's stage replay (`perfbench/src/replay.rs`) builds.
/// A forwarding shim: it goes once the replay calls `ivf(…)` itself
/// (ROADMAP item 4).
#[derive(Debug, Clone, Copy)]
pub struct AnnCfNeighboursSource<'a>(CfNeighboursSource<'a>);

impl<'a> AnnCfNeighboursSource<'a> {
    /// `CfNeighboursSource::new(bpr).ivf(index, nprobe)`. `train` is
    /// redundant and ignored: seen books come from the model's own
    /// training matrix ([`Bpr::train`]), installed from the same matrix.
    #[must_use]
    pub fn new(bpr: &'a Bpr, _train: &'a Interactions, index: &'a IvfIndex, nprobe: usize) -> Self {
        Self(CfNeighboursSource::new(bpr).ivf(index, nprobe))
    }

    /// [`CfNeighboursSource::with_quant`].
    #[must_use]
    pub fn with_quant(self, user: QuantMatrix<'a>, item: QuantMatrix<'a>) -> Self {
        Self(self.0.with_quant(user, item))
    }
}

impl CandidateSource for AnnCfNeighboursSource<'_> {
    fn emit_batch(&self, users: &[UserIdx], pool_size: usize, out: &mut Vec<Vec<Candidate>>) {
        self.0.emit_batch(users, pool_size, out);
    }
}

/// [`ContentSimilarSource`] with [`ContentSimilarSource::ivf`], under
/// the name the benchmark's stage replay (`perfbench/src/replay.rs`)
/// builds. A forwarding shim: it goes once the replay calls `ivf(…)`
/// itself (ROADMAP item 4).
#[derive(Debug, Clone, Copy)]
pub struct AnnContentSimilarSource<'a>(ContentSimilarSource<'a>);

impl<'a> AnnContentSimilarSource<'a> {
    /// `ContentSimilarSource::new(closest, train).ivf(index, nprobe)`.
    #[must_use]
    pub fn new(
        closest: &'a ClosestItems,
        train: &'a Interactions,
        index: &'a IvfIndex,
        nprobe: usize,
    ) -> Self {
        Self(ContentSimilarSource::new(closest, train).ivf(index, nprobe))
    }

    /// [`ContentSimilarSource::with_quant`].
    #[must_use]
    pub fn with_quant(self, embeddings: QuantMatrix<'a>) -> Self {
        Self(self.0.with_quant(embeddings))
    }
}

impl CandidateSource for AnnContentSimilarSource<'_> {
    fn emit_batch(&self, users: &[UserIdx], pool_size: usize, out: &mut Vec<Vec<Candidate>>) {
        self.0.emit_batch(users, pool_size, out);
    }
}

/// The borrowed book most representative of the user's taste: the seen
/// book whose embedding is most similar to the (normalised) centroid of
/// everything they borrowed. Ties break toward the lower book index;
/// `None` for an empty history. `centroid` is a caller-owned buffer, so
/// a chunk of users shares one allocation.
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
    fn emit_batch(&self, users: &[UserIdx], pool_size: usize, out: &mut Vec<Vec<Candidate>>) {
        let id = SourceId::MostRead;
        emit_ranked(self.most_read, id, users, pool_size, out, |_| {
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

/// One serving slot's source as the engine installs it: the value that
/// emits the slot's candidates, says whether it retrieves exhaustively,
/// and ranks a pool by the score it retrieves by, so the three cannot
/// disagree. Dispatch is a match, not a boxed trait object.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SlotSource<'a> {
    /// BPR's CF-neighbours source.
    Cf(CfNeighboursSource<'a>),
    /// Closest Items' content-similar source.
    Content(ContentSimilarSource<'a>),
    /// The Most Read Items source.
    MostRead(MostReadSource<'a>),
    /// Random Items, the terminal slot: its candidates carry
    /// [`Reason::Exploration`], since a random pick has no model-specific
    /// story to tell.
    Random(&'a RandomItems),
}

impl SlotSource<'_> {
    /// [`CandidateSource::emit_batch`] of the slot's source.
    pub(crate) fn emit_batch(&self, users: &[UserIdx], n: usize, out: &mut Vec<Vec<Candidate>>) {
        match self {
            Self::Cf(source) => source.emit_batch(users, n, out),
            Self::Content(source) => source.emit_batch(users, n, out),
            Self::MostRead(source) => source.emit_batch(users, n, out),
            Self::Random(random) => {
                let id = SourceId::Fallback(ModelSlot::Random);
                emit_ranked(*random, id, users, n, out, |_| |_| Reason::Exploration);
            }
        }
    }

    /// Whether the source emits its exact top `n` under the scores
    /// [`SlotSource::rank_into`] ranks by, ties toward the lower index:
    /// the CF and content sources without an IVF index (the quantized CF
    /// scan uses its scorer's row dot), and Most Read, whose f32 scores
    /// order exactly as its read counts below 2^24. An IVF probe can miss
    /// books a later source finds, and Random's shuffle is not the order
    /// of its hash scores.
    pub(crate) fn exhaustive(&self) -> bool {
        match self {
            Self::Cf(source) => source.ivf.is_none(),
            Self::Content(source) => source.ivf.is_none(),
            Self::MostRead(_) => true,
            Self::Random(_) => false,
        }
    }

    /// Ranks `user`'s `pool` into its top `k` (see [`rank_pool_into`])
    /// by the slot's score: the CF source's scorer, Closest Items' Eq. 1
    /// query (built once into `query`) dotted as
    /// [`ClosestItems`]'s `score` does, or the model's own `score`.
    pub(crate) fn rank_into(
        &self,
        user: UserIdx,
        pool: &[Candidate],
        k: usize,
        query: &mut Vec<f32>,
        top: &mut TopK,
        out: &mut Vec<u32>,
    ) {
        match self {
            Self::Cf(source) => rank_pool_into(pool, k, source.scorer(user), top, out),
            Self::Content(source) => {
                let known = source.closest.query_into(user, query);
                let query = query.as_slice();
                let store = source.closest.store();
                let score = |b: u32| {
                    if known {
                        vecops::dot(query, store.embedding(b as usize))
                    } else {
                        0.0
                    }
                };
                rank_pool_into(pool, k, score, top, out);
            }
            Self::MostRead(source) => {
                let score = |b| source.most_read.score(user, BookIdx(b));
                rank_pool_into(pool, k, score, top, out);
            }
            Self::Random(random) => {
                rank_pool_into(pool, k, |b| random.score(user, BookIdx(b)), top, out);
            }
        }
    }
}
