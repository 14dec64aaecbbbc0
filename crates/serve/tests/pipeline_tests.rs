//! Candidate-pipeline integration tests: equivalence with the legacy
//! chain, provenance-backed explanations, filter behaviour, and (with
//! `--features testing`) availability under a panicking source.

use rm_core::Recommender;
use rm_dataset::ids::UserIdx;
use rm_serve::engine::{EngineConfig, ModelSlot, ServingEngine};
use rm_serve::pipeline::{
    AlreadyBorrowedFilter, BookGenres, Candidate, CandidateFilter, DiversityCapFilter, FilterCtx,
    Reason, SourceId,
};
use rm_serve::registry::ArtifactRegistry;
use std::sync::{Arc, Mutex};

mod common;
use common::{train_fixture, unique_dir, Fixture};

/// The default-config pipeline (single CF source derived from the chain
/// head, no filters) must reproduce the direct BPR ranking bit for bit —
/// the artifact codec round-trips factors exactly, and the rank stage
/// re-scores the emitted pool with the same model and tie-breaks.
#[test]
fn default_pipeline_matches_direct_bpr_bit_for_bit() {
    let fx = train_fixture("equivalence");
    let engine = ServingEngine::load(&fx.registry, &fx.train, EngineConfig::default())
        .expect("engine loads");
    assert!(engine.degraded().is_empty());
    for k in [1usize, 5, 10] {
        for u in 0..fx.train.n_users() as u32 {
            let user = UserIdx(u);
            assert_eq!(
                engine.recommend(user, k),
                fx.bpr.recommend(user, k),
                "user {u} k {k}"
            );
        }
    }
    fx.cleanup();
}

/// Every recommendation carries one aligned provenance-backed
/// explanation; the default source is the CF model.
#[test]
fn every_recommendation_carries_an_explanation() {
    let fx = train_fixture("explained");
    let engine = ServingEngine::load(&fx.registry, &fx.train, EngineConfig::default())
        .expect("engine loads");
    let mut explained_users = 0;
    for u in 0..fx.train.n_users() as u32 {
        let (top, explanations) = engine.recommend_explained(UserIdx(u), 5);
        assert_eq!(top.len(), explanations.len(), "user {u}");
        for (b, ex) in top.iter().zip(&explanations) {
            assert_eq!(ex.book, *b, "user {u}: explanation aligned with answer");
            assert_eq!(ex.source, SourceId::CfNeighbours, "user {u}");
            assert_eq!(ex.reason, Reason::CfNeighbours, "user {u}");
            assert!(!ex.reason.render(&|b| format!("book-{b}")).is_empty());
        }
        explained_users += usize::from(!top.is_empty());
    }
    assert!(explained_users > 0, "someone got recommendations");
    fx.cleanup();
}

/// With an explicit multi-source configuration the merge dedups by book
/// and the *first* source's provenance wins: a pool-sized Most Read
/// emission covers every unseen book, so every explanation is Most Read.
#[test]
fn merge_keeps_first_source_provenance() {
    let fx = train_fixture("first-wins");
    let config = EngineConfig::builder()
        .pipeline_sources(vec![ModelSlot::MostRead, ModelSlot::Bpr])
        .build()
        .expect("valid config");
    let engine = ServingEngine::load(&fx.registry, &fx.train, config).expect("engine loads");
    let user = (0..fx.train.n_users() as u32)
        .map(UserIdx)
        .find(|&u| !fx.train.seen(u).is_empty())
        .expect("user with history");
    let (top, explanations) = engine.recommend_explained(user, 8);
    assert!(!top.is_empty());
    for ex in &explanations {
        assert_eq!(ex.source, SourceId::MostRead, "first source wins the merge");
        assert!(
            matches!(ex.reason, Reason::MostRead { .. }),
            "{:?}",
            ex.reason
        );
    }
    // No duplicate books survive the merge.
    let mut books: Vec<u32> = top.clone();
    books.sort_unstable();
    books.dedup();
    assert_eq!(books.len(), top.len(), "merge dedups by book");
    fx.cleanup();
}

/// The already-borrowed filter is a no-op on source emissions (sources
/// never propose seen books) — answers must not change.
#[test]
fn already_borrowed_filter_never_changes_answers() {
    let fx = train_fixture("borrowed-noop");
    let plain = ServingEngine::load(&fx.registry, &fx.train, EngineConfig::default())
        .expect("engine loads");
    let filtered_config = EngineConfig::builder()
        .filter(Arc::new(AlreadyBorrowedFilter))
        .build()
        .expect("valid config");
    let filtered =
        ServingEngine::load(&fx.registry, &fx.train, filtered_config).expect("engine loads");
    for u in 0..fx.train.n_users() as u32 {
        assert_eq!(
            plain.recommend(UserIdx(u), 6),
            filtered.recommend(UserIdx(u), 6),
            "user {u}"
        );
    }
    fx.cleanup();
}

/// The diversity cap bounds how many books share one genre.
#[test]
fn genre_filters_shape_the_pool() {
    let fx = train_fixture("genres");
    let genres = Arc::new(BookGenres::from_corpus(&fx.corpus));
    let cap_config = EngineConfig::builder()
        .pipeline_sources(vec![ModelSlot::MostRead])
        .book_genres(Arc::clone(&genres))
        .filter(Arc::new(DiversityCapFilter::new(1)))
        .build()
        .expect("valid config");
    let capped = ServingEngine::load(&fx.registry, &fx.train, cap_config).expect("engine loads");
    for u in 0..fx.train.n_users() as u32 {
        let (top, _) = capped.recommend_explained(UserIdx(u), 6);
        let mut per_genre = std::collections::BTreeMap::new();
        for &b in &top {
            *per_genre.entry(genres.primary(b)).or_insert(0usize) += 1;
        }
        for (g, n) in per_genre {
            assert!(n <= 1, "user {u}: genre {g:?} appears {n} times");
        }
    }
    fx.cleanup();
}

/// The hybrid never loses to its exact primary. In the benchmark's
/// serving shape (BPR, Closest Items and Most Read as sources; the
/// already-borrowed filter and a diversity cap of k per genre; exact f32
/// scans) the pool arrives best-first, so the cap keeps BPR's own top-k
/// and every user gets exactly BPR's answer.
#[test]
fn hybrid_answers_equal_its_exact_primary() {
    let fx = train_fixture("hybrid");
    let genres = Arc::new(BookGenres::from_corpus(&fx.corpus));
    for k in [5usize, 10] {
        for pool_size in [16usize, 256] {
            let config = EngineConfig::builder()
                .pipeline_sources(vec![
                    ModelSlot::Bpr,
                    ModelSlot::ClosestItems,
                    ModelSlot::MostRead,
                ])
                .filter(Arc::new(AlreadyBorrowedFilter))
                .filter(Arc::new(DiversityCapFilter::new(k)))
                .book_genres(Arc::clone(&genres))
                .pool_size(pool_size)
                .build()
                .expect("valid config");
            let engine =
                ServingEngine::load(&fx.registry, &fx.train, config).expect("engine loads");
            for u in 0..fx.train.n_users() as u32 {
                let user = UserIdx(u);
                assert_eq!(
                    engine.recommend(user, k),
                    fx.bpr.recommend(user, k),
                    "user {u} k {k} pool {pool_size}"
                );
            }
        }
    }
    fx.cleanup();
}

/// Trains the Tiny fixture and publishes it twice: once bare, once
/// with the IVF ANN artifact built the way `train --out` builds it.
fn ann_registries(tag: &str) -> (Fixture, ArtifactRegistry) {
    let fx = train_fixture(tag);
    let with_ann = ArtifactRegistry::new(unique_dir(&format!("{tag}-ann")));
    fx.save(&with_ann, Some(&fx.ann()), None);
    (fx, with_ann)
}

/// Records the length of every pool it sees, per user; keeps them all.
#[derive(Debug, Default)]
struct PoolLengths(Mutex<Vec<(UserIdx, usize)>>);

impl CandidateFilter for PoolLengths {
    fn retain(&self, ctx: &FilterCtx<'_>, pool: &mut Vec<Candidate>) {
        let mut seen = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        seen.push((ctx.user, pool.len()));
    }
}

impl PoolLengths {
    /// The lengths recorded for `user`, in the order its pools came.
    fn of(&self, user: UserIdx) -> Vec<usize> {
        let seen = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        seen.iter()
            .filter(|(u, _)| *u == user)
            .map(|&(_, n)| n)
            .collect()
    }
}

/// Drops each pool's first candidate, which thins every full top k.
#[derive(Debug)]
struct DropFirst;

impl CandidateFilter for DropFirst {
    fn retain(&self, _: &FilterCtx<'_>, pool: &mut Vec<Candidate>) {
        if !pool.is_empty() {
            pool.remove(0);
        }
    }
}

/// An exhaustive primary is asked for its top k, not its pool: the
/// filters see at most k candidates per user. A user whose filters thin
/// that below k asks again, and the filters then see the whole pool. An
/// IVF primary, which can miss books a later source finds, is still
/// asked for its pool.
#[test]
fn an_exhaustive_primary_is_asked_for_its_top_k_first() {
    let (fx, with_ann) = ann_registries("first-ask");
    let (k, pool_size) = (5, 256);
    let serve = |registry: &ArtifactRegistry, drop_first: bool| {
        let lengths = Arc::new(PoolLengths::default());
        let mut builder = EngineConfig::builder()
            .pool_size(pool_size)
            .filter(Arc::clone(&lengths) as Arc<dyn CandidateFilter>);
        if drop_first {
            builder = builder.filter(Arc::new(DropFirst));
        }
        let config = builder.build().expect("valid config");
        let engine = ServingEngine::load(registry, &fx.train, config).expect("engine loads");
        let users: Vec<UserIdx> = (0..fx.train.n_users() as u32).map(UserIdx).collect();
        (engine.recommend_batch(&users, k), lengths)
    };

    // The default config: BPR on exact f32 rows.
    let (answers, lengths) = serve(&fx.registry, false);
    for (u, answer) in answers.iter().enumerate() {
        let user = UserIdx(u as u32);
        assert_eq!(*answer, fx.bpr.recommend(user, k), "user {u}");
        assert_eq!(lengths.of(user), [k], "user {u}");
    }

    // Every top k is thinned: the filters see k, then the whole pool
    // (every unseen book: the Tiny catalogue holds fewer than 256).
    let (answers, lengths) = serve(&fx.registry, true);
    for (u, answer) in answers.iter().enumerate() {
        let user = UserIdx(u as u32);
        let whole = fx.bpr.recommend(user, pool_size);
        assert_eq!(lengths.of(user), [k, whole.len()], "user {u}");
        assert_eq!(answer[..], whole[1..=k], "user {u}");
    }

    // An IVF primary: each user's one pool holds more than k.
    let (_, lengths) = serve(&with_ann, false);
    for u in 0..fx.train.n_users() as u32 {
        let pools = lengths.of(UserIdx(u));
        assert!(matches!(pools[..], [n] if n > k), "user {u}: {pools:?}");
    }
    fx.cleanup();
    let _ = std::fs::remove_dir_all(with_ann.dir());
}

/// At `nprobe = usize::MAX` (clamped to every posting list) the
/// ANN-accelerated sources see the full catalogue as candidates and
/// re-score them with the exact kernels, so the whole pipeline — CF and
/// content-similar sources both — must be bit-identical to the
/// exact-scan engine, explanations included.
#[test]
fn ann_pipeline_at_full_nprobe_is_bit_identical_to_exact() {
    let (fx, with_ann) = ann_registries("ann-exact");
    let config = || {
        EngineConfig::builder()
            .pipeline_sources(vec![ModelSlot::Bpr, ModelSlot::ClosestItems])
            .ann_nprobe(usize::MAX)
            .build()
            .expect("valid config")
    };
    let exact = ServingEngine::load(&fx.registry, &fx.train, config()).expect("engine loads");
    let ann = ServingEngine::load(&with_ann, &fx.train, config()).expect("engine loads");
    assert!(!exact.ann_cf_active() && !exact.ann_content_active());
    assert!(ann.ann_cf_active() && ann.ann_content_active());
    assert!(ann.ann_notes().is_empty(), "{:?}", ann.ann_notes());
    assert!(ann.degraded().is_empty());
    for k in [1usize, 5, 10] {
        for u in 0..fx.train.n_users() as u32 {
            let user = UserIdx(u);
            let (top_e, ex_e) = exact.recommend_explained(user, k);
            let (top_a, ex_a) = ann.recommend_explained(user, k);
            assert_eq!(top_e, top_a, "user {u} k {k}");
            assert_eq!(ex_e, ex_a, "user {u} k {k}");
        }
    }
    fx.cleanup();
    let _ = std::fs::remove_dir_all(with_ann.dir());
}

/// At a small serving `nprobe` the answers may differ from the exact
/// scan, but the pipeline contract holds: never a seen book, never a
/// duplicate, and the engine still serves everyone it served before.
#[test]
fn ann_pipeline_at_small_nprobe_keeps_the_contract() {
    let (fx, with_ann) = ann_registries("ann-approx");
    let config = EngineConfig::builder()
        .pipeline_sources(vec![ModelSlot::Bpr, ModelSlot::ClosestItems])
        .ann_nprobe(1)
        .build()
        .expect("valid config");
    let engine = ServingEngine::load(&with_ann, &fx.train, config).expect("engine loads");
    let mut served = 0usize;
    for u in 0..fx.train.n_users() as u32 {
        let user = UserIdx(u);
        let top = engine.recommend(user, 6);
        let seen = fx.train.seen(user);
        for &b in &top {
            assert!(seen.binary_search(&b).is_err(), "user {u} reproposed {b}");
        }
        let mut dedup = top.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), top.len(), "user {u} duplicates");
        served += usize::from(!top.is_empty());
    }
    assert!(served > 0, "nprobe=1 still serves");
    fx.cleanup();
    let _ = std::fs::remove_dir_all(with_ann.dir());
}

/// An ANN artifact whose dimensions disagree with the installed models
/// is dropped (with a note) and the exact scans keep serving — ANN is
/// acceleration, never a new failure mode.
#[test]
fn mismatched_ann_artifact_is_dropped_with_note() {
    let fx = train_fixture("ann-mismatch");
    let ivf_config = rm_embed::IvfConfig {
        nlist: 4,
        iters: 2,
        seed: 3,
        train_sample: 0,
    };
    // Wrong catalogue size (content) and wrong factor width (cf).
    let bogus_store = rm_embed::EmbeddingStore::from_matrix(rm_sparse::DenseMatrix::gaussian(
        7,
        5,
        1.0,
        &mut rm_util::rng::rng_from_seed(1),
    ));
    let bogus_factors =
        rm_sparse::DenseMatrix::gaussian(9, 3, 0.5, &mut rm_util::rng::rng_from_seed(2));
    let bad_ann = rm_embed::AnnArtifact {
        content: Some(rm_embed::IvfIndex::build(&bogus_store, &ivf_config)),
        cf: Some(rm_embed::IvfIndex::build_mips(&bogus_factors, &ivf_config)),
    };
    let registry = ArtifactRegistry::new(unique_dir("ann-mismatch-reg"));
    fx.save(&registry, Some(&bad_ann), None);
    let engine =
        ServingEngine::load(&registry, &fx.train, EngineConfig::default()).expect("engine loads");
    assert!(!engine.ann_cf_active() && !engine.ann_content_active());
    assert_eq!(engine.ann_notes().len(), 2, "{:?}", engine.ann_notes());
    assert!(engine.degraded().is_empty(), "no slot degrades over ANN");
    // Exact path unaffected: matches the direct model.
    for u in 0..fx.train.n_users() as u32 {
        assert_eq!(
            engine.recommend(UserIdx(u), 5),
            fx.bpr.recommend(UserIdx(u), 5),
            "user {u}"
        );
    }
    fx.cleanup();
    let _ = std::fs::remove_dir_all(registry.dir());
}

#[cfg(feature = "testing")]
mod chaos {
    use super::*;
    use rm_serve::fault::{CallWindow, FaultPlan};

    /// Keeps injected panic reports out of the test output.
    fn silence_injected_panics() {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                previous(info);
            }
        }));
    }

    /// A primary source that panics on every call must not dent
    /// availability: the surviving sources and the degraded chain answer
    /// every request.
    #[test]
    fn panicking_primary_source_keeps_availability_at_one() {
        silence_injected_panics();
        let fx = train_fixture("source-panic");
        let config = EngineConfig::builder()
            .pipeline_sources(vec![ModelSlot::Bpr, ModelSlot::MostRead])
            .cache_capacity(0)
            .build()
            .expect("valid config");
        let plan = FaultPlan::none().panic_in(ModelSlot::Bpr, CallWindow::always());
        let engine = ServingEngine::load_with_faults(&fx.registry, &fx.train, config, plan)
            .expect("engine loads");

        let users: Vec<UserIdx> = (0..fx.train.n_users() as u32).map(UserIdx).collect();
        let answers = engine.recommend_batch(&users, 5);
        assert!(
            answers.iter().all(|a| a.len() == 5),
            "every request answered despite the panicking primary source"
        );
        let m = engine.metrics();
        assert_eq!(m.worker_panics, 0, "panics stay isolated in-source");
        assert!(
            m.panics[ModelSlot::Bpr.index()] > 0,
            "the fault actually fired"
        );
        assert!((m.availability() - 1.0).abs() < 1e-12);
        fx.cleanup();
    }
}
