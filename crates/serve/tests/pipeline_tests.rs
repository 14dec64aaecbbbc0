//! Candidate-pipeline integration tests: equivalence with the legacy
//! chain, provenance-backed explanations, filter behaviour, and (with
//! `--features testing`) availability under a panicking source.

use rm_core::bpr::{Bpr, BprConfig};
use rm_core::closest::ClosestItems;
use rm_core::most_read::MostReadItems;
use rm_core::Recommender;
use rm_datagen::Preset;
use rm_dataset::ids::UserIdx;
use rm_dataset::interactions::Interactions;
use rm_dataset::summary::SummaryFields;
use rm_dataset::Corpus;
use rm_embed::EncoderConfig;
use rm_eval::harness::Harness;
use rm_serve::engine::{EngineConfig, ModelSlot, ServingEngine};
use rm_serve::pipeline::{AlreadyBorrowedFilter, BookGenres, DiversityCapFilter, Reason, SourceId};
use rm_serve::registry::{ArtifactRegistry, Manifest};
use std::path::PathBuf;
use std::sync::Arc;

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rm-serve-pipeline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Trained Tiny-preset artifacts plus the corpus (for genre lookups) and
/// the directly-trained BPR (the pre-persistence reference model).
struct Fixture {
    corpus: Corpus,
    train: Interactions,
    bpr: Bpr,
    registry: ArtifactRegistry,
}

fn train_fixture(tag: &str) -> Fixture {
    let h = Harness::generate(11, Preset::Tiny);
    let train = h.split.train.clone();
    let mut bpr = Bpr::new(BprConfig {
        factors: 4,
        epochs: 2,
        ..BprConfig::default()
    });
    bpr.fit(&train);
    let mut most_read = MostReadItems::new();
    most_read.fit(&train);
    let mut closest =
        ClosestItems::from_corpus(&h.corpus, SummaryFields::BEST, EncoderConfig::default());
    closest.fit(&train);
    let registry = ArtifactRegistry::new(unique_dir(tag));
    registry
        .save(
            &Manifest {
                epoch: 1,
                fields: SummaryFields::BEST,
            },
            bpr.model().expect("fitted"),
            &most_read,
            closest.store(),
            None,
            None,
        )
        .expect("save artifacts");
    Fixture {
        corpus: h.corpus,
        train,
        bpr,
        registry,
    }
}

impl Fixture {
    fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(self.registry.dir());
    }
}

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

/// Retrains the Tiny fixture and publishes it twice: once bare, once
/// with the IVF ANN artifact built the way `train --out` builds it.
fn ann_registries(tag: &str) -> (Fixture, ArtifactRegistry) {
    let fx = train_fixture(tag);
    let h = Harness::generate(11, Preset::Tiny);
    let mut most_read = MostReadItems::new();
    most_read.fit(&fx.train);
    let mut closest =
        ClosestItems::from_corpus(&h.corpus, SummaryFields::BEST, EncoderConfig::default());
    closest.fit(&fx.train);
    let model = fx.bpr.model().expect("fitted");
    let ivf_config = rm_embed::IvfConfig::for_catalogue(fx.train.n_books());
    let ann = rm_embed::AnnArtifact {
        content: Some(rm_embed::IvfIndex::build(closest.store(), &ivf_config)),
        cf: Some(rm_embed::IvfIndex::build_mips(
            &model.item_factors,
            &ivf_config,
        )),
    };
    let with_ann = ArtifactRegistry::new(unique_dir(&format!("{tag}-ann")));
    with_ann
        .save(
            &Manifest {
                epoch: 1,
                fields: SummaryFields::BEST,
            },
            model,
            &most_read,
            closest.store(),
            Some(&ann),
            None,
        )
        .expect("save artifacts with ann");
    (fx, with_ann)
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
    let h = Harness::generate(11, Preset::Tiny);
    let mut most_read = MostReadItems::new();
    most_read.fit(&fx.train);
    let mut closest =
        ClosestItems::from_corpus(&h.corpus, SummaryFields::BEST, EncoderConfig::default());
    closest.fit(&fx.train);
    let model = fx.bpr.model().expect("fitted");
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
    registry
        .save(
            &Manifest {
                epoch: 1,
                fields: SummaryFields::BEST,
            },
            model,
            &most_read,
            closest.store(),
            Some(&bad_ann),
            None,
        )
        .expect("save artifacts");
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
