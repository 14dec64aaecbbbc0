//! Quantized serving-path tests: an engine with a valid quant artifact
//! serves from compact rows; any corruption or mismatch silently falls
//! back to exact f32 scoring — byte-identical answers to a quant-free
//! engine, availability untouched.

use rm_core::bpr::{Bpr, BprConfig};
use rm_core::quant::{QuantArtifact, QuantMode, QuantRecommender};
use rm_core::Recommender;
use rm_dataset::ids::UserIdx;
use rm_dataset::interactions::Interactions;
use rm_dataset::summary::SummaryFields;
use rm_serve::engine::{EngineConfig, ModelSlot, ServingEngine};
use rm_serve::registry::{Manifest, QUANT_FILE};

mod common;
use common::{train_fixture, train_fixture_with};

fn users_with_history(train: &Interactions, n: usize) -> Vec<UserIdx> {
    (0..train.n_users() as u32)
        .map(UserIdx)
        .filter(|&u| !train.seen(u).is_empty())
        .take(n)
        .collect()
}

#[test]
fn quantized_engine_activates_and_serves() {
    for mode in [QuantMode::I8, QuantMode::F16] {
        let fx = train_fixture_with(&format!("active-{}", mode.label()), Some(mode), false);
        let engine =
            ServingEngine::load(&fx.registry, &fx.train, EngineConfig::default()).expect("loads");
        assert!(engine.degraded().is_empty(), "{:?}", engine.degraded());
        assert!(engine.quant_cf_active(), "{:?}", engine.quant_notes());
        assert!(engine.quant_content_active(), "{:?}", engine.quant_notes());
        assert!(engine.quant_notes().is_empty());
        for user in users_with_history(&fx.train, 8) {
            let recs = engine.recommend(user, 5);
            assert_eq!(recs.len(), 5, "quantized path must serve k items");
            assert!(recs
                .iter()
                .all(|b| fx.train.seen(user).binary_search(b).is_err()));
        }
        let _ = std::fs::remove_dir_all(fx.registry.dir());
    }
}

/// With no ANN artifact the quantized CF source is
/// `QuantRecommender`'s exhaustive scan. `pool_size(1)` makes the pool
/// exactly that scan's top-k, so the engine must answer it: a source
/// that scanned the f32 rows instead would pool other books.
#[test]
fn quantized_cf_source_answers_the_quant_recommender() {
    for mode in [QuantMode::I8, QuantMode::F16] {
        let fx = train_fixture_with(&format!("exhaustive-{}", mode.label()), Some(mode), false);
        let config = EngineConfig::builder()
            .pool_size(1)
            .build()
            .expect("valid config");
        let engine = ServingEngine::load(&fx.registry, &fx.train, config).expect("loads");
        assert!(!engine.ann_cf_active());
        assert!(engine.quant_cf_active(), "{:?}", engine.quant_notes());
        let artifact = fx
            .registry
            .load()
            .expect("registry loads")
            .quant
            .expect("quant artifact");
        let reference = QuantRecommender::new(&artifact, &fx.train);
        for k in [1usize, 5, 10] {
            for u in 0..fx.train.n_users() as u32 {
                let user = UserIdx(u);
                assert_eq!(
                    engine.recommend(user, k),
                    reference.recommend(user, k),
                    "{} user {u} k {k}",
                    mode.label()
                );
            }
        }
        let _ = std::fs::remove_dir_all(fx.registry.dir());
    }
}

/// The same quantized artifact published next to an ANN artifact and
/// probed in full (`ann_nprobe(usize::MAX)`): the CF source retrieves
/// through the IVF index, re-scoring the same quantized rows, so its
/// answers and explanations equal the exhaustive quantized scan's.
#[test]
fn quantized_cf_source_at_full_nprobe_matches_the_exhaustive_scan() {
    for mode in [QuantMode::I8, QuantMode::F16] {
        let plain = train_fixture_with(
            &format!("full-ivf-plain-{}", mode.label()),
            Some(mode),
            false,
        );
        let with_ann =
            train_fixture_with(&format!("full-ivf-ann-{}", mode.label()), Some(mode), true);
        let config = || {
            EngineConfig::builder()
                .pipeline_sources(vec![ModelSlot::Bpr])
                .pool_size(1)
                .ann_nprobe(usize::MAX)
                .build()
                .expect("valid config")
        };
        let exhaustive =
            ServingEngine::load(&plain.registry, &plain.train, config()).expect("loads");
        let ivf =
            ServingEngine::load(&with_ann.registry, &with_ann.train, config()).expect("loads");
        assert!(!exhaustive.ann_cf_active() && exhaustive.quant_cf_active());
        assert!(ivf.ann_cf_active(), "{:?}", ivf.ann_notes());
        assert!(ivf.quant_cf_active(), "{:?}", ivf.quant_notes());
        for k in [1usize, 5, 10] {
            for u in 0..plain.train.n_users() as u32 {
                let user = UserIdx(u);
                assert_eq!(
                    exhaustive.recommend_explained(user, k),
                    ivf.recommend_explained(user, k),
                    "{} user {u} k {k}",
                    mode.label()
                );
            }
        }
        let _ = std::fs::remove_dir_all(plain.registry.dir());
        let _ = std::fs::remove_dir_all(with_ann.registry.dir());
    }
}

#[test]
fn missing_quant_artifact_is_silent() {
    let fx = train_fixture("missing");
    let engine =
        ServingEngine::load(&fx.registry, &fx.train, EngineConfig::default()).expect("loads");
    assert!(!engine.quant_cf_active());
    assert!(!engine.quant_content_active());
    assert!(engine.quant_notes().is_empty());
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

/// Corruption chaos: every prefix truncation and a byte flip of
/// `quant.rmodel` must leave the engine serving byte-identically to a
/// quant-free engine — full availability, nothing degraded, only an
/// operator note.
#[test]
fn corrupt_quant_artifact_falls_back_to_exact_f32() {
    let baseline_fx = train_fixture("fallback-baseline");
    let baseline = ServingEngine::load(
        &baseline_fx.registry,
        &baseline_fx.train,
        EngineConfig::default(),
    )
    .expect("loads");
    let users = users_with_history(&baseline_fx.train, 8);
    let expected: Vec<Vec<u32>> = users.iter().map(|&u| baseline.recommend(u, 5)).collect();

    let fx = train_fixture_with("fallback", Some(QuantMode::I8), false);
    let path = fx.registry.path_of(QUANT_FILE);
    let pristine = std::fs::read(&path).expect("quant artifact exists");
    let mut corruptions: Vec<Vec<u8>> = [0, 1, 8, 9, pristine.len() / 2, pristine.len() - 1]
        .iter()
        .map(|&keep| pristine[..keep].to_vec())
        .collect();
    let mut flipped = pristine.clone();
    flipped[pristine.len() / 2] ^= 0x40;
    corruptions.push(flipped);

    for bytes in &corruptions {
        std::fs::write(&path, bytes).expect("write corruption");
        let engine =
            ServingEngine::load(&fx.registry, &fx.train, EngineConfig::default()).expect("loads");
        assert!(engine.degraded().is_empty(), "{:?}", engine.degraded());
        assert!(!engine.quant_cf_active());
        assert!(!engine.quant_content_active());
        assert_eq!(engine.quant_notes().len(), 1, "{:?}", engine.quant_notes());
        let got: Vec<Vec<u32>> = users.iter().map(|&u| engine.recommend(u, 5)).collect();
        assert_eq!(got, expected, "fallback answers must match the f32 path");
    }
    let _ = std::fs::remove_dir_all(fx.registry.dir());
    let _ = std::fs::remove_dir_all(baseline_fx.registry.dir());
}

/// A quant artifact whose shapes disagree with the installed models is
/// dropped per half with a note, never degrading a slot.
#[test]
fn mismatched_quant_artifact_drops_with_notes() {
    let fx = train_fixture("mismatch");
    // Quantize a *different* model: same catalogue, other factor count.
    let mut other = Bpr::new(BprConfig {
        factors: 6,
        epochs: 1,
        ..BprConfig::default()
    });
    other.fit(&fx.train);
    let bad = QuantArtifact::quantize(QuantMode::I8, other.model().expect("fitted"), None);
    std::fs::write(
        fx.registry.path_of(QUANT_FILE),
        rm_core::persist::PersistModel::to_bytes(&bad),
    )
    .expect("write mismatched artifact");

    let engine =
        ServingEngine::load(&fx.registry, &fx.train, EngineConfig::default()).expect("loads");
    assert!(engine.degraded().is_empty(), "{:?}", engine.degraded());
    assert!(!engine.quant_cf_active());
    assert!(!engine.quant_content_active());
    assert_eq!(engine.quant_notes().len(), 1, "{:?}", engine.quant_notes());
    assert!(engine.quant_notes()[0].contains("cf sections dropped"));

    let user = users_with_history(&fx.train, 1)[0];
    assert_eq!(engine.recommend(user, 5).len(), 5);
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

/// A registry with ANN and i8 artifacts whose BPR file is corrupt: BPR
/// degrades, the two halves that accelerate it (the ANN cf index and the
/// quantized cf sections) are dropped with one note each, the content
/// halves stay active, and the engine still answers.
#[test]
fn corrupt_bpr_drops_only_its_ann_and_quant_halves() {
    let fx = train_fixture_with("corrupt-bpr-halves", Some(QuantMode::I8), true);
    let path = fx.registry.path_of(rm_serve::registry::BPR_FILE);
    let mut bytes = std::fs::read(&path).expect("bpr artifact exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, bytes).expect("corrupt bpr artifact");

    let engine =
        ServingEngine::load(&fx.registry, &fx.train, EngineConfig::default()).expect("loads");
    let degraded: Vec<ModelSlot> = engine.degraded().iter().map(|(slot, _)| *slot).collect();
    assert_eq!(degraded, [ModelSlot::Bpr], "{:?}", engine.degraded());
    assert!(!engine.ann_cf_active());
    assert!(!engine.quant_cf_active());
    assert_eq!(
        engine.ann_notes(),
        ["ann cf index dropped: bpr slot degraded"]
    );
    assert_eq!(
        engine.quant_notes(),
        ["quant cf sections dropped: bpr slot degraded"]
    );
    assert!(engine.ann_content_active(), "{:?}", engine.ann_notes());
    assert!(engine.quant_content_active(), "{:?}", engine.quant_notes());
    let user = users_with_history(&fx.train, 1)[0];
    assert_eq!(engine.recommend(user, 5).len(), 5);
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

/// Reload re-validates the quant artifact: scrubbing it from the
/// registry deactivates quantized scoring on the next epoch.
#[test]
fn reload_reinstalls_quant() {
    let fx = train_fixture_with("reload", Some(QuantMode::I8), false);
    let mut engine =
        ServingEngine::load(&fx.registry, &fx.train, EngineConfig::default()).expect("loads");
    assert!(engine.quant_cf_active());

    std::fs::remove_file(fx.registry.path_of(QUANT_FILE)).expect("scrub quant");
    let manifest = Manifest {
        epoch: 2,
        fields: SummaryFields::BEST,
    };
    std::fs::write(
        fx.registry.path_of(rm_serve::registry::MANIFEST_FILE),
        manifest.render(),
    )
    .expect("bump epoch");
    engine.reload(&fx.registry).expect("reload");
    assert_eq!(engine.epoch(), 2);
    assert!(!engine.quant_cf_active());
    assert!(!engine.quant_content_active());
    assert!(engine.quant_notes().is_empty());
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}
