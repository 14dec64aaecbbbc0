//! End-to-end serving-engine tests: train a tiny suite, persist it, then
//! exercise the engine against healthy, corrupted, and missing artifacts.

use rm_core::bpr::{Bpr, BprConfig, BprModel};
use rm_core::closest::ClosestItems;
use rm_core::most_read::MostReadItems;
use rm_core::Recommender;
use rm_datagen::Preset;
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;
use rm_dataset::summary::SummaryFields;
use rm_embed::{EmbeddingStore, EncoderConfig};
use rm_eval::harness::Harness;
use rm_serve::engine::{EngineConfig, EngineConfigBuilder, ModelSlot, ServingEngine};
use rm_serve::pipeline::AlreadyBorrowedFilter;
use rm_serve::registry::{ArtifactRegistry, Manifest, BPR_FILE, MOST_READ_FILE};
use rm_sparse::DenseMatrix;
use rm_util::RecError;
use std::path::PathBuf;
use std::sync::Arc;

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rm-serve-engine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A trained-and-persisted Tiny-preset artifact set plus its training
/// interactions (which the engine rebuilds from the corpus, not disk).
struct Fixture {
    train: Interactions,
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
    Fixture { train, registry }
}

/// First user with a non-empty training history.
fn user_with_history(train: &Interactions) -> UserIdx {
    (0..train.n_users() as u32)
        .map(UserIdx)
        .find(|&u| !train.seen(u).is_empty())
        .expect("some user has a history")
}

fn engine_of(fx: &Fixture, config: EngineConfig) -> ServingEngine {
    ServingEngine::load(&fx.registry, &fx.train, config).expect("engine loads")
}

#[test]
fn healthy_chain_serves_bpr() {
    let fx = train_fixture("healthy");
    let engine = engine_of(&fx, EngineConfig::default());
    assert!(engine.degraded().is_empty(), "{:?}", engine.degraded());

    let user = user_with_history(&fx.train);
    let recs = engine.recommend(user, 5);
    assert_eq!(recs.len(), 5);
    // Recommendations never contain seen books.
    assert!(recs
        .iter()
        .all(|b| fx.train.seen(user).binary_search(b).is_err()));

    let m = engine.metrics();
    assert_eq!(m.requests, 1);
    assert_eq!(m.served[ModelSlot::Bpr.index()], 1);
    assert_eq!(m.fallbacks, [0; ModelSlot::COUNT]);
    assert_eq!(m.latency.count(), 1);
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

/// The FNV-1a 64 the codec uses, reimplemented to craft a
/// checksum-valid-but-length-mismatched artifact.
fn fnv64(bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[test]
fn every_decode_error_variant_falls_back_to_closest_items() {
    let fx = train_fixture("corrupt");
    type Corruption = (&'static str, fn(&mut Vec<u8>), &'static str);
    let corruptions: [Corruption; 4] = [
        ("truncated", |b| b.truncate(5), "input truncated"),
        ("bad-magic", |b| b[0] ^= 0xFF, "bad magic"),
        (
            "length-mismatch",
            |b| {
                // Drop the checksum, chop one f32 off the payload, then
                // re-checksum: the container is valid but the payload no
                // longer matches its declared dimensions.
                b.truncate(b.len() - 8 - 4);
                let sum = fnv64(b);
                b.extend_from_slice(&sum.to_le_bytes());
            },
            "length does not match",
        ),
        (
            "bad-checksum",
            |b| *b.last_mut().unwrap() ^= 0xFF,
            "checksum mismatch",
        ),
    ];

    let pristine = std::fs::read(fx.registry.path_of(BPR_FILE)).expect("read bpr artifact");
    for (name, corrupt, expected_msg) in corruptions {
        let mut bytes = pristine.clone();
        corrupt(&mut bytes);
        std::fs::write(fx.registry.path_of(BPR_FILE), &bytes).unwrap();

        let engine = engine_of(&fx, EngineConfig::default());
        assert_eq!(
            engine.degraded().len(),
            1,
            "{name}: {:?}",
            engine.degraded()
        );
        let (slot, reason) = &engine.degraded()[0];
        assert_eq!(*slot, ModelSlot::Bpr, "{name}");
        assert!(reason.contains(expected_msg), "{name}: {reason}");

        // Serving survives: the request falls through to Closest Items.
        let user = user_with_history(&fx.train);
        let recs = engine.recommend(user, 5);
        assert_eq!(recs.len(), 5, "{name}");
        let m = engine.metrics();
        assert_eq!(m.served[ModelSlot::ClosestItems.index()], 1, "{name}");
        assert_eq!(m.fallbacks[ModelSlot::Bpr.index()], 1, "{name}");
    }

    // WrongModel: a valid Most Read artifact parked under the BPR name
    // passes the checksum but carries the wrong tag.
    std::fs::copy(
        fx.registry.path_of(MOST_READ_FILE),
        fx.registry.path_of(BPR_FILE),
    )
    .unwrap();
    let engine = engine_of(&fx, EngineConfig::default());
    let (slot, reason) = &engine.degraded()[0];
    assert_eq!(*slot, ModelSlot::Bpr);
    assert!(reason.contains("tag mismatch"), "{reason}");
    assert!(!engine.recommend(user_with_history(&fx.train), 5).is_empty());
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

#[test]
fn all_artifacts_missing_serves_random() {
    let fx = train_fixture("missing-all");
    for file in [
        BPR_FILE,
        MOST_READ_FILE,
        rm_serve::registry::EMBEDDINGS_FILE,
    ] {
        std::fs::remove_file(fx.registry.path_of(file)).unwrap();
    }
    let engine = engine_of(&fx, EngineConfig::default());
    assert_eq!(engine.degraded().len(), 3);
    assert!(engine
        .degraded()
        .iter()
        .all(|(_, reason)| reason.contains("missing")));

    let user = user_with_history(&fx.train);
    let recs = engine.recommend(user, 5);
    assert_eq!(recs.len(), 5);
    let m = engine.metrics();
    assert_eq!(m.served[ModelSlot::Random.index()], 1);
    for slot in [ModelSlot::Bpr, ModelSlot::ClosestItems, ModelSlot::MostRead] {
        assert_eq!(m.fallbacks[slot.index()], 1, "{slot:?}");
    }
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

/// A checksum-valid artifact of the wrong shape degrades its own slot
/// alone, with a `dimension mismatch` reason, and the rest of the chain
/// still answers: BPR factors with one extra user row, an embedding
/// store one book short, Most Read counts one book short.
#[test]
fn wrong_shape_artifact_degrades_only_its_slot() {
    use rm_core::persist::PersistModel;
    use rm_serve::registry::EMBEDDINGS_FILE;

    let fx = train_fixture("wrong-shape");
    let read = |file: &str| std::fs::read(fx.registry.path_of(file)).expect("read artifact");
    let bpr = BprModel::from_bytes(&read(BPR_FILE)).expect("bpr decodes");
    let store = EmbeddingStore::from_bytes(&read(EMBEDDINGS_FILE)).expect("store decodes");
    let most_read = MostReadItems::from_bytes(&read(MOST_READ_FILE)).expect("counts decode");

    let (users, factors) = (bpr.user_factors.rows(), bpr.user_factors.cols());
    let mut rows = bpr.user_factors.as_slice().to_vec();
    rows.extend(std::iter::repeat_n(0.1, factors));
    let extra_user = BprModel {
        user_factors: DenseMatrix::from_vec(users + 1, factors, rows),
        item_factors: bpr.item_factors.clone(),
    };
    let books = store.len() - 1;
    let embeddings = (0..books)
        .flat_map(|i| store.embedding(i).to_vec())
        .collect();
    let short_store =
        EmbeddingStore::from_unit_matrix(DenseMatrix::from_vec(books, store.dim(), embeddings));
    let short_counts = MostReadItems::from_counts(most_read.counts()[..books].to_vec());

    let user = user_with_history(&fx.train);
    for (slot, file, bytes) in [
        (ModelSlot::Bpr, BPR_FILE, extra_user.to_bytes()),
        (
            ModelSlot::ClosestItems,
            EMBEDDINGS_FILE,
            short_store.to_bytes(),
        ),
        (ModelSlot::MostRead, MOST_READ_FILE, short_counts.to_bytes()),
    ] {
        let pristine = read(file);
        std::fs::write(fx.registry.path_of(file), bytes).expect("write wrong-shape artifact");
        let engine = engine_of(&fx, EngineConfig::default());
        let degraded = engine.degraded();
        assert_eq!(degraded.len(), 1, "{file}: {degraded:?}");
        assert_eq!(degraded[0].0, slot, "{file}");
        assert!(
            degraded[0].1.contains("dimension mismatch"),
            "{file}: {}",
            degraded[0].1
        );
        assert_eq!(engine.recommend(user, 5).len(), 5, "{file}");
        std::fs::write(fx.registry.path_of(file), pristine).expect("restore artifact");
    }
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

#[test]
fn cache_hits_are_byte_identical_to_cold_calls() {
    let fx = train_fixture("cache");
    let engine = engine_of(&fx, EngineConfig::default());
    let uncached = engine_of(
        &fx,
        EngineConfig::builder()
            .cache_capacity(0)
            .build()
            .expect("valid config"),
    );

    let user = user_with_history(&fx.train);
    let cold = engine.recommend(user, 10);
    assert_eq!(engine.cache_len(), 1);
    let warm = engine.recommend(user, 10);
    assert_eq!(warm, cold, "cache hit must replay the cold answer exactly");
    assert_eq!(engine.recommend(user, 10), cold);
    assert_eq!(
        uncached.recommend(user, 10),
        cold,
        "disabling the cache must not change answers"
    );

    let m = engine.metrics();
    assert_eq!(m.requests, 3);
    assert_eq!(m.cache_hits, 2);
    assert!((m.cache_hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    // Model work happened exactly once.
    assert_eq!(m.served[ModelSlot::Bpr.index()], 1);
    assert_eq!(uncached.metrics().cache_hits, 0);
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

#[test]
fn cache_bytes_estimate_reflects_cached_answers() {
    let fx = train_fixture("cache-bytes");
    let engine = engine_of(&fx, EngineConfig::default());
    assert_eq!(engine.cache_bytes_estimate(), 0);
    let user = user_with_history(&fx.train);
    let _ = engine.recommend(user, 5);
    let est = engine.cache_bytes_estimate();
    assert!(
        est >= 20,
        "one cached 5-item answer weighs at least its payload: {est}"
    );
    assert_eq!(engine.metrics().cache_bytes_estimate, est);
    let text = engine.metrics_prometheus();
    assert!(
        text.contains(&format!("rm_serve_cache_bytes_estimate {est}")),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

#[test]
fn reload_bumps_epoch_and_clears_cache() {
    let fx = train_fixture("reload");
    let mut engine = engine_of(&fx, EngineConfig::default());
    assert_eq!(engine.epoch(), 1);
    let user = user_with_history(&fx.train);
    let before = engine.recommend(user, 5);
    assert_eq!(engine.cache_len(), 1);

    // Retrain day: same artifacts, new epoch.
    let manifest_path = fx.registry.path_of(rm_serve::registry::MANIFEST_FILE);
    let bumped = Manifest {
        epoch: 2,
        fields: SummaryFields::BEST,
    };
    std::fs::write(&manifest_path, bumped.render()).unwrap();
    engine.reload(&fx.registry).expect("reload");

    assert_eq!(engine.epoch(), 2);
    assert_eq!(engine.cache_len(), 0, "reload must invalidate the cache");
    assert!(engine.degraded().is_empty());
    // Identical artifacts serve identical answers under the new epoch.
    assert_eq!(engine.recommend(user, 5), before);
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

#[test]
fn batch_matches_single_calls_for_every_worker_count() {
    let fx = train_fixture("batch");
    let n_users = fx.train.n_users() as u32;
    // Every user, an out-of-range user, and duplicates.
    let mut users: Vec<UserIdx> = (0..n_users).map(UserIdx).collect();
    users.push(UserIdx(n_users + 7));
    users.push(UserIdx(0));

    // The default single-BPR chain, and a multi-source pipeline whose
    // content source scores chunks of more than four users in one batch.
    // Its pool is smaller than the catalogue, as at the paper preset, so
    // what each source ranks first decides what reaches the rank stage.
    let pipelines: [fn(EngineConfigBuilder) -> EngineConfigBuilder; 2] = [
        |b| b,
        |b| {
            b.pipeline_sources(vec![
                ModelSlot::Bpr,
                ModelSlot::ClosestItems,
                ModelSlot::MostRead,
            ])
            .filter(Arc::new(AlreadyBorrowedFilter))
            .pool_size(16)
        },
    ];
    for (p, pipeline) in pipelines.iter().enumerate() {
        let reference = engine_of(
            &fx,
            pipeline(EngineConfig::builder().cache_capacity(0).workers(1))
                .build()
                .expect("valid config"),
        );
        let singles: Vec<Vec<u32>> = users.iter().map(|&u| reference.recommend(u, 8)).collect();

        for workers in [1usize, 4, 8] {
            for cache_capacity in [0usize, 4096] {
                let engine = engine_of(
                    &fx,
                    pipeline(
                        EngineConfig::builder()
                            .workers(workers)
                            .cache_capacity(cache_capacity),
                    )
                    .build()
                    .expect("valid config"),
                );
                let batch = engine.recommend_batch(&users, 8);
                assert_eq!(
                    batch, singles,
                    "pipeline={p} workers={workers} cache={cache_capacity}"
                );
                assert_eq!(engine.metrics().requests, users.len() as u64);
            }
        }
    }
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

#[test]
fn empty_answers_fall_through_custom_chain() {
    // Hand-built two-user world: user 1 has no history, so Closest Items
    // (healthy!) returns nothing for them and the chain moves on.
    let train = Interactions::from_pairs(2, 3, &[(UserIdx(0), BookIdx(0))]);
    let bpr = BprModel {
        user_factors: DenseMatrix::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]),
        item_factors: DenseMatrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.5]),
    };
    let most_read = {
        let mut m = MostReadItems::new();
        m.fit(&train);
        m
    };
    let embeddings = EmbeddingStore::from_matrix(DenseMatrix::from_vec(
        3,
        2,
        vec![3.0, 4.0, 1.0, 0.0, 0.0, 2.0],
    ));
    let registry = ArtifactRegistry::new(unique_dir("fallthrough"));
    registry
        .save(
            &Manifest {
                epoch: 1,
                fields: SummaryFields::BEST,
            },
            &bpr,
            &most_read,
            &embeddings,
            None,
            None,
        )
        .unwrap();

    let engine = ServingEngine::load(
        &registry,
        &train,
        EngineConfig::builder()
            .chain(vec![ModelSlot::ClosestItems, ModelSlot::MostRead])
            .build()
            .expect("valid config"),
    )
    .expect("engine loads");
    assert!(engine.degraded().is_empty());

    // History user: served by Closest Items.
    assert!(!engine.recommend(UserIdx(0), 2).is_empty());
    // Empty-history user: Closest Items yields nothing, Most Read steps in.
    let recs = engine.recommend(UserIdx(1), 2);
    assert_eq!(recs.len(), 2);
    let m = engine.metrics();
    assert_eq!(m.served[ModelSlot::ClosestItems.index()], 1);
    assert_eq!(m.served[ModelSlot::MostRead.index()], 1);
    assert_eq!(m.fallbacks[ModelSlot::ClosestItems.index()], 1);
    // BPR was never consulted: not in the chain.
    assert_eq!(m.served[ModelSlot::Bpr.index()], 0);
    assert_eq!(m.fallbacks[ModelSlot::Bpr.index()], 0);
    let _ = std::fs::remove_dir_all(registry.dir());
}

#[test]
fn builder_defaults_match_config_default() {
    let built = EngineConfig::builder().build().expect("defaults are valid");
    let default = EngineConfig::default();
    assert_eq!(built.chain, default.chain);
    assert_eq!(built.workers, default.workers);
    assert_eq!(built.cache_capacity, default.cache_capacity);
    assert_eq!(built.random_seed, default.random_seed);
    assert_eq!(built.slot_budget, default.slot_budget);
    assert_eq!(built.request_budget, default.request_budget);
    assert_eq!(built.pipeline.pool_size, default.pipeline.pool_size);
    assert!(built.pipeline.sources.is_none());
    assert!(built.pipeline.filters.is_empty());
}

#[test]
fn builder_rejects_nonsensical_configs() {
    let cases: [(EngineConfigBuilder, &str); 4] = [
        (EngineConfig::builder().workers(0), "workers"),
        (EngineConfig::builder().chain(Vec::new()), "chain"),
        (EngineConfig::builder().pool_size(0), "pool_size"),
        (
            EngineConfig::builder().pipeline_sources(Vec::new()),
            "sources",
        ),
    ];
    for (builder, what) in cases {
        match builder.build() {
            Err(RecError::Config(msg)) => {
                assert!(msg.contains(what), "{what}: unexpected message {msg}");
            }
            other => panic!("{what}: expected RecError::Config, got {other:?}"),
        }
    }
}

#[test]
fn builder_sets_pipeline_and_fault_knobs() {
    let config = EngineConfig::builder()
        .chain(vec![ModelSlot::MostRead, ModelSlot::Random])
        .workers(2)
        .cache_capacity(16)
        .random_seed(7)
        .slot_budget(std::time::Duration::from_millis(5))
        .request_budget(std::time::Duration::from_millis(50))
        .no_breaker()
        .pipeline_sources(vec![ModelSlot::MostRead])
        .pool_size(64)
        .build()
        .expect("valid config");
    assert_eq!(config.chain, vec![ModelSlot::MostRead, ModelSlot::Random]);
    assert_eq!(config.workers, 2);
    assert_eq!(config.cache_capacity, 16);
    assert_eq!(config.random_seed, 7);
    assert_eq!(
        config.slot_budget,
        Some(std::time::Duration::from_millis(5))
    );
    assert_eq!(
        config.request_budget,
        Some(std::time::Duration::from_millis(50))
    );
    assert!(config.breaker.is_none());
    assert_eq!(config.pipeline.sources, Some(vec![ModelSlot::MostRead]));
    assert_eq!(config.pipeline.pool_size, 64);
}
