//! Property: a reload either commits the new epoch in full or leaves
//! the engine serving the old epoch untouched — no truncation point in
//! the published files can produce a mixed-epoch engine.
//!
//! The truncation models a crash mid-publication. With the atomic
//! `.tmp`-then-rename protocol a real crash can only lose whole files,
//! but the property is proved against the strictly larger space of
//! arbitrary prefixes: manifest truncated → reload fails, the old epoch
//! (and its cached answers) keep serving; artifact truncated → reload
//! commits the new epoch with that slot degraded, never half-installed.

use proptest::{prop_assert, prop_assert_eq, proptest};
use rm_dataset::ids::UserIdx;
use rm_dataset::interactions::Interactions;
use rm_dataset::summary::SummaryFields;
use rm_serve::engine::{EngineConfig, ServingEngine};
use rm_serve::registry::{
    ArtifactRegistry, Manifest, BPR_FILE, EMBEDDINGS_FILE, MANIFEST_FILE, MOST_READ_FILE,
};
use std::path::PathBuf;
use std::sync::OnceLock;

mod common;
use common::{train_fixture, user_with_history};

/// One trained artifact set, captured as bytes so every proptest case
/// can restore a pristine registry without retraining.
struct Pristine {
    train: Interactions,
    dir: PathBuf,
    user: UserIdx,
    manifest_e1: Vec<u8>,
    manifest_e2: Vec<u8>,
    files: Vec<(&'static str, Vec<u8>)>,
}

fn pristine() -> &'static Pristine {
    static FIXTURE: OnceLock<Pristine> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let fx = train_fixture("pristine");
        let read = |file: &str| std::fs::read(fx.registry.path_of(file)).expect("read artifact");
        Pristine {
            user: user_with_history(&fx.train),
            manifest_e1: read(MANIFEST_FILE),
            manifest_e2: Manifest {
                epoch: 2,
                fields: SummaryFields::BEST,
            }
            .render()
            .into_bytes(),
            files: [BPR_FILE, MOST_READ_FILE, EMBEDDINGS_FILE]
                .into_iter()
                .map(|f| (f, read(f)))
                .collect(),
            dir: fx.registry.dir().to_path_buf(),
            train: fx.train,
        }
    })
}

proptest! {
    #[test]
    fn reload_never_serves_a_mixed_epoch(target in 0usize..4, cut in 0usize..1_000_000) {
        let px = pristine();
        let registry = ArtifactRegistry::new(px.dir.clone());
        // Restore the pristine epoch-1 registry.
        std::fs::write(registry.path_of(MANIFEST_FILE), &px.manifest_e1).unwrap();
        for (file, bytes) in &px.files {
            std::fs::write(registry.path_of(file), bytes).unwrap();
        }

        let mut engine = ServingEngine::load(
            &registry,
            &px.train,
            EngineConfig::builder().workers(1).build().unwrap(),
        ).unwrap();
        prop_assert_eq!(engine.epoch(), 1);
        prop_assert!(engine.degraded().is_empty());
        let before = engine.recommend(px.user, 5);

        // Epoch 2 is published, but a crash truncated one of the files.
        std::fs::write(registry.path_of(MANIFEST_FILE), &px.manifest_e2).unwrap();
        let (file, bytes): (&str, &[u8]) = if target == 0 {
            (MANIFEST_FILE, &px.manifest_e2)
        } else {
            let (f, b) = &px.files[target - 1];
            (f, b)
        };
        let keep = cut % (bytes.len() + 1);
        std::fs::write(registry.path_of(file), &bytes[..keep]).unwrap();

        match engine.reload(&registry) {
            // Commit: the new epoch in full, possibly with the truncated
            // slot degraded — and the old epoch's cache gone.
            Ok(()) => {
                prop_assert_eq!(engine.epoch(), 2);
                prop_assert_eq!(engine.cache_len(), 0);
                let recs = engine.recommend(px.user, 5);
                // The chain still serves k items even if a slot degraded.
                prop_assert_eq!(recs.len(), 5);
            }
            // Rollback: the old epoch is untouched, byte-identical
            // answers included.
            Err(_) => {
                prop_assert_eq!(engine.epoch(), 1);
                prop_assert!(engine.degraded().is_empty());
                prop_assert_eq!(engine.recommend(px.user, 5), before.clone());
            }
        }
    }
}
