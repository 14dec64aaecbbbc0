//! The serve suites' shared fixture: the Tiny corpus (seed 11) with
//! 4-factor × 2-epoch BPR, Most Read and Closest Items trained on
//! `SummaryFields::BEST`, published as epoch 1 into a fresh temp
//! registry.

// Each test binary compiles this module and uses its own subset.
#![allow(dead_code)]

use rm_core::bpr::{Bpr, BprConfig};
use rm_core::closest::ClosestItems;
use rm_core::most_read::MostReadItems;
use rm_core::quant::{QuantArtifact, QuantMode};
use rm_core::Recommender;
use rm_datagen::Preset;
use rm_dataset::ids::UserIdx;
use rm_dataset::interactions::Interactions;
use rm_dataset::summary::SummaryFields;
use rm_dataset::Corpus;
use rm_embed::{AnnArtifact, EncoderConfig, IvfConfig, IvfIndex};
use rm_eval::harness::Harness;
use rm_serve::registry::{ArtifactRegistry, Manifest};
use std::path::PathBuf;

/// The trained models, their corpus and training split, and the registry
/// they were published to.
pub struct Fixture {
    pub corpus: Corpus,
    pub train: Interactions,
    pub bpr: Bpr,
    pub most_read: MostReadItems,
    pub closest: ClosestItems,
    pub manifest: Manifest,
    pub registry: ArtifactRegistry,
}

/// An empty temp directory named after the test binary, `tag` and the
/// process, so suites running in parallel never share one.
pub fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rm-serve-{}-{tag}-{}",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The FNV-1a 64 the codec checksums a container with, reimplemented so
/// a test can craft a checksum-valid artifact.
pub fn fnv64(bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// First user with a non-empty training history.
pub fn user_with_history(train: &Interactions) -> UserIdx {
    (0..train.n_users() as u32)
        .map(UserIdx)
        .find(|&u| !train.seen(u).is_empty())
        .expect("some user has a history")
}

/// Trains the fixture and publishes it without ANN or quant artifacts.
pub fn train_fixture(tag: &str) -> Fixture {
    train_fixture_with(tag, None, false)
}

/// Trains the fixture and publishes it with the `quant` rows (if any)
/// and, when `ann` is set, the IVF ANN artifact.
pub fn train_fixture_with(tag: &str, quant: Option<QuantMode>, ann: bool) -> Fixture {
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
    let fx = Fixture {
        corpus: h.corpus,
        train,
        bpr,
        most_read,
        closest,
        manifest: Manifest {
            epoch: 1,
            fields: SummaryFields::BEST,
        },
        registry: ArtifactRegistry::new(unique_dir(tag)),
    };
    let ann = ann.then(|| fx.ann());
    let quant = quant.map(|mode| fx.quant(mode));
    fx.save(&fx.registry, ann.as_ref(), quant.as_ref());
    fx
}

impl Fixture {
    /// The IVF ANN artifact, built the way `train --out` builds it.
    pub fn ann(&self) -> AnnArtifact {
        let ivf = IvfConfig::for_catalogue(self.train.n_books());
        AnnArtifact {
            content: Some(IvfIndex::build(self.closest.store(), &ivf)),
            cf: Some(IvfIndex::build_mips(
                &self.bpr.model().expect("fitted").item_factors,
                &ivf,
            )),
        }
    }

    /// The BPR factors and the embeddings quantized in `mode`.
    pub fn quant(&self, mode: QuantMode) -> QuantArtifact {
        QuantArtifact::quantize(
            mode,
            self.bpr.model().expect("fitted"),
            Some(self.closest.store()),
        )
    }

    /// Saves the three models under `self.manifest` into `registry`,
    /// with the optional ANN and quant artifacts.
    pub fn save(
        &self,
        registry: &ArtifactRegistry,
        ann: Option<&AnnArtifact>,
        quant: Option<&QuantArtifact>,
    ) {
        registry
            .save(
                &self.manifest,
                self.bpr.model().expect("fitted"),
                &self.most_read,
                self.closest.store(),
                ann,
                quant,
            )
            .expect("save artifacts");
    }

    /// Removes the published registry.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(self.registry.dir());
    }
}
