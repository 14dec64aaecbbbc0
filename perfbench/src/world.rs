//! Set-up: corpus, split, training, publication, and the live engine.
//!
//! Every workload starts here. The corpus is the paper preset generated
//! from [`CORPUS_SEED`] and split the way the experiment harness splits
//! it; serving workloads then train the serving suite on the training
//! split, publish it to an artifact registry in the working directory, and
//! load a [`ServingEngine`] over it.

use rm_core::bpr::{Bpr, BprConfig};
use rm_core::closest::ClosestItems;
use rm_core::most_read::MostReadItems;
use rm_core::quant::{QuantArtifact, QuantMode};
use rm_core::Recommender;
use rm_datagen::Preset;
use rm_dataset::summary::SummaryFields;
use rm_embed::{AnnArtifact, EncoderConfig, IvfConfig, IvfIndex};
use rm_eval::harness::Harness;
use rm_eval::split::{Split, SplitConfig};
use rm_serve::overload::OverloadConfig;
use rm_serve::pipeline::{AlreadyBorrowedFilter, BookGenres, DiversityCapFilter};
use rm_serve::registry::Manifest;
use rm_serve::{ArtifactRegistry, EngineConfig, ModelSlot, ServingEngine};
use rm_util::rng::derive_seed_str;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Recommendations per request.
pub const K: usize = 10;

/// Latency limit of one serving operation (a request, or a batch call
/// on cold-sweep): the loadgen SLO's 50 ms.
pub const SLO: Duration = Duration::from_millis(50);

/// Per-genre cap of the diversity filter.
pub const DIVERSITY_CAP: usize = 32;

/// Seed of the library's corpus, split and served models: the paper
/// default the repro binaries use. The catalogue and loan history stay
/// fixed; a run's `--seed` draws its traffic.
pub const CORPUS_SEED: u64 = 42;

/// BPR at the paper's operating point (the repro binaries' paper-preset
/// configuration). The serving set-ups fit it: the IVF index clusters
/// the trained item factors, so the rows a probe scores and its recall
/// depend on how far training went, and the served answers' URR/NRR
/// should be the paper model's.
fn paper_bpr() -> BprConfig {
    BprConfig {
        epochs: 15,
        seed: derive_seed_str(CORPUS_SEED, "bpr"),
        ..BprConfig::default()
    }
}

/// Which optional artifacts a serving set-up publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retrieval {
    /// Exact f32 scans: no IVF index, no quantized rows.
    Exact,
    /// IVF retrieval re-scored on i8 rows.
    IvfI8,
}

/// Wall time of each set-up and training step (zero when not run).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimes {
    /// `rm_datagen::generate_corpus`.
    pub datagen: Duration,
    /// The harness split, which builds the training interactions.
    pub split: Duration,
    /// All of [`train_suite`]: the fits, the IVF builds and quantization.
    pub train: Duration,
    /// `Bpr::fit`.
    pub bpr_fit: Duration,
    /// SGD updates `Bpr::fit` made (summed over epochs).
    pub bpr_updates: u64,
    /// `MostReadItems::fit`.
    pub most_read_fit: Duration,
    /// `ClosestItems::from_corpus` + fit (catalogue encoding).
    pub closest_encode: Duration,
    /// Both IVF builds.
    pub ivf_build: Duration,
    /// `QuantArtifact::quantize`.
    pub quantize: Duration,
    /// `ArtifactRegistry::save`.
    pub save: Duration,
    /// `ServingEngine::load` or `reload`.
    pub engine_load: Duration,
}

/// The trained serving suite, kept so workloads can republish it.
pub struct Suite {
    /// The fitted BPR model.
    pub bpr: Bpr,
    /// The fitted popularity baseline.
    pub most_read: MostReadItems,
    /// The fitted content model (owns the catalogue embeddings).
    pub closest: ClosestItems,
    /// IVF indexes, when published.
    pub ann: Option<AnnArtifact>,
    /// Quantized rows, when published.
    pub quant: Option<QuantArtifact>,
}

/// Trains the serving suite on `harness`'s training split, timing each
/// step into `times`.
fn train_suite(harness: &Harness, retrieval: Retrieval, times: &mut StepTimes) -> Suite {
    let start = Instant::now();
    let train = &harness.split.train;
    let t = Instant::now();
    let mut bpr = Bpr::new(paper_bpr());
    bpr.fit(train);
    times.bpr_fit = t.elapsed();
    times.bpr_updates = bpr.epoch_stats().iter().map(|e| e.updates as u64).sum();

    let t = Instant::now();
    let mut most_read = MostReadItems::new();
    most_read.fit(train);
    times.most_read_fit = t.elapsed();

    let t = Instant::now();
    let mut closest = ClosestItems::from_corpus(
        &harness.corpus,
        SummaryFields::BEST,
        EncoderConfig::default(),
    );
    closest.fit(train);
    times.closest_encode = t.elapsed();

    let (ann, quant) = match retrieval {
        Retrieval::Exact => (None, None),
        Retrieval::IvfI8 => {
            let model = bpr.model().expect("BPR fitted above");
            let t = Instant::now();
            let ivf = IvfConfig {
                seed: derive_seed_str(CORPUS_SEED, "ivf"),
                ..IvfConfig::for_catalogue(train.n_books())
            };
            let ann = AnnArtifact {
                content: Some(IvfIndex::build(closest.store(), &ivf)),
                cf: Some(IvfIndex::build_mips(&model.item_factors, &ivf)),
            };
            times.ivf_build = t.elapsed();
            let t = Instant::now();
            let quant = QuantArtifact::quantize(QuantMode::I8, model, Some(closest.store()));
            times.quantize = t.elapsed();
            (Some(ann), Some(quant))
        }
    };
    times.train = start.elapsed();
    Suite {
        bpr,
        most_read,
        closest,
        ann,
        quant,
    }
}

impl Suite {
    /// Publishes the suite as `epoch`, timing the save into `times`.
    pub fn publish(&self, registry: &ArtifactRegistry, epoch: u64, times: &mut StepTimes) {
        let t = Instant::now();
        registry
            .save(
                &Manifest {
                    epoch,
                    fields: SummaryFields::BEST,
                },
                self.bpr.model().expect("BPR fitted"),
                &self.most_read,
                self.closest.store(),
                self.ann.as_ref(),
                self.quant.as_ref(),
            )
            .unwrap_or_else(|e| panic!("cannot publish to {}: {e}", registry.dir().display()));
        times.save = t.elapsed();
    }
}

/// Generates the paper-preset corpus for [`CORPUS_SEED`] and splits it
/// exactly as [`Harness::generate`] does, timing the two steps.
fn make_harness(times: &mut StepTimes) -> Harness {
    let t = Instant::now();
    let corpus = rm_datagen::generate_corpus(CORPUS_SEED, Preset::Paper);
    times.datagen = t.elapsed();
    let t = Instant::now();
    let split = Split::of_corpus(
        &corpus,
        &SplitConfig {
            seed: derive_seed_str(CORPUS_SEED, "split"),
            ..SplitConfig::default()
        },
    );
    times.split = t.elapsed();
    Harness { corpus, split }
}

/// The serving configuration every serving workload uses: sources BPR,
/// Closest Items, Most Read; already-borrowed and diversity filters;
/// corpus genres; k = 10; one worker; the default 4 096-entry cache.
/// `governed` adds the default `OverloadConfig` (the burst probe only).
pub fn serving_config(genres: &Arc<BookGenres>, governed: bool) -> EngineConfig {
    let builder = EngineConfig::builder()
        .workers(1)
        .pipeline_sources(vec![
            ModelSlot::Bpr,
            ModelSlot::ClosestItems,
            ModelSlot::MostRead,
        ])
        .filter(Arc::new(AlreadyBorrowedFilter))
        .filter(Arc::new(DiversityCapFilter::new(DIVERSITY_CAP)))
        .book_genres(Arc::clone(genres));
    let builder = if governed {
        builder.overload(OverloadConfig::default())
    } else {
        builder
    };
    builder.build().expect("serving config is valid")
}

/// A serving workload's world after set-up.
pub struct World {
    /// Corpus and split.
    pub harness: Harness,
    /// The trained suite (republished by the browse workload).
    pub suite: Suite,
    /// Corpus genre lookup.
    pub genres: Arc<BookGenres>,
    /// The published registry.
    pub registry: ArtifactRegistry,
    /// The live engine.
    pub engine: ServingEngine,
    /// Last published epoch.
    pub epoch: u64,
    /// Step times of this set-up.
    pub times: StepTimes,
}

/// One serving set-up: corpus, split, training, publication, load.
///
/// Only the first set-up of a run trains; the later ones are given its
/// `suite` and skip training. The corpus and split come out the same
/// every time, so the trained artifacts would too.
pub fn serving_setup(retrieval: Retrieval, suite: Option<Suite>, dir: &Path) -> World {
    let mut times = StepTimes::default();
    let harness = make_harness(&mut times);
    let suite = suite.unwrap_or_else(|| train_suite(&harness, retrieval, &mut times));
    let genres = Arc::new(BookGenres::from_corpus(&harness.corpus));
    let _ = std::fs::remove_dir_all(dir);
    let registry = ArtifactRegistry::new(dir);
    suite.publish(&registry, 1, &mut times);
    let t = Instant::now();
    let engine = ServingEngine::load(
        &registry,
        &harness.split.train,
        serving_config(&genres, false),
    )
    .expect("engine loads the registry it was just given");
    times.engine_load = t.elapsed();
    check_engine(&engine, retrieval);
    World {
        harness,
        suite,
        genres,
        registry,
        engine,
        epoch: 1,
        times,
    }
}

/// The engine must serve every slot, on the requested retrieval path.
fn check_engine(engine: &ServingEngine, retrieval: Retrieval) {
    assert!(
        engine.degraded().is_empty(),
        "degraded slots: {:?}",
        engine.degraded()
    );
    let accelerated = retrieval == Retrieval::IvfI8;
    assert_eq!(
        engine.ann_cf_active(),
        accelerated,
        "{:?}",
        engine.ann_notes()
    );
    assert_eq!(
        engine.ann_content_active(),
        accelerated,
        "{:?}",
        engine.ann_notes()
    );
    assert_eq!(
        engine.quant_cf_active(),
        accelerated,
        "{:?}",
        engine.quant_notes()
    );
    assert_eq!(
        engine.quant_content_active(),
        accelerated,
        "{:?}",
        engine.quant_notes()
    );
}

impl World {
    /// Republishes the suite as the next epoch (untimed: publishing is
    /// the trainer's work) and reloads the engine, returning the reload
    /// time.
    pub fn republish_and_reload(&mut self) -> Duration {
        self.epoch += 1;
        let mut times = StepTimes::default();
        self.suite.publish(&self.registry, self.epoch, &mut times);
        self.reload()
    }

    /// Reloads the engine from the registry, returning the reload time.
    pub fn reload(&mut self) -> Duration {
        let t = Instant::now();
        self.engine
            .reload(&self.registry)
            .expect("reload of a freshly published registry");
        t.elapsed()
    }
}

/// Total bytes of the files in a registry directory.
pub fn registry_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Directory for this run's registries, under the working directory.
pub fn work_dir(workload: &str) -> PathBuf {
    PathBuf::from(".perfbench-work").join(format!("{workload}-{}", std::process::id()))
}
