//! Facade crate: one `use reading_machine::prelude::*` pulls in the whole
//! pipeline — synthetic data generation, dataset preparation, the
//! recommender suite, and the evaluation harness.
//!
//! ```
//! use reading_machine::prelude::*;
//!
//! // A small end-to-end run: generate → split → train → evaluate.
//! let harness = Harness::generate(42, Preset::Tiny);
//! let mut bpr = Bpr::new(BprConfig { epochs: 3, factors: 4, ..BprConfig::default() });
//! harness.fit_timed(&mut bpr);
//! let kpis = evaluate(&bpr, &harness.test_cases(), 10);
//! assert!(kpis.urr >= 0.0 && kpis.urr <= 1.0);
//! ```

/// The commonly-used types and functions of every layer.
pub mod prelude {
    pub use rm_core::bpr::{Bpr, BprConfig, Loss};
    pub use rm_core::closest::ClosestItems;
    pub use rm_core::grid::GridSearch;
    pub use rm_core::hybrid::Blend;
    pub use rm_core::item_knn::{ItemKnn, ItemKnnConfig};
    pub use rm_core::markov::{SequentialConfig, SequentialItems};
    pub use rm_core::most_read::MostReadItems;
    pub use rm_core::random::RandomItems;
    pub use rm_core::Recommender;
    pub use rm_datagen::{GeneratorConfig, Preset};
    pub use rm_dataset::ids::{BookIdx, UserIdx};
    pub use rm_dataset::interactions::Interactions;
    pub use rm_dataset::summary::SummaryFields;
    pub use rm_dataset::{Book, Corpus, Source, User};
    pub use rm_embed::{EmbeddingStore, EncoderConfig, SemanticEncoder};
    pub use rm_eval::bootstrap::{bootstrap_ci, paired_difference_ci, Metric, PerUserStats};
    pub use rm_eval::harness::{Harness, TrainedSuite};
    pub use rm_eval::metrics::{evaluate, evaluate_at, Kpis, UserCase};
    pub use rm_eval::{Split, SplitConfig, SplitStrategy};
    pub use rm_serve::engine::{EngineConfig, EngineConfigBuilder, ModelSlot, ServingEngine};
    pub use rm_serve::loadgen::{ArrivalMode, LoadReport, LoadgenConfig, SloSpec};
    pub use rm_serve::overload::{DegradationLevel, OverloadConfig, ShedReason};
    pub use rm_serve::pipeline::{BookGenres, Candidate, PipelineConfig, Reason, SourceId};
    pub use rm_serve::registry::{ArtifactRegistry, Manifest};
    pub use rm_util::RecError;
}

pub use rm_core as core;
pub use rm_datagen as datagen;
pub use rm_dataset as dataset;
pub use rm_embed as embed;
pub use rm_eval as eval;
pub use rm_serve as serve;
pub use rm_sparse as sparse;
pub use rm_util as util;
