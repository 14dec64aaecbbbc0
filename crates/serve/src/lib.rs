//! `rm-serve` — the offline-train / online-serve half of the library
//! recommender.
//!
//! The evaluation crates answer "which model is best?"; this crate
//! answers "how do the trained models face readers?". The lifecycle is:
//!
//! 1. **Train offline** (`reading-machine train --out DIR`): fit BPR,
//!    Most Read Items, and the catalogue embeddings, then persist them
//!    into an [`ArtifactRegistry`] directory with a manifest (epoch +
//!    summary fields).
//! 2. **Serve online**: [`ServingEngine::load`] restores the artifacts
//!    and serves [`ServingEngine::recommend`] /
//!    [`ServingEngine::recommend_batch`] requests through the candidate
//!    [`pipeline`] (provenance-stamped sources → merge/dedup → filters
//!    → rank), with the fallback chain (BPR → Closest Items → Most Read
//!    → Random) as the pipeline's terminal stage, a bounded LRU cache
//!    keyed by `(user, k, model_epoch)`, in-tree request metrics
//!    (latency quantiles, QPS, cache hit ratio, per-slot serve/fallback
//!    counts), and per-request explanations via
//!    [`ServingEngine::recommend_explained`].
//!
//! A corrupt or missing artifact never takes serving down — the slot
//! degrades, the chain skips it, and the metrics show the fall-throughs.
//! Runtime failures are contained the same way: every slot call, source
//! or terminal, runs inside one fault envelope — panic isolation with
//! optional per-slot deadline budgets — repeated
//! failures open a per-slot [circuit breaker](breaker), artifact
//! publication is atomic and lock-guarded, and `reload` can retry with
//! deterministic backoff while the old epoch keeps serving. The
//! `testing` feature adds a fault-injection harness (`fault`, compiled
//! out of default builds) that the chaos test suite and
//! `serve-bench --chaos` drive.
//!
//! Overload is handled at the edge rather than absorbed: an optional
//! [`overload`] governor puts a bounded admission queue (typed sheds:
//! queue-full, deadline-hopeless, CoDel) and a five-level brownout
//! ladder (full → drop expensive sources → skip filters → legacy
//! fallback → most-read only) in front of the pipeline, and
//! [`loadgen`] replays deterministic Zipf-skewed bursty traffic
//! against it for the standing `serve-bench --loadgen` SLO gate.

pub mod breaker;
pub mod cache;
pub mod engine;
#[cfg(feature = "testing")]
pub mod fault;
pub mod loadgen;
pub mod metrics;
pub mod overload;
pub mod pipeline;
pub mod registry;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cache::LruCache;
pub use engine::{EngineConfig, EngineConfigBuilder, ModelSlot, ServingEngine};
#[cfg(feature = "testing")]
pub use fault::{CallWindow, FaultPlan};
pub use loadgen::{ArrivalMode, LoadReport, LoadgenConfig, SloSpec};
pub use metrics::{ChunkStats, MetricsSnapshot, ServeMetrics};
pub use overload::{DegradationLevel, LevelTransition, OverloadConfig, ShedReason};
pub use pipeline::{Candidate, CandidateFilter, CandidateSource, PipelineConfig, Reason, SourceId};
pub use registry::{ArtifactRegistry, LoadedArtifacts, Manifest, RegistryLock, SlotError};
