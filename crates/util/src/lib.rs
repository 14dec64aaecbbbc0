//! Shared plumbing for the `reading-machine` workspace.
//!
//! This crate collects the small, dependency-free building blocks every other
//! crate needs:
//!
//! * [`rng`] — seeded, splittable random-number generation so that every
//!   stochastic stage of the pipeline is reproducible from a single `u64`;
//! * [`clock`] — a monotonic clock abstraction (real and fake), request
//!   deadlines, and deterministic retry backoff, used by the serving
//!   layer's fault-tolerance machinery;
//! * [`sample`] — discrete sampling machinery (Walker alias tables, Zipf and
//!   log-normal samplers) used by the synthetic data generators and by the
//!   WARP negative sampler;
//! * [`stats`] — descriptive statistics (Shannon entropy, empirical CDFs,
//!   latency histograms) used by the genre-aggregation pipeline, the
//!   experiment harness and the serving metrics;
//! * [`topk`] — deterministic top-k selection of scored items, the common
//!   last step of every recommender;
//! * [`report`] — minimal ASCII-table and CSV rendering for experiment
//!   output, so the benchmark harness has no external formatting
//!   dependencies;
//! * [`trace`] — a bounded, structured span/event log (JSONL drain,
//!   deterministic under a fake clock) the serving and training
//!   pipelines use for observability;
//! * [`error`] — [`RecError`], the single error enum every fallible
//!   public API in the workspace returns.

pub mod clock;
pub mod error;
pub mod report;
pub mod rng;
pub mod sample;
pub mod stats;
pub mod topk;
pub mod trace;

pub use clock::{Backoff, Clock, Deadline, FakeClock, MonotonicClock};
pub use error::RecError;
pub use rng::SeedableStdRng;
pub use topk::TopK;
pub use trace::{TraceEvent, Tracer};
