//! Evaluation harness (Section 5) and experiment runners (Section 6).
//!
//! * [`split`] — the paper's per-user splits: for each BCT user 20 % of
//!   readings are held out as test, the remainder is split 80/20 into
//!   train/validation; Anobii users contribute train/validation only.
//! * [`metrics`] — the five KPIs: URR (Eq. 4), NRR (Eq. 5), Precision
//!   (Eq. 6), Recall (Eq. 7), and the Average First Rank position.
//! * [`groups`] — user grouping by training-history size (Fig. 4's
//!   equal-population bins).
//! * [`harness`] — end-to-end context: generate corpus → split → train,
//!   with the suite's one trainer ([`harness::TrainedSuite::train`]),
//!   whose per-model fit times are Table 2's training column.
//! * [`beyond`] — the beyond-accuracy metrics (diversity, novelty,
//!   serendipity, genre coverage) the paper names as future work.
//! * [`bootstrap`] — percentile bootstrap confidence intervals over users,
//!   including paired difference intervals for system comparisons.
//! * [`experiments`] — one runner per table/figure of the paper, each
//!   returning structured results plus a rendered report table.

pub mod beyond;
pub mod bootstrap;
pub mod experiments;
pub mod groups;
pub mod harness;
pub mod metrics;
pub mod split;

pub use metrics::{Kpis, UserCase};
pub use split::{Split, SplitConfig, SplitStrategy};
