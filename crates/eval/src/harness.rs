//! End-to-end experiment context: corpus → split → trained recommenders,
//! with wall-clock timing.
//!
//! Every experiment runner in [`crate::experiments`] starts from a
//! [`Harness`]; the heavyweight artefacts (the trained BPR model, the
//! encoded catalogue) are built once in [`TrainedSuite`] and shared.
//! [`TrainedSuite::train`] is the suite's one trainer and its
//! [`TrainedSuite::fit_times`] the one training timer: the `repro-*`
//! binaries, `reading-machine evaluate` and the loadgen smoke all fit
//! through it, and Table 2 reads its timings.

use crate::metrics::{test_cases, UserCase};
use crate::split::{Split, SplitConfig};
use rm_core::bpr::{Bpr, BprConfig};
use rm_core::closest::ClosestItems;
use rm_core::most_read::MostReadItems;
use rm_core::random::RandomItems;
use rm_core::Recommender;
use rm_datagen::Preset;
use rm_dataset::ids::UserIdx;
use rm_dataset::interactions::Interactions;
use rm_dataset::summary::SummaryFields;
use rm_dataset::Corpus;
use rm_embed::EncoderConfig;
use std::time::{Duration, Instant};

/// Corpus + split, the immutable context of one experiment campaign.
#[derive(Debug, Clone)]
pub struct Harness {
    /// The merged corpus.
    pub corpus: Corpus,
    /// The per-user split.
    pub split: Split,
}

impl Harness {
    /// Generates a synthetic corpus for `preset` and splits it with
    /// [`Harness::split_seeded`]. The single `seed` drives both stages
    /// (through independent derived streams).
    #[must_use]
    pub fn generate(seed: u64, preset: Preset) -> Self {
        Self::split_seeded(rm_datagen::generate_corpus(seed, preset), seed)
    }

    /// Splits `corpus` with the paper's fractions, shuffled from a stream
    /// derived from `seed`: a corpus generated with `seed` splits exactly
    /// as [`Harness::generate`] splits it, wherever it was read from.
    #[must_use]
    pub fn split_seeded(corpus: Corpus, seed: u64) -> Self {
        Self::from_corpus(
            corpus,
            &SplitConfig {
                seed: rm_util::rng::derive_seed_str(seed, "split"),
                ..SplitConfig::default()
            },
        )
    }

    /// Wraps an existing corpus.
    #[must_use]
    pub fn from_corpus(corpus: Corpus, split_config: &SplitConfig) -> Self {
        let split = Split::of_corpus(&corpus, split_config);
        Self { corpus, split }
    }

    /// The evaluation cases (BCT users with a test set), in the full
    /// corpus index space.
    #[must_use]
    pub fn test_cases(&self) -> Vec<UserCase<'_>> {
        test_cases(&self.split)
    }

    /// Training-history size of each evaluation case (aligned with
    /// [`Harness::test_cases`]).
    #[must_use]
    pub fn test_case_histories(&self) -> Vec<u64> {
        self.test_cases()
            .iter()
            .map(|c| self.split.train.seen(c.user).len() as u64)
            .collect()
    }

    /// Fits a recommender, returning the wall-clock training time.
    pub fn fit_timed(&self, rec: &mut dyn Recommender) -> Duration {
        let t0 = Instant::now();
        rec.fit(&self.split.train);
        t0.elapsed()
    }

    /// Mean per-user recommendation latency at list length `k`, over at
    /// most `sample` evaluation users.
    #[must_use]
    pub fn recommendation_time(&self, rec: &dyn Recommender, k: usize, sample: usize) -> Duration {
        let cases = self.test_cases();
        let users: Vec<UserIdx> = cases.iter().take(sample.max(1)).map(|c| c.user).collect();
        if users.is_empty() {
            return Duration::ZERO;
        }
        let t0 = Instant::now();
        for &u in &users {
            std::hint::black_box(rec.recommend(u, k));
        }
        t0.elapsed() / u32::try_from(users.len()).expect("sample fits u32")
    }

    /// Builds and fits the BCT-only BPR variant: training restricted to
    /// BCT users (renumbered), as in the paper's *BPR (BCT only)* row.
    /// Returns the model and the evaluation cases re-indexed into its
    /// local user space.
    #[must_use]
    pub fn bct_only_bpr(&self, config: BprConfig) -> (Bpr, Vec<UserCase<'_>>) {
        let bct_users = self.corpus.bct_users();
        let local_train: Interactions = self.split.train.select_users(&bct_users);
        let mut bpr = Bpr::new(config);
        bpr.fit(&local_train);
        let cases: Vec<UserCase<'_>> = bct_users
            .iter()
            .enumerate()
            .filter(|(_, u)| !self.split.test[u.index()].is_empty())
            .map(|(local, u)| UserCase {
                user: UserIdx(local as u32),
                test: &self.split.test[u.index()],
            })
            .collect();
        (bpr, cases)
    }
}

/// BPR at the paper's operating point: 15 epochs from an initialisation
/// seed derived from the run's `seed`, every other hyper-parameter at its
/// [`BprConfig::default`]. `reading-machine evaluate` fits it, and so do
/// the `repro-*` binaries at the paper preset, so both print the same
/// BPR row for the same corpus and split.
#[must_use]
pub fn paper_bpr_config(seed: u64) -> BprConfig {
    BprConfig {
        epochs: 15,
        seed: rm_util::rng::derive_seed_str(seed, "bpr"),
        ..BprConfig::default()
    }
}

/// The recommenders of Table 1, trained once and shared across
/// experiments.
pub struct TrainedSuite {
    /// Random Items baseline.
    pub random: RandomItems,
    /// Most Read Items baseline.
    pub most_read: MostReadItems,
    /// Closest Items (content-based) on the paper's best metadata summary.
    pub closest: ClosestItems,
    /// BPR (collaborative filtering).
    pub bpr: Bpr,
    /// Wall-clock training time of each, in suite order
    /// (random, most_read, closest, bpr). Closest Items' entry covers its
    /// catalogue encoding (`ClosestItems::from_corpus`) as well as `fit`.
    pub fit_times: [Duration; 4],
}

impl TrainedSuite {
    /// Trains the full suite, timing each model into
    /// [`TrainedSuite::fit_times`]. `fields` is the Closest Items metadata
    /// summary (the paper's best is authors+genres).
    #[must_use]
    pub fn train(
        harness: &Harness,
        bpr_config: BprConfig,
        fields: SummaryFields,
        seed: u64,
    ) -> Self {
        let mut random = RandomItems::new(rm_util::rng::derive_seed_str(seed, "random-rec"));
        let mut most_read = MostReadItems::new();
        let mut bpr = Bpr::new(bpr_config);
        let random_time = harness.fit_timed(&mut random);
        let most_read_time = harness.fit_timed(&mut most_read);
        let t0 = Instant::now();
        let mut closest =
            ClosestItems::from_corpus(&harness.corpus, fields, EncoderConfig::default());
        closest.fit(&harness.split.train);
        let closest_time = t0.elapsed();
        let bpr_time = harness.fit_timed(&mut bpr);
        Self {
            random,
            most_read,
            closest,
            bpr,
            fit_times: [random_time, most_read_time, closest_time, bpr_time],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_dataset::corpus::Source;

    fn harness() -> Harness {
        Harness::generate(11, Preset::Tiny)
    }

    #[test]
    fn generate_produces_consistent_context() {
        let h = harness();
        assert!(h.corpus.n_books() > 0, "tiny corpus should survive pruning");
        assert_eq!(h.split.n_users(), h.corpus.n_users());
        assert_eq!(h.split.n_books(), h.corpus.n_books());
        // Every test case belongs to a BCT user.
        for c in h.test_cases() {
            assert_eq!(h.corpus.users[c.user.index()].source, Source::Bct);
        }
    }

    #[test]
    fn histories_align_with_cases() {
        let h = harness();
        let cases = h.test_cases();
        let hist = h.test_case_histories();
        assert_eq!(cases.len(), hist.len());
        for (c, &n) in cases.iter().zip(&hist) {
            assert_eq!(h.split.train.seen(c.user).len() as u64, n);
        }
    }

    #[test]
    fn bct_only_variant_maps_users() {
        let h = harness();
        let (bpr, cases) = h.bct_only_bpr(BprConfig {
            factors: 4,
            epochs: 2,
            ..BprConfig::default()
        });
        assert!(!cases.is_empty());
        let n_bct = h.corpus.bct_users().len();
        for c in &cases {
            assert!(c.user.index() < n_bct);
            // Recommendations exist in the local space.
            let recs = bpr.recommend(c.user, 3);
            assert!(recs.len() <= 3);
        }
    }

    #[test]
    fn suite_trains_and_times() {
        let h = harness();
        let suite = TrainedSuite::train(
            &h,
            BprConfig {
                factors: 4,
                epochs: 2,
                ..BprConfig::default()
            },
            SummaryFields::BEST,
            7,
        );
        let cases = h.test_cases();
        let k = crate::metrics::evaluate(&suite.bpr, &cases, 5);
        assert!(k.n_users > 0);
        // Closest Items' entry includes the catalogue encoding.
        assert!(suite.fit_times[2] > Duration::ZERO);
        assert!(suite.fit_times[3] > Duration::ZERO);
        let latency = h.recommendation_time(&suite.closest, 5, 10);
        assert!(latency > Duration::ZERO);
    }
}
