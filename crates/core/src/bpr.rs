//! Bayesian Personalised Ranking matrix factorisation with WARP sampling
//! (Section 4, Eqs. 2–3; Rendle et al. 2012, Weston et al. 2011).
//!
//! The interaction matrix `I ∈ {0,1}^(U×B)` is factorised as `Ĩ = V·P` with
//! `V ∈ R^(U×L)`, `P ∈ R^(L×B)` (stored transposed, one row per book). The
//! pairwise objective prefers read books over unread ones; SGD pairs are
//! produced by the WARP scheme: for a positive `(u, i)`, unread books are
//! sampled until one outranks the positive within the margin, and the
//! update magnitude *decreases with the number of draws* — a violator found
//! immediately implies the positive is badly ranked and earns a full-size
//! step, a violator found after many draws earns a small one. The weight
//! is the WSABIE rank loss `Φ(rank̂) / Φ(B−1)` with `Φ(k) = Σ_{j≤k} 1/j`
//! and `rank̂ = ⌊(B−1)/trials⌋`, normalised so learning rates stay
//! comparable across catalogue sizes. A plain-BPR (sigmoid) update is
//! available for ablation via [`Loss::Bpr`].

use crate::{rank_by_scores, rank_by_scores_blocked_into, Recommender};
use rand::seq::SliceRandom;
use rand::RngExt;
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;
use rm_sparse::vecops::{dot, dot_ref};
use rm_sparse::DenseMatrix;
use rm_util::rng::SeedTree;

/// How WARP draws candidate negatives.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum NegativeSampling {
    /// Uniform over the catalogue (the textbook WARP choice).
    #[default]
    Uniform,
    /// Popularity-weighted: `P(j) ∝ readings(j)^alpha`. Focuses the
    /// pairwise comparisons on plausible negatives (popular books the
    /// user skipped), a standard implicit-feedback refinement.
    Popularity {
        /// Popularity exponent (0 = uniform over read books, 1 = raw
        /// popularity). Typical values 0.3–0.75.
        alpha: f64,
    },
}

/// Which pairwise update rule SGD applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Loss {
    /// WARP: hinge with rank-estimate weighting (the paper's choice).
    #[default]
    Warp,
    /// Plain BPR: sigmoid of the score difference, one negative per
    /// positive. Kept for the ablation benchmarks.
    Bpr,
}

/// BPR hyper-parameters. Defaults are the paper's selected operating point
/// (L = 20 latent factors, learning rate 0.2).
#[derive(Debug, Clone, PartialEq)]
pub struct BprConfig {
    /// Latent factors `L`.
    pub factors: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Passes over the positive interactions.
    pub epochs: usize,
    /// L2 regularisation λ_V of the user factors.
    pub reg_user: f32,
    /// L2 regularisation λ_P of the item factors.
    pub reg_item: f32,
    /// WARP hinge margin.
    pub margin: f32,
    /// Maximum negative draws per positive before giving up.
    pub max_trials: usize,
    /// Update rule.
    pub loss: Loss,
    /// Negative-candidate distribution.
    pub negative_sampling: NegativeSampling,
    /// Std-dev of the Gaussian factor initialisation (the zero-mean prior
    /// of Eq. 3).
    pub init_scale: f32,
    /// RNG seed (init + sampling).
    pub seed: u64,
}

impl Default for BprConfig {
    fn default() -> Self {
        Self {
            factors: 20,
            learning_rate: 0.2,
            epochs: 15,
            reg_user: 1e-4,
            reg_item: 1e-4,
            margin: 1.0,
            max_trials: 30,
            loss: Loss::Warp,
            negative_sampling: NegativeSampling::Uniform,
            init_scale: 0.1,
            seed: 42,
        }
    }
}

/// The trained factors.
#[derive(Debug, Clone, PartialEq)]
pub struct BprModel {
    /// User factors `V` (users × L).
    pub user_factors: DenseMatrix,
    /// Item factors `Pᵀ` (books × L).
    pub item_factors: DenseMatrix,
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Positives for which a violating negative was found (an update
    /// happened).
    pub updates: usize,
    /// Mean negative draws per positive.
    pub mean_trials: f64,
}

/// The BPR recommender.
#[derive(Debug, Clone)]
pub struct Bpr {
    config: BprConfig,
    model: Option<BprModel>,
    train: Option<Interactions>,
    epoch_stats: Vec<EpochStats>,
}

impl Bpr {
    /// Creates an unfitted recommender.
    #[must_use]
    pub fn new(config: BprConfig) -> Self {
        assert!(config.factors > 0, "factors must be positive");
        assert!(config.learning_rate > 0.0, "learning rate must be positive");
        assert!(config.max_trials > 0, "max_trials must be positive");
        Self {
            config,
            model: None,
            train: None,
            epoch_stats: Vec::new(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &BprConfig {
        &self.config
    }

    /// The trained model; `None` before [`Recommender::fit`].
    #[must_use]
    pub fn model(&self) -> Option<&BprModel> {
        self.model.as_ref()
    }

    /// The training matrix whose seen books recommendations exclude;
    /// `None` before [`Recommender::fit`] / [`Bpr::install`].
    #[must_use]
    pub fn train(&self) -> Option<&Interactions> {
        self.train.as_ref()
    }

    /// Per-epoch telemetry of the last fit.
    #[must_use]
    pub fn epoch_stats(&self) -> &[EpochStats] {
        &self.epoch_stats
    }

    /// Installs a previously trained model (see [`crate::persist`])
    /// together with the interactions used for seen-book exclusion.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn install(&mut self, model: BprModel, train: &Interactions) {
        assert_eq!(
            model.user_factors.rows(),
            train.n_users(),
            "user count mismatch"
        );
        assert_eq!(
            model.item_factors.rows(),
            train.n_books(),
            "book count mismatch"
        );
        assert_eq!(
            model.user_factors.cols(),
            model.item_factors.cols(),
            "factor mismatch"
        );
        self.model = Some(model);
        self.train = Some(train.clone());
    }

    fn model_ref(&self) -> &BprModel {
        self.model.as_ref().expect("Bpr::fit not called")
    }

    /// Both fitted references, or `None` before [`Recommender::fit`] /
    /// [`Bpr::install`]. The request-path trait methods degrade through
    /// this instead of panicking: an unfitted model on the serve path
    /// answers empty rather than poisoning a worker (the loud
    /// `model_ref` stays for offline callers, where aborting on a
    /// missing fit is the right contract).
    fn fitted(&self) -> Option<(&BprModel, &Interactions)> {
        Some((self.model.as_ref()?, self.train.as_ref()?))
    }

    /// Folds a *new* user into the trained factor space without
    /// retraining: gradient ascent on the BPR objective over the user's
    /// history with the item factors frozen — the standard production
    /// answer to "a reader who joined after the nightly training walks up
    /// to the kiosk". Deterministic given the model and history.
    ///
    /// Returns the synthesised user factor (length L).
    ///
    /// # Panics
    ///
    /// Panics if the model is unfitted or `seen` contains an out-of-range
    /// book.
    #[must_use]
    pub fn fold_in_user(&self, seen: &[u32]) -> Vec<f32> {
        let model = self.model_ref();
        let n_books = model.item_factors.rows();
        let l = model.user_factors.cols();
        assert!(
            seen.iter().all(|&b| (b as usize) < n_books),
            "history references an unknown book"
        );
        let mut vu = vec![0.0f32; l];
        if seen.is_empty() {
            return vu;
        }
        // Warm start: mean of the history's item factors (the projection
        // a linear model would use), then a few BPR epochs against
        // deterministically-strided negatives.
        for &b in seen {
            rm_sparse::vecops::axpy(
                1.0 / seen.len() as f32,
                model.item_factors.row(b as usize),
                &mut vu,
            );
        }
        let seen_sorted: Vec<u32> = {
            let mut s = seen.to_vec();
            s.sort_unstable();
            s.dedup();
            s
        };
        // A reader who has seen the whole catalogue leaves no negatives
        // to rank against: the warm start is the best available answer.
        if seen_sorted.len() >= n_books {
            return vu;
        }
        let lr = self.config.learning_rate;
        let reg = self.config.reg_user;
        // Golden-ratio stride visits negatives in a scattered, seed-free,
        // deterministic order.
        let stride = ((n_books as f64 * 0.618_033_988_75) as usize).max(1);
        let mut j_cursor = 0usize;
        for _ in 0..self.config.epochs.max(5) {
            for &i in &seen_sorted {
                // Next unseen negative.
                let j = loop {
                    j_cursor = (j_cursor + stride) % n_books;
                    if seen_sorted.binary_search(&(j_cursor as u32)).is_err() {
                        break j_cursor;
                    }
                };
                let pi = model.item_factors.row(i as usize);
                let pj = model.item_factors.row(j);
                let x = dot(&vu, pi) - dot(&vu, pj);
                let g = (1.0 / (1.0 + f64::from(x).exp())) as f32;
                for f in 0..l {
                    vu[f] += lr * (g * (pi[f] - pj[f]) - reg * vu[f]);
                }
            }
        }
        vu
    }

    /// Top-`k` books for a user who is *not* in the training matrix, given
    /// only their reading history (fold-in serving).
    #[must_use]
    pub fn recommend_for_history(&self, seen: &[u32], k: usize) -> Vec<u32> {
        let model = self.model_ref();
        let vu = self.fold_in_user(seen);
        let scores = model.item_factors.matvec(&vu);
        let mut sorted_seen = seen.to_vec();
        sorted_seen.sort_unstable();
        sorted_seen.dedup();
        crate::rank_by_scores(model.item_factors.rows(), &sorted_seen, k, |b| {
            scores[b as usize]
        })
    }

    /// Harmonic number `Φ(k)` (exact below 32, asymptotic above).
    fn harmonic(k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        if k < 32 {
            (1..=k).map(|j| 1.0 / j as f64).sum()
        } else {
            let k = k as f64;
            k.ln() + 0.577_215_664_901_532_9 + 1.0 / (2.0 * k)
        }
    }
}

impl Recommender for Bpr {
    fn name(&self) -> &str {
        match self.config.loss {
            Loss::Warp => "BPR",
            Loss::Bpr => "BPR (sigmoid)",
        }
    }

    #[allow(clippy::too_many_lines)]
    fn fit(&mut self, train: &Interactions) {
        let n_users = train.n_users();
        let n_books = train.n_books();
        assert!(n_books >= 2, "BPR needs at least two books");
        let l = self.config.factors;
        let tree = SeedTree::new(self.config.seed);

        let mut init_rng = tree.child("init").rng();
        let mut user_factors =
            DenseMatrix::gaussian(n_users, l, self.config.init_scale, &mut init_rng);
        let mut item_factors =
            DenseMatrix::gaussian(n_books, l, self.config.init_scale, &mut init_rng);

        // Positive pairs.
        let mut positives: Vec<(u32, u32)> = Vec::with_capacity(train.nnz());
        for u in 0..n_users {
            for &b in train.seen(UserIdx(u as u32)) {
                positives.push((u as u32, b));
            }
        }

        let lr = self.config.learning_rate;
        let margin = self.config.margin;
        let reg_u = self.config.reg_user;
        let reg_i = self.config.reg_item;
        let phi_max = Self::harmonic(n_books - 1);
        let mut vu_old = vec![0.0f32; l];
        self.epoch_stats.clear();

        // Optional popularity-weighted negative sampler. Add-one smoothing
        // keeps never-read books reachable as negatives.
        let negative_table = match self.config.negative_sampling {
            NegativeSampling::Uniform => None,
            NegativeSampling::Popularity { alpha } => {
                let counts = train.book_counts();
                let weights: Vec<f64> = counts
                    .iter()
                    .map(|&c| ((c + 1) as f64).powf(alpha))
                    .collect();
                Some(rm_util::sample::AliasTable::new(&weights))
            }
        };

        // O(1) negative-membership test for heavy readers. Every draw asks
        // "has u read j?"; the binary search over a power user's history is
        // the dominant per-draw cost, so users past the threshold get a
        // bitset (one load + mask). Light users keep the search — their
        // histories are a cache line or two.
        const HEAVY_READER_THRESHOLD: usize = 64;
        let words = n_books.div_ceil(64);
        let heavy_bits: Vec<Option<Box<[u64]>>> = (0..n_users)
            .map(|u| {
                let seen = train.seen(UserIdx(u as u32));
                (seen.len() >= HEAVY_READER_THRESHOLD).then(|| {
                    let mut bits = vec![0u64; words].into_boxed_slice();
                    for &b in seen {
                        bits[(b as usize) >> 6] |= 1u64 << (b & 63);
                    }
                    bits
                })
            })
            .collect();
        let is_read = |u: u32, j: u32| match &heavy_bits[u as usize] {
            Some(bits) => bits[(j as usize) >> 6] & (1u64 << (j & 63)) != 0,
            None => train.contains(UserIdx(u), BookIdx(j)),
        };

        for epoch in 0..self.config.epochs {
            let mut rng = tree.child("epoch").child_idx(epoch as u64).rng();
            positives.shuffle(&mut rng);
            let mut updates = 0usize;
            let mut total_trials = 0usize;

            for &(u, i) in &positives {
                // The user row is borrowed once for the whole trial loop
                // (it is only mutated after sampling finishes), and the
                // positive's score is computed once per positive — each
                // draw pays one bitset/search probe plus one dot.
                //
                // Training scores stay on the scalar reference chain
                // (`dot_ref`): WARP's margin test compares scores that are
                // often ulps apart, so switching the reduction order flips
                // occasional comparisons and 15 epochs of SGD amplify each
                // flip chaotically — the fitted model (and the golden Table 1
                // KPIs pinned on it) would silently drift. The unrolled
                // kernels take over after fit, where scores feed rankings
                // rather than feedback loops.
                let vu_row = user_factors.row(u as usize);
                let score_i = dot_ref(vu_row, item_factors.row(i as usize));
                let mut trials = 0usize;
                let (j, score_j) = loop {
                    if trials >= self.config.max_trials {
                        break (u32::MAX, 0.0);
                    }
                    let j = match &negative_table {
                        None => rng.random_range(0..n_books as u32),
                        Some(table) => table.sample(&mut rng) as u32,
                    };
                    if is_read(u, j) {
                        continue;
                    }
                    trials += 1;
                    let score_j = dot_ref(vu_row, item_factors.row(j as usize));
                    // Plain BPR updates on every sampled negative; WARP
                    // keeps searching for a margin violator.
                    if matches!(self.config.loss, Loss::Bpr) || score_j > score_i - margin {
                        break (j, score_j);
                    }
                };
                total_trials += trials.max(1);
                if j == u32::MAX {
                    continue;
                }

                let weight = match self.config.loss {
                    Loss::Warp => {
                        // Estimated rank of the positive from the number of
                        // draws needed to find a violator.
                        let rank = ((n_books - 1) / trials).max(1);
                        (Self::harmonic(rank) / phi_max) as f32
                    }
                    Loss::Bpr => {
                        // Sigmoid of the (negative) score difference.
                        let x = score_i - score_j;
                        (1.0 / (1.0 + x.exp() as f64)) as f32
                    }
                };

                let vu = user_factors.row_mut(u as usize);
                vu_old.copy_from_slice(vu);
                {
                    let (pi, pj) = item_factors.two_rows_mut(i as usize, j as usize);
                    // v_u += lr (w (p_i − p_j) − λ_V v_u)
                    for f in 0..l {
                        vu[f] += lr * (weight * (pi[f] - pj[f]) - reg_u * vu[f]);
                    }
                    // p_i += lr (w v_u − λ_P p_i); p_j −= lr (w v_u + λ_P p_j)
                    for f in 0..l {
                        pi[f] += lr * (weight * vu_old[f] - reg_i * pi[f]);
                        pj[f] += lr * (-weight * vu_old[f] - reg_i * pj[f]);
                    }
                }
                updates += 1;
            }

            self.epoch_stats.push(EpochStats {
                updates,
                mean_trials: if positives.is_empty() {
                    0.0
                } else {
                    total_trials as f64 / positives.len() as f64
                },
            });
        }

        self.model = Some(BprModel {
            user_factors,
            item_factors,
        });
        self.train = Some(train.clone());
    }

    fn score(&self, user: UserIdx, book: BookIdx) -> f32 {
        let Some((m, _)) = self.fitted() else {
            return 0.0;
        };
        dot(
            m.user_factors.row(user.index()),
            m.item_factors.row(book.index()),
        )
    }

    fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32> {
        let Some((m, train)) = self.fitted() else {
            return Vec::new();
        };
        let scores = m.item_factors.matvec(m.user_factors.row(user.index()));
        rank_by_scores(train.n_books(), train.seen(user), k, |b| scores[b as usize])
    }

    fn recommend_batch_into(&self, users: &[UserIdx], k: usize, out: &mut Vec<Vec<u32>>) {
        let Some((m, train)) = self.fitted() else {
            out.clear();
            out.resize_with(users.len(), Vec::new);
            return;
        };
        // Every user has a factor row; the shared blocked loop scores four
        // of them per pass over the item factors.
        rank_by_scores_blocked_into(
            users,
            train,
            k,
            |u, query| {
                query.clear();
                query.extend_from_slice(m.user_factors.row(u.index()));
                true
            },
            |queries, scores| m.item_factors.matvec_block_into(queries, scores),
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_util::rng::rng_from_seed;

    /// Two disjoint co-reading communities: users 0–9 read books 0–4,
    /// users 10–19 read books 5–9, each user missing one book of their
    /// community — CF must recommend the held-out community book first.
    fn community_train() -> (Interactions, Vec<(UserIdx, u32)>) {
        let mut pairs = Vec::new();
        let mut holdouts = Vec::new();
        for u in 0..20u32 {
            let base = if u < 10 { 0u32 } else { 5 };
            let holdout = base + (u % 5);
            for b in base..base + 5 {
                if b != holdout {
                    pairs.push((UserIdx(u), BookIdx(b)));
                }
            }
            holdouts.push((UserIdx(u), holdout));
        }
        (Interactions::from_pairs(20, 10, &pairs), holdouts)
    }

    fn quick_config() -> BprConfig {
        BprConfig {
            factors: 8,
            epochs: 30,
            learning_rate: 0.1,
            ..BprConfig::default()
        }
    }

    #[test]
    fn learns_community_structure() {
        let (train, holdouts) = community_train();
        let mut bpr = Bpr::new(quick_config());
        bpr.fit(&train);
        // Top-2 of the six unseen books (chance ≈ 1/3 per user): exact
        // first place swings with the init stream, community membership
        // does not.
        let mut hits = 0;
        for &(u, holdout) in &holdouts {
            if bpr.recommend(u, 2).contains(&holdout) {
                hits += 1;
            }
        }
        assert!(hits >= 17, "only {hits}/20 holdouts ranked in the top-2");
    }

    #[test]
    fn fit_is_deterministic() {
        let (train, _) = community_train();
        let mut a = Bpr::new(quick_config());
        let mut b = Bpr::new(quick_config());
        a.fit(&train);
        b.fit(&train);
        assert_eq!(a.model(), b.model());
        let mut c = Bpr::new(BprConfig {
            seed: 99,
            ..quick_config()
        });
        c.fit(&train);
        assert_ne!(a.model(), c.model());
    }

    #[test]
    fn recommendations_exclude_seen() {
        let (train, _) = community_train();
        let mut bpr = Bpr::new(quick_config());
        bpr.fit(&train);
        for u in 0..20u32 {
            let recs = bpr.rank_all(UserIdx(u));
            let seen = train.seen(UserIdx(u));
            assert_eq!(recs.len(), 10 - seen.len());
            for s in seen {
                assert!(!recs.contains(s));
            }
        }
    }

    #[test]
    fn sigmoid_loss_also_learns() {
        let (train, holdouts) = community_train();
        let mut bpr = Bpr::new(BprConfig {
            loss: Loss::Bpr,
            ..quick_config()
        });
        bpr.fit(&train);
        let hits = holdouts
            .iter()
            .filter(|&&(u, h)| bpr.recommend(u, 2).contains(&h))
            .count();
        assert!(hits >= 14, "sigmoid loss: {hits}/20 holdouts in top-2");
    }

    #[test]
    fn mean_trials_grow_as_model_fits() {
        // Once positives outrank most negatives, WARP needs more draws to
        // find a violator.
        let (train, _) = community_train();
        let mut bpr = Bpr::new(quick_config());
        bpr.fit(&train);
        let stats = bpr.epoch_stats();
        assert!(stats.last().unwrap().mean_trials > stats[0].mean_trials);
    }

    #[test]
    fn scores_separate_positives_from_negatives() {
        let (train, _) = community_train();
        let mut bpr = Bpr::new(quick_config());
        bpr.fit(&train);
        let mut rng = rng_from_seed(5);
        let mut correct = 0;
        let n = 200;
        for _ in 0..n {
            let u = rng.random_range(0..20u32);
            let seen = train.seen(UserIdx(u));
            let i = seen[rng.random_range(0..seen.len())];
            let j = loop {
                let j = rng.random_range(0..10u32);
                if !train.contains(UserIdx(u), BookIdx(j)) {
                    break j;
                }
            };
            if bpr.score(UserIdx(u), BookIdx(i)) > bpr.score(UserIdx(u), BookIdx(j)) {
                correct += 1;
            }
        }
        // AUC-style check: read books outrank unread ones nearly always.
        assert!(correct as f64 / f64::from(n) > 0.9, "AUC {correct}/{n}");
    }

    #[test]
    fn batch_matches_single_calls() {
        let (train, _) = community_train();
        let mut bpr = Bpr::new(quick_config());
        bpr.fit(&train);
        let users: Vec<UserIdx> = (0..20).map(UserIdx).collect();
        for k in [1usize, 3, usize::MAX] {
            let batch = bpr.recommend_batch(&users, k);
            assert_eq!(batch.len(), users.len());
            for (&u, got) in users.iter().zip(&batch) {
                assert_eq!(got, &bpr.recommend(u, k), "user {u:?} k {k}");
            }
        }
    }

    #[test]
    fn batch_into_reuses_ranking_pool() {
        // Passing the same pool across batches must refill the inner
        // buffers in place — the eval harness relies on this for its
        // no-per-user-allocation guarantee.
        let (train, _) = community_train();
        let mut bpr = Bpr::new(quick_config());
        bpr.fit(&train);
        let users: Vec<UserIdx> = (0..20).map(UserIdx).collect();
        let mut pool: Vec<Vec<u32>> = Vec::new();
        bpr.recommend_batch_into(&users, usize::MAX, &mut pool);
        let ptrs: Vec<*const u32> = pool.iter().map(|v| v.as_ptr()).collect();
        let first: Vec<Vec<u32>> = pool.clone();
        bpr.recommend_batch_into(&users, usize::MAX, &mut pool);
        assert_eq!(pool, first, "second batch must answer identically");
        for (i, v) in pool.iter().enumerate() {
            assert_eq!(v.as_ptr(), ptrs[i], "ranking buffer {i} reallocated");
        }
    }

    #[test]
    fn install_round_trip() {
        let (train, _) = community_train();
        let mut bpr = Bpr::new(quick_config());
        bpr.fit(&train);
        let model = bpr.model().unwrap().clone();
        let mut fresh = Bpr::new(quick_config());
        fresh.install(model, &train);
        assert_eq!(bpr.recommend(UserIdx(3), 5), fresh.recommend(UserIdx(3), 5));
    }

    #[test]
    #[should_panic(expected = "user count mismatch")]
    fn install_rejects_mismatch() {
        let (train, _) = community_train();
        let mut bpr = Bpr::new(quick_config());
        bpr.fit(&train);
        let model = bpr.model().unwrap().clone();
        let other = Interactions::from_pairs(3, 10, &[]);
        let mut fresh = Bpr::new(quick_config());
        fresh.install(model, &other);
    }

    #[test]
    fn popularity_negative_sampling_also_learns() {
        let (train, holdouts) = community_train();
        let mut bpr = Bpr::new(BprConfig {
            negative_sampling: NegativeSampling::Popularity { alpha: 0.5 },
            ..quick_config()
        });
        bpr.fit(&train);
        let hits = holdouts
            .iter()
            .filter(|&&(u, h)| bpr.recommend(u, 2).contains(&h))
            .count();
        assert!(
            hits >= 14,
            "popularity sampling: {hits}/20 holdouts in top-2"
        );
    }

    #[test]
    fn sampling_strategies_produce_different_models() {
        let (train, _) = community_train();
        let mut uniform = Bpr::new(quick_config());
        let mut pop = Bpr::new(BprConfig {
            negative_sampling: NegativeSampling::Popularity { alpha: 1.0 },
            ..quick_config()
        });
        uniform.fit(&train);
        pop.fit(&train);
        assert_ne!(uniform.model(), pop.model());
    }

    #[test]
    fn fold_in_matches_in_matrix_user_quality() {
        // Fold in a user whose history equals an existing user's training
        // set: the fold-in recommendations should hit the same holdout.
        let (train, holdouts) = community_train();
        let mut bpr = Bpr::new(quick_config());
        bpr.fit(&train);
        let mut hits = 0;
        for &(u, holdout) in &holdouts {
            let recs = bpr.recommend_for_history(train.seen(u), 2);
            assert_eq!(recs.len(), 2);
            assert!(recs.iter().all(|b| train.seen(u).binary_search(b).is_err()));
            if recs.contains(&holdout) {
                hits += 1;
            }
        }
        assert!(hits >= 15, "fold-in hit {hits}/20 holdouts");
    }

    #[test]
    fn fold_in_is_deterministic() {
        let (train, _) = community_train();
        let mut bpr = Bpr::new(quick_config());
        bpr.fit(&train);
        let history = [0u32, 1, 2];
        assert_eq!(bpr.fold_in_user(&history), bpr.fold_in_user(&history));
        assert_eq!(
            bpr.recommend_for_history(&history, 3),
            bpr.recommend_for_history(&history, 3)
        );
    }

    #[test]
    fn fold_in_empty_history_is_zero_vector() {
        let (train, _) = community_train();
        let mut bpr = Bpr::new(quick_config());
        bpr.fit(&train);
        assert!(bpr.fold_in_user(&[]).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fold_in_full_catalogue_history_terminates() {
        let (train, _) = community_train();
        let mut bpr = Bpr::new(quick_config());
        bpr.fit(&train);
        let everything: Vec<u32> = (0..10).collect();
        // Must not hang; no negatives exist, so only the warm start runs
        // and no recommendation remains.
        let vu = bpr.fold_in_user(&everything);
        assert!(vu.iter().any(|&v| v != 0.0));
        assert!(bpr.recommend_for_history(&everything, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown book")]
    fn fold_in_rejects_out_of_range() {
        let (train, _) = community_train();
        let mut bpr = Bpr::new(quick_config());
        bpr.fit(&train);
        let _ = bpr.fold_in_user(&[999]);
    }

    #[test]
    fn harmonic_values() {
        assert_eq!(Bpr::harmonic(0), 0.0);
        assert!((Bpr::harmonic(1) - 1.0).abs() < 1e-12);
        assert!((Bpr::harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
        // Asymptotic branch close to exact.
        let exact: f64 = (1..=100).map(|j| 1.0 / j as f64).sum();
        assert!((Bpr::harmonic(100) - exact).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "at least two books")]
    fn single_book_catalog_rejected() {
        let train = Interactions::from_pairs(1, 1, &[(UserIdx(0), BookIdx(0))]);
        Bpr::new(quick_config()).fit(&train);
    }
}
