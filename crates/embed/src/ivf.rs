//! Deterministic IVF (inverted-file) approximate nearest-neighbour index.
//!
//! The sub-linear retrieval layer of ROADMAP item 2: a seeded spherical
//! k-means coarse quantizer partitions the catalogue into `nlist`
//! posting lists; a query ranks the centroids, scans only the `nprobe`
//! best lists, and re-scores those candidates *exactly* with the same
//! kernels the brute-force paths use. Recall is tunable through
//! `nprobe`, and `nprobe = nlist` degenerates to the exact scan
//! bit-for-bit (the candidate set becomes the whole catalogue and
//! [`rm_util::TopK`]'s strict total order makes top-k selection
//! insertion-order independent).
//!
//! Determinism guarantees, in the workspace's usual terms:
//!
//! * centroid init draws from [`rng_from_seed`](rm_util::rng::rng_from_seed)`(`[`derive_seed`]`(seed,
//!   …))` streams — two builds from the same rows and config are
//!   identical;
//! * k-means runs a *fixed* iteration count over a stride-sampled
//!   training subset (no convergence test, no data-dependent stopping);
//! * posting lists live in a `BTreeMap` and are filled in ascending
//!   item order, so iteration order — and therefore candidate emission
//!   and the persisted artifact bytes — never depends on hash state.
//!
//! Two retrieval modes share the structure:
//!
//! * **Cosine** ([`IvfIndex::build`]) over an [`EmbeddingStore`]'s unit
//!   rows — the content-similar path;
//! * **Max-inner-product** ([`IvfIndex::build_mips`]) over BPR item
//!   factors via the augmented-dimension reduction: each row `x` gains
//!   a coordinate `sqrt(M² − ‖x‖²)` (`M` = max row norm), making every
//!   augmented row the same length, so cosine order among augmented
//!   rows equals inner-product order among the originals. A query `q`
//!   needs *no* augmentation — its extra coordinate would be zero — so
//!   centroids are probed with `dot(q, centroid[..L])` and candidates
//!   are re-scored with the caller's raw `dot(q, x)`, keeping
//!   `nprobe = nlist` bit-identical to the exact BPR scan.

use crate::store::EmbeddingStore;
use rm_sparse::vecops::{axpy, dot, normalize, scale};
use rm_sparse::DenseMatrix;
use rm_util::rng::derive_seed;
use rm_util::topk::TopK;
use std::collections::BTreeMap;

/// Seed-stream label for centroid initialisation.
const SEED_INIT: u64 = 0x6976_665F_696E_6974; // "ivf_init"

/// Build-time configuration for an [`IvfIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfConfig {
    /// Number of coarse clusters (posting lists). Clamped to the item
    /// count at build time.
    pub nlist: usize,
    /// Fixed k-means iteration count (no convergence test, so builds
    /// are deterministic and their cost is predictable).
    pub iters: usize,
    /// Seed of the centroid-initialisation stream.
    pub seed: u64,
    /// Maximum items the k-means iterations train on; the full
    /// catalogue is still assigned to lists afterwards. `0` trains on
    /// everything. Sampling is a deterministic stride, not a draw.
    pub train_sample: usize,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self {
            nlist: 64,
            iters: 6,
            seed: 0xA11C_E5ED,
            train_sample: 100_000,
        }
    }
}

impl IvfConfig {
    /// The default tuning for a catalogue of `n_items`: `nlist ≈ √n`
    /// (the classic IVF balance point between probe cost and list
    /// length), everything else as [`IvfConfig::default`].
    #[must_use]
    pub fn for_catalogue(n_items: usize) -> Self {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let nlist = ((n_items as f64).sqrt() as usize).max(1);
        Self {
            nlist,
            ..Self::default()
        }
    }
}

/// Reusable buffers for [`IvfIndex::search_into`]: once grown to steady
/// state, a search allocates nothing.
#[derive(Debug)]
pub struct IvfScratch {
    probes: TopK,
    probe_order: Vec<u32>,
    top: TopK,
}

impl IvfScratch {
    /// Fresh (empty) scratch.
    #[must_use]
    pub fn new() -> Self {
        Self {
            probes: TopK::new(1),
            probe_order: Vec::new(),
            top: TopK::new(1),
        }
    }
}

impl Default for IvfScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Row access shared by the build paths (an embedding store's unit rows
/// or an augmented factor matrix).
trait Rows {
    fn n(&self) -> usize;
    fn dim(&self) -> usize;
    fn row(&self, i: usize) -> &[f32];
}

impl Rows for EmbeddingStore {
    fn n(&self) -> usize {
        self.len()
    }
    fn dim(&self) -> usize {
        EmbeddingStore::dim(self)
    }
    fn row(&self, i: usize) -> &[f32] {
        self.embedding(i)
    }
}

impl Rows for DenseMatrix {
    fn n(&self) -> usize {
        self.rows()
    }
    fn dim(&self) -> usize {
        self.cols()
    }
    fn row(&self, i: usize) -> &[f32] {
        DenseMatrix::row(self, i)
    }
}

/// A built IVF index: unit centroids plus ordered posting lists.
///
/// The index stores *no vectors* — only the partition. Searches
/// re-score candidates through a caller-supplied closure against the
/// original data, which is what makes the `nprobe = nlist`
/// exact-equivalence guarantee possible: the approximate path and the
/// brute-force path run the very same scoring kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct IvfIndex {
    /// `nlist × dim` coarse centroids, unit rows (a centroid that never
    /// owned an item stays zero and owns no posting list).
    centroids: DenseMatrix,
    /// Posting lists: centroid id → item ids in ascending order. Only
    /// non-empty lists are present; together they partition
    /// `0..n_items`.
    lists: BTreeMap<u32, Vec<u32>>,
    /// Number of indexed items.
    n_items: u32,
}

impl IvfIndex {
    /// Builds a cosine IVF index over the store's (unit) embedding rows.
    #[must_use]
    pub fn build(store: &EmbeddingStore, config: &IvfConfig) -> Self {
        Self::build_rows(store, config)
    }

    /// Builds a max-inner-product IVF index over BPR item factors via
    /// the augmented-dimension MIPS→cosine reduction. The returned
    /// index has `dim() == item_factors.cols() + 1`; probe it with the
    /// *unaugmented* user factor (its extra coordinate would be zero)
    /// and re-score candidates with the raw `dot` against the original
    /// factors.
    #[must_use]
    pub fn build_mips(item_factors: &DenseMatrix, config: &IvfConfig) -> Self {
        let n = item_factors.rows();
        let l = item_factors.cols();
        let mut max_sq = 0.0f32;
        for i in 0..n {
            let r = item_factors.row(i);
            max_sq = max_sq.max(dot(r, r));
        }
        let mut aug = DenseMatrix::zeros(n, l + 1);
        for i in 0..n {
            let src = item_factors.row(i);
            let row = aug.row_mut(i);
            row[..l].copy_from_slice(src);
            row[l] = (max_sq - dot(src, src)).max(0.0).sqrt();
            normalize(row);
        }
        Self::build_rows(&aug, config)
    }

    fn build_rows(rows: &impl Rows, config: &IvfConfig) -> Self {
        let n = rows.n();
        let dim = rows.dim();
        if n == 0 {
            return Self {
                centroids: DenseMatrix::zeros(0, dim),
                lists: BTreeMap::new(),
                n_items: 0,
            };
        }
        // Deterministic stride sample for the k-means iterations; the
        // final assignment pass still covers every item.
        let sample: Vec<u32> = if config.train_sample == 0 || n <= config.train_sample {
            (0..n as u32).collect()
        } else {
            let step = n / config.train_sample;
            (0..config.train_sample as u32)
                .map(|i| i * step as u32)
                .collect()
        };
        let nlist = config.nlist.clamp(1, sample.len());

        // Seeded init: nlist distinct sample rows become the starting
        // centroids. Picks come from the SplitMix64 [`derive_seed`]
        // stream (re-draws on collision), so the choice depends only on
        // the seed and the sample size.
        let init_seed = derive_seed(config.seed, SEED_INIT);
        let mut chosen: Vec<u32> = Vec::with_capacity(nlist);
        let mut draw = 0u64;
        while chosen.len() < nlist {
            let pick = sample[(derive_seed(init_seed, draw) % sample.len() as u64) as usize];
            draw += 1;
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        let mut centroids = DenseMatrix::zeros(nlist, dim);
        for (c, &i) in chosen.iter().enumerate() {
            let row = centroids.row_mut(c);
            row.copy_from_slice(rows.row(i as usize));
            normalize(row);
        }

        // Fixed-count spherical k-means on the sample: assign by best
        // dot (rows and centroids are unit, so dot order = cosine
        // order; ties go to the lower centroid id), then recentre and
        // renormalise. A cluster that loses all members keeps its
        // previous centroid.
        let mut sums = vec![0.0f32; nlist * dim];
        let mut counts = vec![0u32; nlist];
        for _ in 0..config.iters {
            sums.fill(0.0);
            counts.fill(0);
            for &i in &sample {
                let r = rows.row(i as usize);
                let c = Self::nearest_centroid(&centroids, r);
                axpy(1.0, r, &mut sums[c * dim..(c + 1) * dim]);
                counts[c] += 1;
            }
            for c in 0..nlist {
                if counts[c] > 0 {
                    let row = centroids.row_mut(c);
                    row.copy_from_slice(&sums[c * dim..(c + 1) * dim]);
                    scale(1.0 / counts[c] as f32, row);
                    normalize(row);
                }
            }
        }

        // Full assignment pass, ascending item order — posting lists
        // come out sorted without a post-hoc sort.
        let mut lists: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for i in 0..n {
            let c = Self::nearest_centroid(&centroids, rows.row(i)) as u32;
            lists.entry(c).or_default().push(i as u32);
        }
        Self {
            centroids,
            lists,
            n_items: u32::try_from(n).expect("catalogue fits u32"),
        }
    }

    /// The centroid nearest to `r` by dot product; ties break toward
    /// the lower centroid id.
    fn nearest_centroid(centroids: &DenseMatrix, r: &[f32]) -> usize {
        let mut best = 0usize;
        let mut best_score = f32::NEG_INFINITY;
        for c in 0..centroids.rows() {
            let s = dot(centroids.row(c), r);
            if s > best_score {
                best = c;
                best_score = s;
            }
        }
        best
    }

    /// Reassembles an index from persisted parts, validating that the
    /// lists form an exact partition of `0..n_items` (every id once,
    /// in ascending order, under a known centroid). `None` on any
    /// inconsistency — the decoder maps that to a corrupt-artifact
    /// error instead of panicking.
    #[must_use]
    pub fn from_parts(
        centroids: DenseMatrix,
        lists: BTreeMap<u32, Vec<u32>>,
        n_items: u32,
    ) -> Option<Self> {
        let nlist = u32::try_from(centroids.rows()).ok()?;
        let mut total = 0usize;
        let mut seen = vec![false; n_items as usize];
        for (&c, items) in &lists {
            if c >= nlist || items.is_empty() {
                return None;
            }
            let mut prev: Option<u32> = None;
            for &i in items {
                if i >= n_items || prev.is_some_and(|p| p >= i) {
                    return None;
                }
                if std::mem::replace(&mut seen[i as usize], true) {
                    return None;
                }
                prev = Some(i);
            }
            total += items.len();
        }
        (total == n_items as usize).then_some(Self {
            centroids,
            lists,
            n_items,
        })
    }

    /// Number of coarse centroids the index was built with.
    #[must_use]
    pub fn nlist(&self) -> usize {
        self.centroids.rows()
    }

    /// Number of *non-empty* posting lists (the effective `nprobe`
    /// ceiling).
    #[must_use]
    pub fn n_lists(&self) -> usize {
        self.lists.len()
    }

    /// Number of indexed items.
    #[must_use]
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Centroid dimensionality (embedding dim, or `L + 1` for a MIPS
    /// index).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.centroids.cols()
    }

    /// The centroid matrix (persistence).
    #[must_use]
    pub fn centroids(&self) -> &DenseMatrix {
        &self.centroids
    }

    /// The posting lists (persistence).
    #[must_use]
    pub fn lists(&self) -> &BTreeMap<u32, Vec<u32>> {
        &self.lists
    }

    /// Top-`k` items for `query`, best first, excluding the (sorted,
    /// deduplicated) `exclude` set; candidates come from the `nprobe`
    /// posting lists whose centroids score highest against `query`, and
    /// are ranked exactly by the caller's `score` closure. Allocating
    /// variant of [`IvfIndex::search_into`].
    ///
    /// `query` may be *shorter* than [`IvfIndex::dim`]: a MIPS index is
    /// probed with the unaugmented user factor, scoring centroids on
    /// the first `query.len()` coordinates (the query's missing
    /// augmented coordinate is implicitly zero).
    #[must_use]
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        exclude: &[u32],
        score: impl FnMut(u32) -> f32,
    ) -> Vec<u32> {
        let mut scratch = IvfScratch::new();
        let mut out = Vec::new();
        self.search_into(query, k, nprobe, exclude, score, &mut scratch, &mut out);
        out
    }

    /// [`IvfIndex::search`] with caller-owned scratch: `scratch` is
    /// re-armed and `out` cleared and refilled in place, so batch
    /// callers (the serve sources) search every user without per-user
    /// allocation. Contents are identical to the plain variant.
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` exceeds [`IvfIndex::dim`].
    // Every argument is a distinct retrieval knob the batch callers set
    // per call; bundling them into a params struct would only move the
    // field list one hop away from the call site.
    #[allow(clippy::too_many_arguments)]
    pub fn search_into(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        exclude: &[u32],
        mut score: impl FnMut(u32) -> f32,
        scratch: &mut IvfScratch,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        if k == 0 || self.lists.is_empty() {
            return;
        }
        let qd = query.len();
        assert!(
            qd <= self.dim(),
            "query dim {qd} exceeds index dim {}",
            self.dim()
        );
        // Rank the non-empty lists' centroids; TopK's strict total
        // order makes the probe set deterministic and monotone in
        // nprobe (a larger nprobe probes a superset of lists).
        let nprobe = nprobe.clamp(1, self.lists.len());
        scratch.probes.reset(nprobe);
        for &c in self.lists.keys() {
            scratch
                .probes
                .push(c, dot(query, &self.centroids.row(c as usize)[..qd]));
        }
        scratch.probes.drain_sorted_into(&mut scratch.probe_order);
        scratch.top.reset(k);
        for &c in &scratch.probe_order {
            for &i in &self.lists[&c] {
                if exclude.binary_search(&i).is_ok() {
                    continue;
                }
                scratch.top.push(i, score(i));
            }
        }
        scratch.top.drain_sorted_into(out);
    }
}

/// The persisted ANN artifact: one IVF index per accelerated retrieval
/// path. Either half may be absent (e.g. a registry trained before the
/// corresponding model existed); the serve pipeline falls back to the
/// exact scan for a missing or invalid half.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnArtifact {
    /// Cosine index over the catalogue embeddings (content-similar
    /// candidates).
    pub content: Option<IvfIndex>,
    /// MIPS index over the BPR item factors (CF-neighbour candidates);
    /// `dim() == factors + 1` from the augmentation.
    pub cf: Option<IvfIndex>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{EncoderConfig, SemanticEncoder};
    use rm_util::topk::top_k_of;

    fn store(n: usize) -> EmbeddingStore {
        let enc = SemanticEncoder::new(EncoderConfig::default());
        let texts: Vec<String> = (0..n)
            .map(|i| match i % 3 {
                0 => format!("giallo mistero detective caso{i}"),
                1 => format!("fantasia drago magia regno{i}"),
                _ => format!("storia guerra memoria secolo{i}"),
            })
            .collect();
        EmbeddingStore::encode_all(&enc, &texts)
    }

    fn config() -> IvfConfig {
        IvfConfig {
            nlist: 8,
            iters: 4,
            seed: 7,
            train_sample: 0,
        }
    }

    /// Exact cosine-scan reference: same scoring closure as the index
    /// search, over every item.
    fn exact_top(s: &EmbeddingStore, query: &[f32], k: usize, exclude: &[u32]) -> Vec<u32> {
        top_k_of(
            (0..s.len() as u32)
                .filter(|i| exclude.binary_search(i).is_err())
                .map(|i| (i, dot(query, s.embedding(i as usize)))),
            k,
        )
        .into_iter()
        .map(|r| r.item)
        .collect()
    }

    #[test]
    fn build_is_deterministic_and_partitions() {
        let s = store(120);
        let a = IvfIndex::build(&s, &config());
        let b = IvfIndex::build(&s, &config());
        assert_eq!(a, b);
        let total: usize = a.lists().values().map(Vec::len).sum();
        assert_eq!(total, s.len());
        assert_eq!(a.n_items(), 120);
        for items in a.lists().values() {
            assert!(items.windows(2).all(|w| w[0] < w[1]), "lists sorted");
        }
        let c = IvfIndex::build(
            &s,
            &IvfConfig {
                seed: 8,
                ..config()
            },
        );
        assert_ne!(a, c, "different seed, different partition");
    }

    #[test]
    fn full_nprobe_is_bit_identical_to_exact_scan() {
        let s = store(120);
        let idx = IvfIndex::build(&s, &config());
        let seen: Vec<u32> = vec![2, 5, 40];
        let query = s.mean_embedding(&seen);
        for k in [1usize, 10, 50] {
            let exact = exact_top(&s, &query, k, &seen);
            let approx = idx.search(&query, k, idx.n_lists(), &seen, |i| {
                dot(&query, s.embedding(i as usize))
            });
            assert_eq!(exact, approx, "k={k}");
        }
    }

    #[test]
    fn partial_nprobe_recall_is_reasonable() {
        let s = store(300);
        let idx = IvfIndex::build(&s, &config());
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in 0..30usize {
            let query = s.embedding(q).to_vec();
            let exclude = [q as u32];
            let exact = exact_top(&s, &query, 10, &exclude);
            let approx = idx.search(&query, 10, 2, &exclude, |i| {
                dot(&query, s.embedding(i as usize))
            });
            hit += exact.iter().filter(|e| approx.contains(e)).count();
            total += exact.len();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.5, "nprobe=2 recall too low: {recall}");
    }

    #[test]
    fn mips_full_nprobe_matches_exact_inner_product_scan() {
        use rm_util::rng::rng_from_seed;
        let mut rng = rng_from_seed(11);
        let items = DenseMatrix::gaussian(200, 8, 1.0, &mut rng);
        let users = DenseMatrix::gaussian(5, 8, 1.0, &mut rng);
        let idx = IvfIndex::build_mips(&items, &config());
        assert_eq!(idx.dim(), 9, "augmented dimension");
        for u in 0..users.rows() {
            let q = users.row(u);
            let exact: Vec<u32> = top_k_of(
                (0..items.rows() as u32).map(|i| (i, dot(q, items.row(i as usize)))),
                10,
            )
            .into_iter()
            .map(|r| r.item)
            .collect();
            let approx = idx.search(q, 10, idx.n_lists(), &[], |i| dot(q, items.row(i as usize)));
            assert_eq!(exact, approx, "user {u}");
        }
    }

    #[test]
    fn search_into_matches_search_and_reuses_buffers() {
        let s = store(150);
        let idx = IvfIndex::build(&s, &config());
        let query = s.embedding(3).to_vec();
        let mut scratch = IvfScratch::new();
        let mut out = Vec::new();
        idx.search_into(
            &query,
            10,
            3,
            &[3],
            |i| dot(&query, s.embedding(i as usize)),
            &mut scratch,
            &mut out,
        );
        let plain = idx.search(&query, 10, 3, &[3], |i| {
            dot(&query, s.embedding(i as usize))
        });
        assert_eq!(out, plain);
        let ptr = out.as_ptr();
        let query2 = s.embedding(4).to_vec();
        idx.search_into(
            &query2,
            10,
            3,
            &[4],
            |i| dot(&query2, s.embedding(i as usize)),
            &mut scratch,
            &mut out,
        );
        assert_eq!(
            out,
            idx.search(&query2, 10, 3, &[4], |i| dot(
                &query2,
                s.embedding(i as usize)
            ))
        );
        assert_eq!(ptr, out.as_ptr(), "output buffer must be reused");
    }

    #[test]
    fn from_parts_validates_partition() {
        let s = store(30);
        let idx = IvfIndex::build(&s, &config());
        let rebuilt =
            IvfIndex::from_parts(idx.centroids().clone(), idx.lists().clone(), idx.n_items())
                .expect("a built index round-trips");
        assert_eq!(rebuilt, idx);
        // Missing item.
        let mut lists = idx.lists().clone();
        lists.values_mut().next().unwrap().pop();
        assert!(IvfIndex::from_parts(idx.centroids().clone(), lists, idx.n_items()).is_none());
        // Duplicate item.
        let mut lists = idx.lists().clone();
        let dup = lists.values().next().unwrap()[0];
        lists.values_mut().last().unwrap().push(dup);
        assert!(IvfIndex::from_parts(idx.centroids().clone(), lists, idx.n_items()).is_none());
        // Out-of-range centroid id.
        let mut lists = idx.lists().clone();
        let items = lists.values().next().unwrap().clone();
        lists.insert(u32::MAX, items);
        assert!(IvfIndex::from_parts(idx.centroids().clone(), lists, idx.n_items()).is_none());
    }

    #[test]
    fn empty_catalogue_builds_and_searches_empty() {
        let enc = SemanticEncoder::new(EncoderConfig::default());
        let s = EmbeddingStore::encode_all(&enc, &Vec::<String>::new());
        let idx = IvfIndex::build(&s, &config());
        assert_eq!(idx.n_items(), 0);
        let query = vec![0.0f32; s.dim()];
        assert!(idx.search(&query, 5, 4, &[], |_| 0.0).is_empty());
    }

    proptest::proptest! {
        // Satellite: recall@10 is monotonically non-decreasing in
        // nprobe. Probe sets are nested (TopK over centroids), so the
        // candidate set grows with nprobe and every exact-top-10 member
        // present in a candidate set survives its top-10.
        #[test]
        fn recall_at_10_monotone_in_nprobe(seed in 0u64..40, q in 0usize..50) {
            use rm_util::rng::rng_from_seed;
            let mut rng = rng_from_seed(seed);
            let m = DenseMatrix::gaussian(120, 12, 1.0, &mut rng);
            let s = EmbeddingStore::from_matrix(m);
            let idx = IvfIndex::build(&s, &IvfConfig {
                nlist: 10,
                iters: 3,
                seed,
                train_sample: 0,
            });
            let query = s.embedding(q % s.len()).to_vec();
            let exact = exact_top(&s, &query, 10, &[]);
            let mut prev = -1.0f64;
            for nprobe in 1..=idx.n_lists() {
                let approx = idx.search(&query, 10, nprobe, &[], |i| {
                    dot(&query, s.embedding(i as usize))
                });
                let hits = exact.iter().filter(|e| approx.contains(e)).count();
                let recall = hits as f64 / exact.len() as f64;
                proptest::prop_assert!(
                    recall >= prev,
                    "recall dropped from {prev} to {recall} at nprobe {nprobe}"
                );
                prev = recall;
            }
            proptest::prop_assert!((prev - 1.0).abs() < f64::EPSILON, "full probe must reach recall 1");
        }

        // Satellite: the MIPS augmentation preserves the exact-scan
        // argmax (indeed the whole top-k) on random factor matrices.
        #[test]
        fn mips_argmax_preserved(seed in 0u64..60) {
            use rm_util::rng::rng_from_seed;
            let mut rng = rng_from_seed(seed);
            let items = DenseMatrix::gaussian(80, 6, 1.0, &mut rng);
            let user = (0..6).map(|_| rm_util::sample::standard_normal(&mut rng) as f32).collect::<Vec<_>>();
            let idx = IvfIndex::build_mips(&items, &IvfConfig {
                nlist: 6,
                iters: 3,
                seed,
                train_sample: 0,
            });
            let exact_argmax = top_k_of(
                (0..items.rows() as u32).map(|i| (i, dot(&user, items.row(i as usize)))),
                1,
            )[0].item;
            let approx = idx.search(&user, 1, idx.n_lists(), &[], |i| {
                dot(&user, items.row(i as usize))
            });
            proptest::prop_assert_eq!(approx, vec![exact_argmax]);
        }
    }
}
