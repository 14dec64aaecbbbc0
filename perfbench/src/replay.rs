//! The traced stage replay and the kernel timings.
//!
//! A sample of cache misses is served by the engine and then replayed
//! through the pipeline's public stage functions, each stage rebuilt
//! from the registry's artifacts through its public constructor:
//! `CandidateSource::emit_batch` for the same source variants the engine
//! installs, `merge_into`, `CandidateFilter::retain`, and
//! `rank_pool_into` with the same scorer. Each replayed top-k must equal
//! the engine's answer; the stage times then say where a miss spends its
//! time, and the miss time they leave unexplained is the engine's own
//! envelope (breaker, `catch_unwind`, dispatch, cache insert).

use crate::checks::Violations;
use crate::metrics::Layers;
use crate::stats::median;
use crate::world::{Retrieval, K};
use rm_core::bpr::{Bpr, BprConfig};
use rm_core::closest::ClosestItems;
use rm_core::quant::{QuantArtifact, QuantMode, QuantQuery};
use rm_core::Recommender;
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;
use rm_embed::{AnnArtifact, IvfScratch};
use rm_serve::pipeline::{
    merge_into, rank_pool_into, AnnCfNeighboursSource, AnnContentSimilarSource, BookGenres,
    Candidate, CandidateSource, CfNeighboursSource, ContentSimilarSource, FilterCtx,
    MostReadSource, SourceId,
};
use rm_serve::{ArtifactRegistry, ServingEngine};
use rm_util::TopK;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// The stage objects, rebuilt from a registry the way the engine
/// installs them.
pub struct Stages {
    bpr: Bpr,
    closest: ClosestItems,
    most_read: rm_core::most_read::MostReadItems,
    ann: Option<AnnArtifact>,
    quant: Option<QuantArtifact>,
}

impl Stages {
    /// Loads and installs every artifact of `registry` over `train`.
    pub fn load(registry: &ArtifactRegistry, train: &Interactions) -> Self {
        let loaded = registry.load().expect("registry loads");
        let mut bpr = Bpr::new(BprConfig::default());
        bpr.install(loaded.bpr.expect("bpr artifact"), train);
        let mut closest = ClosestItems::from_store(
            loaded.embeddings.expect("embeddings artifact"),
            loaded.manifest.fields,
        );
        closest.fit(train);
        let mut most_read = loaded.most_read.expect("most-read artifact");
        most_read.install(train);
        Self {
            bpr,
            closest,
            most_read,
            ann: loaded.ann.ok(),
            quant: loaded.quant.ok(),
        }
    }

    /// Times the scoring kernels over these artifacts (see [`kernels`]).
    pub fn kernels(&self, layers: &mut Layers) {
        kernels(&self.bpr, &self.closest, self.quant.as_ref(), layers);
    }

    /// The engine's sources for `retrieval`, in its priority order.
    fn sources<'a>(
        &'a self,
        retrieval: Retrieval,
        train: &'a Interactions,
        nprobe: usize,
    ) -> [Box<dyn CandidateSource + 'a>; 3] {
        let most_read = Box::new(MostReadSource::new(&self.most_read));
        match (retrieval, &self.ann, &self.quant) {
            (Retrieval::IvfI8, Some(ann), Some(q)) => {
                let (cf_idx, content_idx) = (
                    ann.cf.as_ref().expect("cf index"),
                    ann.content.as_ref().expect("content index"),
                );
                [
                    Box::new(
                        AnnCfNeighboursSource::new(&self.bpr, train, cf_idx, nprobe).with_quant(
                            q.user_factors().expect("users"),
                            q.item_factors().expect("items"),
                        ),
                    ),
                    Box::new(
                        AnnContentSimilarSource::new(&self.closest, train, content_idx, nprobe)
                            .with_quant(q.embeddings().expect("embeddings")),
                    ),
                    most_read,
                ]
            }
            (Retrieval::IvfI8, ..) => panic!("IVF/i8 replay needs the ANN and quant artifacts"),
            (Retrieval::Exact, ..) => [
                Box::new(CfNeighboursSource::new(&self.bpr)),
                Box::new(ContentSimilarSource::new(&self.closest, train)),
                most_read,
            ],
        }
    }
}

/// Stage totals over the replayed users.
#[derive(Debug, Default)]
struct Acc {
    miss_us: Vec<f64>,
    explain_us: Vec<f64>,
    stage_sum_us: Vec<f64>,
    cf_us: Vec<f64>,
    content_us: Vec<f64>,
    most_read_us: Vec<f64>,
    merge_us: Vec<f64>,
    filters_us: Vec<f64>,
    rank_us: Vec<f64>,
    cf_emitted: u64,
    content_emitted: u64,
    emitted: u64,
    pooled: u64,
    kept: u64,
    slots: [u64; 3],
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Reusable buffers of one stage replay.
#[derive(Default)]
struct Buffers {
    emitted: [Vec<Vec<Candidate>>; 3],
    pool: Vec<Candidate>,
    /// Pool size after the merge, before the filters.
    pooled: usize,
    top: Option<TopK>,
    ranked: Vec<u32>,
}

/// Runs one user through sources, merge, filters and rank, returning
/// each stage's time in microseconds (the three sources, merge,
/// filters, rank). The answer is left in `buf.ranked`.
#[allow(clippy::too_many_arguments)]
fn run_stages(
    user: UserIdx,
    sources: &[Box<dyn CandidateSource + '_>; 3],
    pool_size: usize,
    filters: &[std::sync::Arc<dyn rm_serve::CandidateFilter>],
    scorer: &dyn Fn(UserIdx, u32) -> f32,
    train: &Interactions,
    genres: &BookGenres,
    buf: &mut Buffers,
) -> [f64; 6] {
    let mut stage_us = [0.0f64; 6];
    for (i, source) in sources.iter().enumerate() {
        let t = Instant::now();
        source.emit_batch(&[user], pool_size, &mut buf.emitted[i]);
        stage_us[i] = us(t);
    }
    let t = Instant::now();
    merge_into(buf.emitted.iter().map(|e| e[0].as_slice()), &mut buf.pool);
    stage_us[3] = us(t);
    buf.pooled = buf.pool.len();
    let ctx = FilterCtx {
        user,
        seen: train.seen(user),
        genres: Some(genres),
    };
    let t = Instant::now();
    for filter in filters {
        filter.retain(&ctx, &mut buf.pool);
    }
    stage_us[4] = us(t);
    let top = buf.top.get_or_insert_with(|| TopK::new(1));
    let t = Instant::now();
    rank_pool_into(&buf.pool, K, |b| scorer(user, b), top, &mut buf.ranked);
    stage_us[5] = us(t);
    stage_us
}

/// Replays `users` (each not yet cached) through the stages, checking
/// each replayed answer against the engine's, and records the stage
/// metrics into `layers`.
///
/// The stages run on their own copies of the artifacts, so each user is
/// first served once untimed by both the engine (with k + 1, which
/// leaves the k-entry uncached) and the replay: the timed engine miss
/// and the timed replay then both start from warm data.
#[allow(clippy::too_many_arguments)]
pub fn replay_misses(
    engine: &ServingEngine,
    stages: &Stages,
    retrieval: Retrieval,
    train: &Interactions,
    genres: &BookGenres,
    users: &[UserIdx],
    violations: &mut Violations,
    layers: &mut Layers,
) {
    let cfg = &engine.config().pipeline;
    let pool_size = cfg.pool_size.max(K);
    let sources = stages.sources(retrieval, train, cfg.ann_nprobe);
    // The rank stage's scorer: quantized factor rows on the IVF/i8 path,
    // the f32 model otherwise — as the engine installs it.
    let quant_rows = match retrieval {
        Retrieval::IvfI8 => stages
            .quant
            .as_ref()
            .and_then(|q| Some((q.user_factors()?, q.item_factors()?))),
        Retrieval::Exact => None,
    };
    let scorer = |user: UserIdx, b: u32| match quant_rows {
        Some((qu, qi)) => qi.row(b as usize).dot(&qu.row(user.index())),
        None => stages.bpr.score(user, BookIdx(b)),
    };
    let mut acc = Acc::default();
    let mut buf = Buffers::default();
    for &user in users {
        // Warm both copies of this user's data.
        std::hint::black_box(engine.recommend(user, K + 1));
        run_stages(
            user,
            &sources,
            pool_size,
            &cfg.filters,
            &scorer,
            train,
            genres,
            &mut buf,
        );

        let t = Instant::now();
        let answer = engine.recommend(user, K);
        acc.miss_us.push(us(t));
        let stage_us = run_stages(
            user,
            &sources,
            pool_size,
            &cfg.filters,
            &scorer,
            train,
            genres,
            &mut buf,
        );
        let t = Instant::now();
        let (explained, _) = engine.recommend_explained(user, K);
        acc.explain_us.push(us(t));
        violations.check_equal("stage replay vs engine", user, &buf.ranked, &answer);
        violations.check_equal("explained vs recommend", user, &explained, &answer);

        acc.cf_us.push(stage_us[0]);
        acc.content_us.push(stage_us[1]);
        acc.most_read_us.push(stage_us[2]);
        acc.merge_us.push(stage_us[3]);
        acc.filters_us.push(stage_us[4]);
        acc.rank_us.push(stage_us[5]);
        acc.stage_sum_us.push(stage_us.iter().sum());
        acc.cf_emitted += buf.emitted[0][0].len() as u64;
        acc.content_emitted += buf.emitted[1][0].len() as u64;
        acc.emitted += buf.emitted.iter().map(|e| e[0].len() as u64).sum::<u64>();
        acc.pooled += buf.pooled as u64;
        acc.kept += buf.pool.len() as u64;
        for b in &buf.ranked {
            match buf.pool.iter().find(|c| c.book == *b).map(|c| c.source) {
                Some(SourceId::CfNeighbours) => acc.slots[0] += 1,
                Some(SourceId::ContentSimilar) => acc.slots[1] += 1,
                Some(SourceId::MostRead) => acc.slots[2] += 1,
                _ => {}
            }
        }
    }
    let n = users.len().max(1) as f64;
    let miss_p50 = median(&acc.miss_us);
    let stage_p50 = median(&acc.stage_sum_us);
    let slots = acc.slots.iter().sum::<u64>().max(1) as f64;
    layers.set("replay.users", users.len() as f64);
    layers.set("replay.coverage", stage_p50 / miss_p50.max(1e-9));
    layers.set("engine.envelope_us", miss_p50 - stage_p50);
    layers.set("engine.explain_us_p50", median(&acc.explain_us));
    layers.set("source.cf_us", median(&acc.cf_us));
    layers.set("source.content_us", median(&acc.content_us));
    layers.set("source.most_read_us", median(&acc.most_read_us));
    layers.set("source.cf_emitted", acc.cf_emitted as f64 / n);
    layers.set("source.content_emitted", acc.content_emitted as f64 / n);
    layers.set("yield.cf", acc.slots[0] as f64 / slots);
    layers.set("yield.content", acc.slots[1] as f64 / slots);
    layers.set("yield.most_read", acc.slots[2] as f64 / slots);
    layers.set("merge.us", median(&acc.merge_us));
    layers.set("merge.pool_size", acc.pooled as f64 / n);
    layers.set(
        "merge.dup_ratio",
        1.0 - acc.pooled as f64 / acc.emitted.max(1) as f64,
    );
    layers.set("filters.us", median(&acc.filters_us));
    layers.set(
        "filters.keep_ratio",
        acc.kept as f64 / acc.pooled.max(1) as f64,
    );
    layers.set("rank.us", median(&acc.rank_us));
}

/// Rows the IVF probes score per query, counted through the scoring
/// closure, and the overlap of each ANN pool with the exact pool.
pub fn ivf_counts(
    stages: &Stages,
    train: &Interactions,
    nprobe: usize,
    users: &[UserIdx],
    layers: &mut Layers,
) {
    let (Some(ann), Some(quant), Some(model)) = (&stages.ann, &stages.quant, stages.bpr.model())
    else {
        // Exact retrieval: nothing probed, and the pool is the exact pool.
        layers.set("ivf.cf_recall", 1.0);
        layers.set("ivf.content_recall", 1.0);
        return;
    };
    let pool_size = 256usize.max(K);
    let (cf_idx, content_idx) = (ann.cf.as_ref(), ann.content.as_ref());
    let (qu, qi, qe) = (
        quant.user_factors().expect("users"),
        quant.item_factors().expect("items"),
        quant.embeddings().expect("embeddings"),
    );
    let exact_cf = CfNeighboursSource::new(&stages.bpr);
    let exact_content = ContentSimilarSource::new(&stages.closest, train);
    let store = stages.closest.store();
    let mut scratch = IvfScratch::new();
    let mut ids: Vec<u32> = Vec::new();
    let mut exact: Vec<Vec<Candidate>> = Vec::new();
    let mut query: Vec<f32> = Vec::new();
    let (mut cf_scored, mut content_scored, mut content_queries) = (0u64, 0u64, 0u64);
    let (mut cf_overlap, mut cf_exact, mut ct_overlap, mut ct_exact) = (0u64, 0u64, 0u64, 0u64);
    let overlap = |ids: &[u32], exact: &[Candidate]| {
        let set: BTreeSet<u32> = ids.iter().copied().collect();
        exact.iter().filter(|c| set.contains(&c.book)).count() as u64
    };
    for &u in users {
        let seen = train.seen(u);
        if let Some(idx) = cf_idx {
            let q = model.user_factors.row(u.index());
            let urow = qu.row(u.index());
            let mut scored = 0u64;
            idx.search_into(
                q,
                pool_size,
                nprobe,
                seen,
                |i| {
                    scored += 1;
                    qi.row(i as usize).dot(&urow)
                },
                &mut scratch,
                &mut ids,
            );
            cf_scored += scored;
            exact_cf.emit_batch(&[u], pool_size, &mut exact);
            cf_overlap += overlap(&ids, &exact[0]);
            cf_exact += exact[0].len() as u64;
        }
        if let (Some(idx), false) = (content_idx, seen.is_empty()) {
            store.mean_embedding_into(seen, &mut query);
            let qq = QuantQuery::quantize(qe.mode(), &query);
            let mut scored = 0u64;
            idx.search_into(
                &query,
                pool_size,
                nprobe,
                seen,
                |i| {
                    scored += 1;
                    qe.row(i as usize).dot(&qq.as_row())
                },
                &mut scratch,
                &mut ids,
            );
            content_scored += scored;
            content_queries += 1;
            exact_content.emit_batch(&[u], pool_size, &mut exact);
            ct_overlap += overlap(&ids, &exact[0]);
            ct_exact += exact[0].len() as u64;
        }
    }
    layers.set(
        "ivf.cf_scored",
        cf_scored as f64 / users.len().max(1) as f64,
    );
    layers.set(
        "ivf.content_scored",
        content_scored as f64 / content_queries.max(1) as f64,
    );
    layers.set("ivf.cf_recall", cf_overlap as f64 / cf_exact.max(1) as f64);
    layers.set(
        "ivf.content_recall",
        ct_overlap as f64 / ct_exact.max(1) as f64,
    );
}

/// Median per-call time, in microseconds, of `call` over five blocks of
/// `calls` calls.
fn per_call_us(calls: usize, mut call: impl FnMut(usize)) -> f64 {
    let blocks: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..calls {
                call(i);
            }
            us(t) / calls as f64
        })
        .collect();
    median(&blocks)
}

/// Times the scoring kernels the sources and the rank stage run:
/// `DenseMatrix::matvec_into` over the BPR item factors and over the
/// catalogue embeddings (both `rm_sparse`), and the fused i8
/// `QuantMatrix::matvec_into` over the quantized item factors.
fn kernels(bpr: &Bpr, closest: &ClosestItems, quant: Option<&QuantArtifact>, layers: &mut Layers) {
    let Some(model) = bpr.model() else { return };
    let users = model.user_factors.rows().max(1);
    let stride = (users / 256).max(1);
    let mut out: Vec<f32> = Vec::new();
    layers.set(
        "kernel.cf_matvec_f32_us",
        per_call_us(256, |i| {
            model
                .item_factors
                .matvec_into(model.user_factors.row((i * stride) % users), &mut out);
            black_box(&out);
        }),
    );
    let store = closest.store();
    let queries: Vec<Vec<f32>> = (0..16)
        .map(|i| store.embedding((i * 97) % store.len().max(1)).to_vec())
        .collect();
    layers.set(
        "kernel.content_matvec_f32_us",
        per_call_us(64, |i| {
            store.similarities_into(&queries[i % queries.len()], &mut out);
            black_box(&out);
        }),
    );
    let owned;
    let quant = match quant {
        Some(q) => q,
        None => {
            owned = QuantArtifact::quantize(QuantMode::I8, model, None);
            &owned
        }
    };
    let (Some(qu), Some(qi)) = (quant.user_factors(), quant.item_factors()) else {
        return;
    };
    layers.set(
        "kernel.cf_matvec_i8_us",
        per_call_us(256, |i| {
            qi.matvec_into(&qu.row((i * stride) % users), &mut out);
            black_box(&out);
        }),
    );
}
