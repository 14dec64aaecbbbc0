//! The serving engine against an eager reference built from the public
//! stage functions. For every user the reference runs every configured
//! source's `emit_batch`, then `merge_into`, the filters, and
//! `rank_pool_into` with the primary source's scorer, as the benchmark's
//! stage replay does. The engine runs the later sources only for the
//! users an exhaustive primary leaves short of k (DESIGN.md §15); its
//! answers and explanations must equal the reference's for every Tiny
//! user. Every Tiny user has a training history, so the engine serves a
//! copy of the training matrix with every 25th user's history blanked:
//! the content source has nothing for those users.
//!
//! Small pools and a cap of one per genre leave many users short, so the
//! engine's later rounds run as well as its skip. An IVF primary keeps
//! every source eager; under a Closest Items IVF primary the rank stage
//! scores whole merged pools with Closest Items. Each case is served
//! once as a batch, which ranks later rounds over subsets of the chunk,
//! and once per user with explanations. The batch's `slot_call` trace
//! events pin the rounds themselves. Behind an exhaustive primary, the
//! primary runs once over every user, again over exactly the users whose
//! top k (the primary's `emit_batch(users, k)`) came back full and was
//! thinned below k, and each later source once over exactly the users
//! the reference finds short (no call over no user). Behind an IVF
//! primary, each source runs once over every user.
//!
//! An unoptimised build checks every seventh user and every blanked one
//! (under half a minute instead of two); `scripts/check.sh` also runs
//! this suite optimised, over every user, because the scores the engine
//! and the reference compare must also be bit-identical under the
//! vectorised lowering of the scan kernels.

use rm_core::bpr::{Bpr, BprConfig};
use rm_core::closest::ClosestItems;
use rm_core::most_read::MostReadItems;
use rm_core::quant::{QuantArtifact, QuantMode};
use rm_core::Recommender;
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;
use rm_embed::AnnArtifact;
use rm_serve::engine::ModelSlot::{self, Bpr as B, ClosestItems as C, MostRead as M};
use rm_serve::engine::{EngineConfig, ServingEngine};
use rm_serve::pipeline::{
    merge_into, rank_pool_into, AlreadyBorrowedFilter, BookGenres, Candidate, CandidateFilter,
    CandidateSource, CfNeighboursSource, ContentSimilarSource, DiversityCapFilter, FilterCtx,
    MostReadSource,
};
use rm_serve::registry::ArtifactRegistry;
use rm_util::clock::MonotonicClock;
use rm_util::trace::{Tracer, Value};
use rm_util::TopK;
use std::collections::BTreeMap;
use std::slice;
use std::sync::Arc;

mod common;
use common::{train_fixture, unique_dir};

/// The fixture's models installed over a serving matrix, as the engine
/// installs its artifacts.
struct Models {
    train: Interactions,
    bpr: Bpr,
    closest: ClosestItems,
    most_read: MostReadItems,
}

impl Models {
    fn install(fx: &common::Fixture, train: Interactions) -> Self {
        let mut bpr = Bpr::new(BprConfig::default());
        bpr.install(fx.bpr.model().expect("fitted").clone(), &train);
        let mut closest = fx.closest.clone();
        closest.fit(&train);
        let mut most_read = fx.most_read.clone();
        most_read.install(&train);
        Self {
            train,
            bpr,
            closest,
            most_read,
        }
    }
}

/// Every `BLANK`-th user is served with an empty history.
const BLANK: u32 = 25;

/// `train` with every `nth` user's history removed.
fn blank_every(train: &Interactions, nth: u32) -> Interactions {
    let pairs: Vec<(UserIdx, BookIdx)> = (0..train.n_users() as u32)
        .filter(|u| u % nth != 0)
        .flat_map(|u| {
            train
                .seen(UserIdx(u))
                .iter()
                .map(move |&b| (UserIdx(u), BookIdx(b)))
        })
        .collect();
    Interactions::from_pairs(train.n_users(), train.n_books(), &pairs)
}

/// One served set-up: a registry, the pipeline sources in priority
/// order (the first is the primary) and the IVF probe count.
struct Setup<'a> {
    label: &'static str,
    registry: &'a ArtifactRegistry,
    ann: Option<&'a AnnArtifact>,
    quant: Option<&'a QuantArtifact>,
    sources: [ModelSlot; 3],
    nprobe: usize,
}

/// The filters of one case: none, already-borrowed, or already-borrowed
/// plus a cap per genre of `c` or of the request's k.
#[derive(Clone, Copy, Debug)]
enum Filters {
    None,
    Borrowed,
    Cap(usize),
    CapK,
}

impl Filters {
    fn build(self, k: usize) -> Vec<Arc<dyn CandidateFilter>> {
        let cap = match self {
            Self::None => return Vec::new(),
            Self::Borrowed => None,
            Self::Cap(c) => Some(c),
            Self::CapK => Some(k),
        };
        let mut filters: Vec<Arc<dyn CandidateFilter>> = vec![Arc::new(AlreadyBorrowedFilter)];
        filters
            .extend(cap.map(|c| Arc::new(DiversityCapFilter::new(c)) as Arc<dyn CandidateFilter>));
        filters
    }
}

/// The sources the engine installs for `setup`, built by hand.
fn sources<'a>(fx: &'a Models, setup: &Setup<'a>) -> Vec<Box<dyn CandidateSource + 'a>> {
    let quant = setup.quant;
    setup
        .sources
        .iter()
        .map(|&slot| -> Box<dyn CandidateSource + 'a> {
            match slot {
                B => {
                    let mut source = CfNeighboursSource::new(&fx.bpr);
                    if let Some(index) = setup.ann.and_then(|a| a.cf.as_ref()) {
                        source = source.ivf(index, setup.nprobe);
                    }
                    if let Some(q) = quant {
                        let user = q.user_factors().expect("user rows");
                        source = source.with_quant(user, q.item_factors().expect("item rows"));
                    }
                    Box::new(source)
                }
                C => {
                    let mut source = ContentSimilarSource::new(&fx.closest, &fx.train);
                    if let Some(index) = setup.ann.and_then(|a| a.content.as_ref()) {
                        source = source.ivf(index, setup.nprobe);
                    }
                    if let Some(q) = quant {
                        source = source.with_quant(q.embeddings().expect("embedding rows"));
                    }
                    Box::new(source)
                }
                M => Box::new(MostReadSource::new(&fx.most_read)),
                ModelSlot::Random => unreachable!("no set-up runs Random as a source"),
            }
        })
        .collect()
}

/// The rank stage's score of `book` for `user` under `setup`'s primary.
fn score(fx: &Models, setup: &Setup<'_>, user: UserIdx, book: u32) -> f32 {
    match (setup.sources[0], setup.quant) {
        (B, Some(q)) => {
            let user_row = q.user_factors().expect("user rows").row(user.index());
            q.item_factors()
                .expect("item rows")
                .row(book as usize)
                .dot(&user_row)
        }
        (B, None) => fx.bpr.score(user, BookIdx(book)),
        (C, _) => fx.closest.score(user, BookIdx(book)),
        (M, _) => fx.most_read.score(user, BookIdx(book)),
        (ModelSlot::Random, _) => unreachable!("no set-up has a Random primary"),
    }
}

/// The fields of a successful `slot_call` event: `slot` called over
/// `requests` users, `served` of whom it had candidates for.
fn ok_call(slot: ModelSlot, requests: usize, served: usize) -> Vec<(&'static str, Value)> {
    vec![
        ("slot", Value::Str(slot.metric_label().into())),
        ("requests", Value::U64(requests as u64)),
        ("outcome", Value::Str("ok".into())),
        ("served", Value::U64(served as u64)),
    ]
}

#[test]
fn lazy_engine_matches_the_eager_stage_reference() {
    let fx = train_fixture("reference");
    let genres = Arc::new(BookGenres::from_corpus(&fx.corpus));
    let (ann, i8_rows, f16_rows) = (fx.ann(), fx.quant(QuantMode::I8), fx.quant(QuantMode::F16));
    let with_i8 = ArtifactRegistry::new(unique_dir("reference-i8"));
    fx.save(&with_i8, None, Some(&i8_rows));
    let with_f16 = ArtifactRegistry::new(unique_dir("reference-f16"));
    fx.save(&with_f16, None, Some(&f16_rows));
    let with_ivf = ArtifactRegistry::new(unique_dir("reference-ivf"));
    fx.save(&with_ivf, Some(&ann), Some(&i8_rows));
    let setup = |label, registry, ann, quant, sources, nprobe| Setup {
        label,
        registry,
        ann,
        quant,
        sources,
        nprobe,
    };
    let setups = [
        setup("bpr-f32", &fx.registry, None, None, [B, C, M], 8),
        setup("bpr-i8", &with_i8, None, Some(&i8_rows), [B, C, M], 8),
        setup("bpr-f16", &with_f16, None, Some(&f16_rows), [B, C, M], 8),
        setup("closest", &fx.registry, None, None, [C, B, M], 8),
        setup("most-read", &fx.registry, None, None, [M, B, C], 8),
        setup(
            "ivf-i8-nprobe-1",
            &with_ivf,
            Some(&ann),
            Some(&i8_rows),
            [B, C, M],
            1,
        ),
        setup(
            "closest-ivf",
            &with_ivf,
            Some(&ann),
            Some(&i8_rows),
            [C, B, M],
            1,
        ),
    ];
    let cases = [
        Filters::None,
        Filters::Borrowed,
        Filters::Cap(1),
        Filters::Cap(2),
        Filters::CapK,
    ];
    let models = Models::install(&fx, blank_every(&fx.train, BLANK));
    let stride = if cfg!(debug_assertions) { 7 } else { 1 };
    let users: Vec<UserIdx> = (0..models.train.n_users() as u32)
        .filter(|u| u % stride == 0 || u % BLANK == 0)
        .map(UserIdx)
        .collect();
    let (mut pool, mut top, mut ranked) = (Vec::new(), TopK::new(1), Vec::new());
    // Reference users the primary alone fills, and users it leaves short.
    let (mut filled, mut short) = (0usize, 0usize);
    for setup in &setups {
        let sources = sources(&models, setup);
        // Emissions per effective pool size, `[source][user]`.
        let mut emissions: BTreeMap<usize, Vec<Vec<Vec<Candidate>>>> = BTreeMap::new();
        for pool_size in [4usize, 16, 256] {
            for k in [1usize, 5, 10] {
                let effective = pool_size.max(k);
                let emitted = emissions.entry(effective).or_insert_with(|| {
                    sources
                        .iter()
                        .map(|source| {
                            let mut out = Vec::new();
                            source.emit_batch(&users, effective, &mut out);
                            out
                        })
                        .collect()
                });
                // An exhaustive primary is asked for its top k first.
                let narrow = setup.ann.is_none() && k < effective;
                let mut top_k = Vec::new();
                sources[0].emit_batch(&users, k, &mut top_k);
                for filters in cases {
                    let what = format!("{} pool {pool_size} k {k} {filters:?}", setup.label);
                    let filters = filters.build(k);
                    let mut builder = EngineConfig::builder()
                        .chain(setup.sources.to_vec())
                        .pipeline_sources(setup.sources.to_vec())
                        .pool_size(pool_size)
                        .ann_nprobe(setup.nprobe)
                        .book_genres(Arc::clone(&genres))
                        .cache_capacity(0)
                        .workers(1)
                        .tracer(Arc::new(Tracer::enabled(
                            64,
                            Arc::new(MonotonicClock::new()),
                        )));
                    for filter in &filters {
                        builder = builder.filter(Arc::clone(filter));
                    }
                    let config = builder.build().expect("valid config");
                    let engine =
                        ServingEngine::load(setup.registry, &models.train, config).expect("loads");
                    assert_eq!(engine.ann_cf_active(), setup.ann.is_some(), "{what}");
                    assert_eq!(engine.quant_cf_active(), setup.quant.is_some(), "{what}");
                    let batch = engine.recommend_batch(&users, k);
                    let calls: Vec<_> = (engine.tracer().drain().into_iter())
                        .filter(|event| event.name == "slot_call")
                        .map(|event| event.fields)
                        .collect();
                    let (mut thinned_users, mut short_users) = (Vec::new(), Vec::new());
                    for (u, &user) in users.iter().enumerate() {
                        let ctx = FilterCtx {
                            user,
                            seen: models.train.seen(user),
                            genres: Some(&genres),
                        };
                        let by_primary = |b| score(&models, setup, user, b);
                        let mut rank = |emitted: &[Vec<Vec<Candidate>>]| {
                            merge_into(emitted.iter().map(|e| e[u].as_slice()), &mut pool);
                            for filter in &filters {
                                filter.retain(&ctx, &mut pool);
                            }
                            rank_pool_into(&pool, k, by_primary, &mut top, &mut ranked);
                            ranked.len()
                        };
                        if narrow && top_k[u].len() == k && rank(slice::from_ref(&top_k)) < k {
                            thinned_users.push(u);
                        }
                        if rank(&emitted[..1]) < k {
                            short += 1;
                            short_users.push(u);
                        } else {
                            filled += 1;
                        }
                        rank(emitted);
                        let explained: Vec<Candidate> = ranked
                            .iter()
                            .map(|&b| *pool.iter().find(|c| c.book == b).expect("pooled"))
                            .collect();
                        let served = engine.recommend_explained(user, k);
                        assert_eq!(batch[u], ranked, "{what} batch user {}", user.0);
                        assert_eq!(served.0, ranked, "{what} user {}", user.0);
                        assert_eq!(served.1, explained, "{what} user {}", user.0);
                    }
                    // The primary over every user, then again over the users
                    // whose full top k was thinned below k, then each later
                    // source over the short users (behind an exhaustive
                    // primary) or over every user.
                    let every: Vec<usize> = (0..users.len()).collect();
                    let later = if setup.ann.is_none() {
                        &short_users
                    } else {
                        &every
                    };
                    let expected: Vec<_> = [(0, &every), (0, &thinned_users)]
                        .into_iter()
                        .chain((1..setup.sources.len()).map(|s| (s, later)))
                        .filter_map(|(s, over)| {
                            let served = over.iter().filter(|&&u| !emitted[s][u].is_empty());
                            (!over.is_empty())
                                .then(|| ok_call(setup.sources[s], over.len(), served.count()))
                        })
                        .collect();
                    assert_eq!(calls, expected, "{what} slot calls");
                }
            }
        }
    }
    assert!(filled > 0 && short > 0, "filled {filled}, short {short}");
    fx.cleanup();
    for registry in [&with_i8, &with_f16, &with_ivf] {
        let _ = std::fs::remove_dir_all(registry.dir());
    }
}
