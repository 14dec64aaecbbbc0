//! Brownout plans and the terminal stage, pinned through the engine's
//! public surface: which slots each ladder level runs as pipeline
//! sources, whether its filters run, which terminal slots answer the
//! users the pipeline left empty — and that a terminal slot answers with
//! its model's exact f32 top-k even while IVF and i8 artifacts are
//! active.

use rm_core::bpr::Bpr;
use rm_core::closest::ClosestItems;
use rm_core::most_read::MostReadItems;
use rm_core::quant::QuantMode;
use rm_core::random::RandomItems;
use rm_core::Recommender;
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;
use rm_serve::engine::ModelSlot::{self, Bpr as B, ClosestItems as C, MostRead as M, Random as R};
use rm_serve::engine::{EngineConfig, EngineConfigBuilder, ServingEngine, RANDOM_SEED};
use rm_serve::overload::{DegradationLevel, OverloadConfig};
use rm_serve::pipeline::{Candidate, CandidateFilter, FilterCtx, Reason, SourceId};
use rm_serve::registry::{ArtifactRegistry, BPR_FILE, EMBEDDINGS_FILE, MOST_READ_FILE};
use rm_util::clock::{Clock, FakeClock};
use rm_util::trace::{Tracer, Value};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{train_fixture_with, unique_dir};

/// The shared fixture's models and two registries published from them.
struct Fixture {
    train: Interactions,
    bpr: Bpr,
    closest: ClosestItems,
    most_read: MostReadItems,
    /// Every artifact, the IVF indexes and i8 rows included.
    full: ArtifactRegistry,
    /// The same set minus the three model artifacts: only Random loads.
    random_only: ArtifactRegistry,
}

fn fixture(tag: &str) -> Fixture {
    let fx = train_fixture_with(&format!("{tag}-full"), Some(QuantMode::I8), true);
    let random_only = ArtifactRegistry::new(unique_dir(&format!("{tag}-random-only")));
    fx.save(
        &random_only,
        Some(&fx.ann()),
        Some(&fx.quant(QuantMode::I8)),
    );
    for file in [BPR_FILE, MOST_READ_FILE, EMBEDDINGS_FILE] {
        std::fs::remove_file(random_only.path_of(file)).expect("artifact exists");
    }
    Fixture {
        train: fx.train,
        bpr: fx.bpr,
        closest: fx.closest,
        most_read: fx.most_read,
        full: fx.registry,
        random_only,
    }
}

impl Fixture {
    fn cleanup(&self) {
        for registry in [&self.full, &self.random_only] {
            let _ = std::fs::remove_dir_all(registry.dir());
        }
    }
}

/// A filter that drops every candidate.
#[derive(Debug)]
struct DropAll;

impl CandidateFilter for DropAll {
    fn retain(&self, _: &FilterCtx<'_>, pool: &mut Vec<Candidate>) {
        pool.clear();
    }
}

/// A config whose filters, when they run, drop every candidate, so a
/// filtered pool always falls through to the terminal slots.
fn filter_all() -> EngineConfigBuilder {
    EngineConfig::builder().filter(Arc::new(DropAll))
}

/// Per config — the fallback chain and the pipeline sources, none set
/// when empty — the plan at each level of [`DegradationLevel::ALL`],
/// written `<sources><filters><terminals>`: slots by initial (BPR,
/// Closest Items, Most Read, Random), filters `+` (run) or `-`
/// (skipped), and the terminals being the level's chain minus the
/// sources.
const PLANS: [(&str, &str, [&str; 5]); 3] = [
    // The default: the chain's head is the only source.
    ("BCMR", "", ["B+CMR", "M+BCR", "M-BCR", "-MR", "-MR"]),
    ("BCMR", "BCM", ["BCM+R", "M+BCR", "M-BCR", "-MR", "-MR"]),
    // All expensive: pruning leaves nothing, so most-read stands in as
    // the source and most-read plus random as the terminals.
    ("BC", "BC", ["BC+", "M+BC", "M-BC", "-MR", "-MR"]),
];

fn slots(initials: &str) -> Vec<ModelSlot> {
    let slot = |initial| match initial {
        'B' => B,
        'C' => C,
        'M' => M,
        'R' => R,
        other => panic!("no slot has the initial {other}"),
    };
    initials.chars().map(slot).collect()
}

/// `slot:outcome` of every `slot_call` event since the last drain.
fn slot_calls(engine: &ServingEngine) -> Vec<String> {
    let mut calls = Vec::new();
    for event in engine.tracer().drain() {
        let field = |name| match event.fields.iter().find(|f| f.0 == name) {
            Some((_, Value::Str(s))) => s.clone(),
            other => panic!("slot_call field {name}: {other:?}"),
        };
        if event.name == "slot_call" {
            calls.push(format!("{}:{}", field("slot"), field("outcome")));
        }
    }
    calls
}

fn call(slot: ModelSlot, outcome: &str) -> String {
    format!("{}:{outcome}", slot.metric_label())
}

/// Loads `registry` and steps its brownout ladder down to `level`: each
/// queued request that waited a second pushes the smoothed delay over
/// `step_down`, and nothing observes the recovery afterwards.
fn engine_at(
    fx: &Fixture,
    registry: &ArtifactRegistry,
    (chain, sources): (&str, &str),
    level: DegradationLevel,
) -> ServingEngine {
    let clock = Arc::new(FakeClock::new());
    let tracer = Tracer::enabled(4096, Arc::clone(&clock) as Arc<dyn Clock>);
    let mut builder = filter_all()
        .chain(slots(chain))
        .workers(1)
        .clock(Arc::clone(&clock) as Arc<dyn Clock>)
        .tracer(Arc::new(tracer))
        .overload(OverloadConfig::default());
    if !sources.is_empty() {
        builder = builder.pipeline_sources(slots(sources));
    }
    let config = builder.build().expect("valid config");
    let engine = ServingEngine::load(registry, &fx.train, config).expect("engine loads");
    while engine.degradation_level() < level {
        engine.offer(UserIdx(0), 5).expect("admitted");
        clock.advance(Duration::from_secs(1));
        engine.serve_queued().expect("a queued request");
    }
    assert_eq!(engine.degradation_level(), level);
    let _ = engine.tracer().drain();
    engine
}

#[test]
fn every_brownout_level_runs_its_plan() {
    let fx = fixture("levels");
    let user = (0..fx.train.n_users() as u32)
        .map(UserIdx)
        .find(|&u| !fx.train.seen(u).is_empty())
        .expect("some user has a history");
    for (chain, configured, plans) in PLANS {
        for (level, plan) in DegradationLevel::ALL.into_iter().zip(plans) {
            let config = (chain, configured);
            let what = format!("(chain, sources) {config:?} at {level:?}: {plan}");
            let (sources, terminals) = plan.split_once(['+', '-']).expect("a filter flag");
            let (sources, terminals) = (slots(sources), slots(terminals));
            let filters = plan.contains('+');
            // Healthy artifacts: every source emits. Filters that run
            // empty the pool, and then the first terminal answers alone;
            // with filters off the pipeline answers.
            let healthy = engine_at(&fx, &fx.full, config, level);
            let (books, explanations) = healthy.recommend_explained(user, 5);
            let terminal_serves = filters || sources.is_empty();
            let first = terminals.first().copied().filter(|_| terminal_serves);
            // An exhaustive first source (Most Read here: the IVF indexes
            // make BPR and Closest Items probe) is asked for its top k;
            // when the filters empty that, it is asked again for its pool.
            let again = sources.first().filter(|&&s| filters && s == M);
            let mut expected: Vec<String> = again
                .into_iter()
                .chain(&sources)
                .map(|&s| call(s, "ok"))
                .collect();
            expected.extend(first.map(|t| call(t, "ok")));
            assert_eq!(slot_calls(&healthy), expected, "{what}");
            assert_eq!(
                books.is_empty(),
                terminal_serves && first.is_none(),
                "{what}"
            );
            let attributed = explanations.iter().all(|e| match e.source {
                SourceId::Fallback(slot) => Some(slot) == first,
                _ => !terminal_serves,
            });
            assert!(attributed, "{what}: {explanations:?}");

            // Only Random loads: each source and each terminal up to
            // Random is tried and reported degraded, in plan order.
            let bare = engine_at(&fx, &fx.random_only, config, level);
            let _ = bare.recommend_explained(user, 5);
            let mut expected: Vec<String> = sources.iter().map(|&s| call(s, "degraded")).collect();
            for slot in terminals {
                if slot == R {
                    expected.push(call(R, "ok"));
                    break;
                }
                expected.push(call(slot, "degraded"));
            }
            assert_eq!(slot_calls(&bare), expected, "{what}");
        }
    }
    fx.cleanup();
}

/// The anchor a Closest Items answer names for a reader who borrowed
/// `seen`, from the embedding store's public API: the seen book most
/// similar to the centroid of `seen`, the first on ties.
fn anchor(closest: &ClosestItems, seen: &[u32]) -> u32 {
    let store = closest.store();
    let sims = store.similarities(&store.centroid(seen));
    let better = |best: u32, b: u32| {
        if sims[b as usize] > sims[best as usize] {
            b
        } else {
            best
        }
    };
    seen.iter().copied().reduce(better).expect("a history")
}

/// A terminal slot answers with its model's own exact f32 top-k, in
/// model order, and explains it as that slot's fallback — even with
/// the IVF indexes and i8 rows active, which only the pipeline sources
/// and the rank stage read.
#[test]
fn terminal_slots_serve_the_exact_f32_model() {
    let fx = fixture("terminal");
    let mut random = RandomItems::new(RANDOM_SEED);
    random.fit(&fx.train);
    for slot in ModelSlot::ALL {
        // The filters empty the source's pool, so the chain's only slot
        // answers every user.
        let source = if slot == M { B } else { M };
        let config = filter_all()
            .chain(vec![slot])
            .pipeline_sources(vec![source]);
        let engine = ServingEngine::load(&fx.full, &fx.train, config.build().expect("valid"))
            .expect("engine loads");
        assert!(engine.ann_cf_active() && engine.ann_content_active());
        assert!(engine.quant_cf_active() && engine.quant_content_active());
        let model: &dyn Recommender = match slot {
            B => &fx.bpr,
            C => &fx.closest,
            M => &fx.most_read,
            R => &random,
        };
        for u in 0..fx.train.n_users() as u32 {
            let user = UserIdx(u);
            let reason = |book: u32| match slot {
                B => Reason::CfNeighbours,
                C => Reason::SimilarToBorrowed {
                    anchor: anchor(&fx.closest, fx.train.seen(user)),
                },
                M => Reason::MostRead {
                    count: fx.most_read.count(BookIdx(book)),
                },
                R => Reason::Exploration,
            };
            for k in [1, 10] {
                let what = format!("{slot:?} user {u} k {k}");
                let expected = model.recommend(user, k);
                let (books, explanations) = engine.recommend_explained(user, k);
                assert_eq!(books, expected, "{what}");
                assert_eq!(engine.recommend(user, k), expected, "{what}");
                let source = SourceId::Fallback(slot);
                let expected: Vec<Candidate> = expected
                    .iter()
                    .map(|&book| Candidate {
                        book,
                        source,
                        reason: reason(book),
                    })
                    .collect();
                assert_eq!(explanations, expected, "{what}");
            }
        }
    }
    fx.cleanup();
}
