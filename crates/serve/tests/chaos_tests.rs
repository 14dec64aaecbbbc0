//! Chaos suite: drive the serving engine through injected panics,
//! errors, latency, corrupt artifacts, and broken reloads, and assert it
//! degrades — never aborts — with the fault counters telling the story.
//!
//! Compiled only with the `testing` feature
//! (`cargo test -p rm-serve --features testing`).
#![cfg(feature = "testing")]

use rm_core::bpr::{Bpr, BprConfig};
use rm_core::closest::ClosestItems;
use rm_core::most_read::MostReadItems;
use rm_core::Recommender;
use rm_datagen::Preset;
use rm_dataset::ids::UserIdx;
use rm_dataset::interactions::Interactions;
use rm_dataset::summary::SummaryFields;
use rm_embed::EncoderConfig;
use rm_eval::harness::Harness;
use rm_serve::breaker::{BreakerConfig, BreakerState};
use rm_serve::engine::{EngineConfig, EngineConfigBuilder, ModelSlot, ServingEngine};
use rm_serve::fault::{CallWindow, FaultPlan};
use rm_serve::registry::{ArtifactRegistry, Manifest, MANIFEST_FILE};
use rm_util::clock::{Backoff, Clock, FakeClock};
use std::path::PathBuf;
use std::sync::{Arc, Once};
use std::time::Duration;

/// Injected panics are expected noise here: silence their reports so a
/// green chaos run has a readable log, while real panics still print.
fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rm-serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A trained Tiny-preset model set plus the registry it was saved into.
struct Fixture {
    train: Interactions,
    registry: ArtifactRegistry,
    manifest: Manifest,
    bpr: Bpr,
    most_read: MostReadItems,
    closest: ClosestItems,
}

impl Fixture {
    fn train(tag: &str) -> Self {
        let h = Harness::generate(11, Preset::Tiny);
        let train = h.split.train.clone();
        let mut bpr = Bpr::new(BprConfig {
            factors: 4,
            epochs: 2,
            ..BprConfig::default()
        });
        bpr.fit(&train);
        let mut most_read = MostReadItems::new();
        most_read.fit(&train);
        let mut closest =
            ClosestItems::from_corpus(&h.corpus, SummaryFields::BEST, EncoderConfig::default());
        closest.fit(&train);
        let fx = Self {
            train,
            registry: ArtifactRegistry::new(unique_dir(tag)),
            manifest: Manifest {
                epoch: 1,
                fields: SummaryFields::BEST,
            },
            bpr,
            most_read,
            closest,
        };
        fx.save();
        fx
    }

    fn save(&self) {
        self.registry
            .save(
                &self.manifest,
                self.bpr.model().expect("fitted"),
                &self.most_read,
                self.closest.store(),
                None,
                None,
            )
            .expect("save artifacts");
    }

    fn save_with_faults(&self, plan: &FaultPlan) {
        self.save();
        self.registry
            .corrupt_on_save(plan)
            .expect("corrupt saved artifacts");
    }

    fn user(&self) -> UserIdx {
        (0..self.train.n_users() as u32)
            .map(UserIdx)
            .find(|&u| !self.train.seen(u).is_empty())
            .expect("some user has a history")
    }

    fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(self.registry.dir());
    }
}

/// Single-threaded, uncached engine driven by a fake clock — the
/// deterministic chaos base configuration.
fn chaos_builder(clock: &Arc<FakeClock>) -> EngineConfigBuilder {
    EngineConfig::builder()
        .workers(1)
        .cache_capacity(0)
        .clock(clock.clone())
}

fn chaos_config(clock: &Arc<FakeClock>) -> EngineConfig {
    chaos_builder(clock).build().expect("valid config")
}

#[test]
fn bpr_panic_storm_keeps_availability_at_one() {
    silence_injected_panics();
    let fx = Fixture::train("panic-storm");
    let clock = Arc::new(FakeClock::new());
    let plan = FaultPlan::none().panic_in(ModelSlot::Bpr, CallWindow::always());
    let engine =
        ServingEngine::load_with_faults(&fx.registry, &fx.train, chaos_config(&clock), plan)
            .expect("engine loads");

    let user = fx.user();
    for _ in 0..200 {
        assert_eq!(engine.recommend(user, 5).len(), 5, "every request answered");
    }

    let m = engine.metrics();
    let bpr = ModelSlot::Bpr.index();
    assert_eq!(m.requests, 200);
    assert_eq!(m.worker_panics, 0, "panics must stay isolated in-slot");
    // The breaker cut the storm at its threshold; everything after was
    // skipped without even attempting the slot.
    assert_eq!(m.panics[bpr], 5);
    assert_eq!(m.breaker_opened[bpr], 1);
    assert_eq!(m.breaker_skips[bpr], 195);
    assert_eq!(
        engine.breaker_states().expect("breakers on")[bpr],
        BreakerState::Open
    );
    // Every single request was served by a fallback slot.
    let fallback_served: u64 = [
        ModelSlot::ClosestItems,
        ModelSlot::MostRead,
        ModelSlot::Random,
    ]
    .iter()
    .map(|s| m.served[s.index()])
    .sum();
    assert_eq!(fallback_served, 200);
    assert!(
        m.availability() >= 0.99,
        "availability {} under a full BPR panic storm",
        m.availability()
    );
    fx.cleanup();
}

#[test]
fn batch_path_survives_panicking_slot_on_every_worker() {
    silence_injected_panics();
    let fx = Fixture::train("batch-panics");
    let clock = Arc::new(FakeClock::new());
    let plan = FaultPlan::none().panic_in(ModelSlot::Bpr, CallWindow::always());
    let engine = ServingEngine::load_with_faults(
        &fx.registry,
        &fx.train,
        EngineConfig::builder()
            .workers(4)
            .cache_capacity(0)
            .clock(clock.clone())
            .build()
            .expect("valid config"),
        plan,
    )
    .expect("engine loads");

    let users: Vec<UserIdx> = (0..fx.train.n_users() as u32).map(UserIdx).collect();
    let answers = engine.recommend_batch(&users, 5);
    assert_eq!(answers.len(), users.len());
    assert!(
        answers.iter().all(|a| a.len() == 5),
        "known users all answered despite the panicking slot"
    );
    let m = engine.metrics();
    assert_eq!(m.worker_panics, 0);
    assert_eq!(m.requests, users.len() as u64);
    assert!((m.availability() - 1.0).abs() < 1e-12);
    fx.cleanup();
}

#[test]
fn breaker_recovers_through_a_half_open_probe() {
    silence_injected_panics();
    let fx = Fixture::train("breaker-recovery");
    let clock = Arc::new(FakeClock::new());
    // Exactly the first five calls fail — the default threshold.
    let plan = FaultPlan::none().error_in(ModelSlot::Bpr, CallWindow::first(5));
    let engine =
        ServingEngine::load_with_faults(&fx.registry, &fx.train, chaos_config(&clock), plan)
            .expect("engine loads");
    let user = fx.user();
    let bpr = ModelSlot::Bpr.index();

    for _ in 0..5 {
        assert_eq!(engine.recommend(user, 5).len(), 5);
    }
    assert_eq!(engine.metrics().breaker_opened[bpr], 1);
    assert_eq!(
        engine.breaker_states().expect("breakers on")[bpr],
        BreakerState::Open
    );

    // Cooldown still running: the slot is skipped, not attempted.
    engine.recommend(user, 5);
    assert_eq!(engine.fault_injector().calls(ModelSlot::Bpr), 5);
    assert_eq!(engine.metrics().breaker_skips[bpr], 1);

    // Cooldown elapses: one probe is admitted, succeeds, closes.
    clock.advance(BreakerConfig::default().cooldown);
    engine.recommend(user, 5);
    let m = engine.metrics();
    assert_eq!(m.breaker_half_open[bpr], 1);
    assert_eq!(m.breaker_closed[bpr], 1);
    assert_eq!(m.served[bpr], 1, "the probe itself was served by BPR");
    assert_eq!(
        engine.breaker_states().expect("breakers on")[bpr],
        BreakerState::Closed
    );

    engine.recommend(user, 5);
    assert_eq!(engine.metrics().served[bpr], 2, "slot is healthy again");
    fx.cleanup();
}

#[test]
fn failed_probe_reopens_with_a_fresh_cooldown() {
    silence_injected_panics();
    let fx = Fixture::train("probe-fails");
    let clock = Arc::new(FakeClock::new());
    // Five failures open the breaker; the sixth call — the probe — fails
    // too, re-opening it; the seventh heals.
    let plan = FaultPlan::none().error_in(ModelSlot::Bpr, CallWindow::first(6));
    let engine =
        ServingEngine::load_with_faults(&fx.registry, &fx.train, chaos_config(&clock), plan)
            .expect("engine loads");
    let user = fx.user();
    let bpr = ModelSlot::Bpr.index();
    let cooldown = BreakerConfig::default().cooldown;

    for _ in 0..5 {
        engine.recommend(user, 5);
    }
    clock.advance(cooldown);
    engine.recommend(user, 5); // failed probe
    let m = engine.metrics();
    assert_eq!(m.breaker_half_open[bpr], 1);
    assert_eq!(m.breaker_opened[bpr], 2, "failed probe re-opened");
    assert_eq!(
        engine.breaker_states().expect("breakers on")[bpr],
        BreakerState::Open
    );

    engine.recommend(user, 5); // fresh cooldown: still skipped
    assert_eq!(engine.fault_injector().calls(ModelSlot::Bpr), 6);

    clock.advance(cooldown);
    engine.recommend(user, 5); // healthy probe
    let m = engine.metrics();
    assert_eq!(m.breaker_closed[bpr], 1);
    assert_eq!(m.served[bpr], 1);
    fx.cleanup();
}

#[test]
fn slot_budget_cuts_off_slow_calls_and_trips_the_breaker() {
    silence_injected_panics();
    let fx = Fixture::train("slow-slot");
    let clock = Arc::new(FakeClock::new());
    let plan = FaultPlan::none().latency(ModelSlot::Bpr, Duration::from_millis(20));
    let engine = ServingEngine::load_with_faults(
        &fx.registry,
        &fx.train,
        chaos_builder(&clock)
            .slot_budget(Duration::from_millis(10))
            .breaker(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(1),
            })
            .build()
            .expect("valid config"),
        plan,
    )
    .expect("engine loads");
    let user = fx.user();
    let bpr = ModelSlot::Bpr.index();

    for _ in 0..3 {
        assert_eq!(
            engine.recommend(user, 5).len(),
            5,
            "slow slot degrades, request still served"
        );
    }
    let m = engine.metrics();
    // Two timeouts trip the breaker; the third request skips the slot.
    assert_eq!(m.timeouts[bpr], 2);
    assert_eq!(m.breaker_opened[bpr], 1);
    assert_eq!(m.breaker_skips[bpr], 1);
    assert_eq!(m.served[ModelSlot::ClosestItems.index()], 3);
    assert!((m.availability() - 1.0).abs() < 1e-12);
    fx.cleanup();
}

#[test]
fn request_deadline_stops_the_chain_walk() {
    silence_injected_panics();
    let fx = Fixture::train("deadline");
    let clock = Arc::new(FakeClock::new());
    // Both leading slots stall past the whole-request budget and then
    // panic, so the walk reaches Most Read only after the deadline.
    let plan = FaultPlan::none()
        .latency(ModelSlot::Bpr, Duration::from_millis(20))
        .panic_in(ModelSlot::Bpr, CallWindow::always())
        .latency(ModelSlot::ClosestItems, Duration::from_millis(20))
        .panic_in(ModelSlot::ClosestItems, CallWindow::always());
    let engine = ServingEngine::load_with_faults(
        &fx.registry,
        &fx.train,
        chaos_builder(&clock)
            .request_budget(Duration::from_millis(30))
            .no_breaker()
            .build()
            .expect("valid config"),
        plan,
    )
    .expect("engine loads");

    let recs = engine.recommend(fx.user(), 5);
    assert!(recs.is_empty(), "deadline expiry answers empty");
    let m = engine.metrics();
    assert_eq!(m.deadline_skips, 1);
    assert_eq!(m.panics[ModelSlot::Bpr.index()], 1);
    assert_eq!(m.panics[ModelSlot::ClosestItems.index()], 1);
    assert_eq!(m.served, [0; ModelSlot::COUNT]);
    assert_eq!(m.availability(), 0.0);
    fx.cleanup();
}

#[test]
fn corrupt_on_save_degrades_exactly_that_slot() {
    silence_injected_panics();
    let fx = Fixture::train("corrupt-save");
    let plan = FaultPlan::none().corrupt_on_save(ModelSlot::Bpr);
    fx.save_with_faults(&plan);

    let engine = ServingEngine::load(&fx.registry, &fx.train, EngineConfig::default())
        .expect("load degrades, never fails");
    assert_eq!(engine.degraded().len(), 1, "{:?}", engine.degraded());
    assert_eq!(engine.degraded()[0].0, ModelSlot::Bpr);

    let recs = engine.recommend(fx.user(), 5);
    assert_eq!(recs.len(), 5);
    assert_eq!(engine.metrics().served[ModelSlot::ClosestItems.index()], 1);
    fx.cleanup();
}

#[test]
fn reload_with_retry_keeps_serving_the_old_epoch_on_exhaustion() {
    silence_injected_panics();
    let mut fx = Fixture::train("reload-retry");
    let clock = Arc::new(FakeClock::new());
    let mut engine = ServingEngine::load(
        &fx.registry,
        &fx.train,
        EngineConfig::builder()
            .workers(1)
            .clock(clock.clone())
            .build()
            .expect("valid config"),
    )
    .expect("engine loads");
    let user = fx.user();
    let before = engine.recommend(user, 5);
    assert_eq!(engine.epoch(), 1);

    // The registry loses its manifest: every reload attempt fails.
    std::fs::remove_file(fx.registry.path_of(MANIFEST_FILE)).expect("remove manifest");
    let backoff = Backoff::default();
    engine
        .reload_with_retry(&fx.registry, &backoff)
        .expect_err("no manifest, no reload");
    // Three inter-attempt sleeps, each the deterministic jittered delay.
    let expected: Duration = (0..backoff.attempts - 1).map(|a| backoff.delay(a)).sum();
    assert_eq!(clock.now(), expected, "backoff schedule is deterministic");
    // The old epoch is untouched and still serving identical answers.
    assert_eq!(engine.epoch(), 1);
    assert_eq!(engine.recommend(user, 5), before);

    // The trainer publishes epoch 2: the next retry succeeds first try.
    fx.manifest.epoch = 2;
    fx.save();
    let attempts = engine
        .reload_with_retry(&fx.registry, &backoff)
        .expect("registry healthy again");
    assert_eq!(attempts, 1);
    assert_eq!(engine.epoch(), 2);
    assert_eq!(
        engine.recommend(user, 5),
        before,
        "same artifacts, same answers"
    );
    fx.cleanup();
}

/// The full storm: BPR panics on every call, Closest Items drags, and a
/// 10x open-loop burst hammers the admission queue — availability must
/// hold at 1.0 with a bounded p99, the excess surfacing as shedding and
/// brownout rather than failures or unbounded queueing.
#[test]
fn overload_storm_under_panic_storm_holds_availability() {
    use rm_serve::loadgen::{self, ArrivalMode, LoadgenConfig};
    use rm_serve::overload::{DegradationLevel, OverloadConfig};

    silence_injected_panics();
    let fx = Fixture::train("overload-storm");
    let clock = Arc::new(FakeClock::new());
    let overload = OverloadConfig {
        service_cost: Some([
            Duration::from_micros(2_000),
            Duration::from_micros(1_500),
            Duration::from_micros(1_000),
            Duration::from_micros(700),
            Duration::from_micros(500),
        ]),
        ..OverloadConfig::default()
    };
    let engine = ServingEngine::load_with_faults(
        &fx.registry,
        &fx.train,
        chaos_builder(&clock)
            .overload(overload)
            .build()
            .expect("valid config"),
        FaultPlan::overload_storm(),
    )
    .expect("engine loads");

    let schedule = LoadgenConfig {
        requests: 400,
        k: 10,
        base_rps: 200.0,
        phases: vec![1.0, 10.0, 1.0, 1.0],
        phase_len: Duration::from_millis(250),
        mode: ArrivalMode::Open,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&engine, &schedule).expect("loadgen runs");
    assert_eq!(report.requests, 400);
    assert_eq!(report.answered + report.shed, 400);
    assert_eq!(
        report.availability(),
        1.0,
        "every admitted request answered: {}",
        report.render_summary()
    );
    assert!(report.shed > 0, "the burst must shed");
    assert!(
        report.max_level > DegradationLevel::Full,
        "the ladder must step down under the storm"
    );
    assert!(
        report.p99() <= schedule.slo.p99_limit,
        "p99 stays bounded: {}",
        report.render_summary()
    );
    // The panic storm registered: BPR fell through on served requests.
    let m = engine.metrics();
    assert!(m.panics[ModelSlot::Bpr.index()] > 0);
    fx.cleanup();
}
