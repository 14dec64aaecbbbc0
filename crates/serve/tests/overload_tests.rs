//! Overload-resilience suite: admission control, the brownout ladder,
//! and the Zipf load generator, all driven by a fake clock so every
//! decision (shed, level change, latency quantile) replays identically.

use rm_dataset::ids::UserIdx;
use rm_serve::engine::{EngineConfig, EngineConfigBuilder, ServingEngine};
use rm_serve::loadgen::{self, ArrivalMode, LoadgenConfig};
use rm_serve::overload::{DegradationLevel, OverloadConfig};
use rm_util::clock::{Clock, FakeClock};
use rm_util::RecError;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{train_fixture, Fixture};

fn engine_of(fx: &Fixture, config: EngineConfig) -> ServingEngine {
    ServingEngine::load(&fx.registry, &fx.train, config).expect("engine loads")
}

fn builder(clock: &Arc<FakeClock>) -> EngineConfigBuilder {
    EngineConfig::builder().workers(1).clock(clock.clone())
}

/// The simulated per-level service cost used by the deterministic load
/// experiments: each brownout step sheds real work, so each is cheaper.
fn simulated_costs() -> [Duration; DegradationLevel::COUNT] {
    [
        Duration::from_micros(2_000),
        Duration::from_micros(1_500),
        Duration::from_micros(1_000),
        Duration::from_micros(700),
        Duration::from_micros(500),
    ]
}

fn storm_overload() -> OverloadConfig {
    OverloadConfig {
        service_cost: Some(simulated_costs()),
        ..OverloadConfig::default()
    }
}

/// The canonical deterministic overload scenario: a calm 200 rps
/// baseline with a 10× open-loop burst in the second phase. Mirrors
/// `serve-bench --loadgen --smoke`, which gates `BENCH_serve.json`.
fn burst_schedule() -> LoadgenConfig {
    LoadgenConfig {
        requests: 400,
        k: 10,
        base_rps: 200.0,
        phases: vec![1.0, 10.0, 1.0, 1.0],
        phase_len: Duration::from_millis(250),
        mode: ArrivalMode::Open,
        ..LoadgenConfig::default()
    }
}

#[test]
fn overload_enabled_idle_engine_is_bit_identical_to_default() {
    let fx = train_fixture("idle-identical");
    let clock = Arc::new(FakeClock::new());
    let plain = engine_of(&fx, builder(&clock).build().expect("valid config"));
    let governed = engine_of(
        &fx,
        builder(&clock)
            .overload(OverloadConfig::default())
            .build()
            .expect("valid config"),
    );
    assert_eq!(governed.degradation_level(), DegradationLevel::Full);
    for u in 0..fx.train.n_users() as u32 {
        let user = UserIdx(u);
        assert_eq!(
            plain.recommend(user, 10),
            governed.recommend(user, 10),
            "user {u} diverged with an idle governor"
        );
        let (books_a, expl_a) = plain.recommend_explained(user, 5);
        let (books_b, expl_b) = governed.recommend_explained(user, 5);
        assert_eq!(books_a, books_b);
        assert_eq!(expl_a, expl_b);
    }
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

#[test]
fn offer_and_serve_queued_round_trip() {
    let fx = train_fixture("queue-round-trip");
    let clock = Arc::new(FakeClock::new());
    let engine = engine_of(
        &fx,
        builder(&clock)
            .overload(storm_overload())
            .build()
            .expect("valid config"),
    );
    let user = UserIdx(0);
    engine.offer(user, 5).expect("idle queue admits");
    assert_eq!(engine.queue_len(), 1);
    let outcome = engine.serve_queued().expect("one queued request");
    assert_eq!(outcome.user, user);
    assert_eq!(outcome.level, DegradationLevel::Full);
    let books = outcome.result.expect("served");
    assert_eq!(books, engine.recommend(user, 5));
    // Simulated service cost advanced the fake clock.
    assert_eq!(outcome.sojourn, simulated_costs()[0]);
    assert!(engine.serve_queued().is_none(), "queue drained");
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

#[test]
fn offer_without_governor_is_a_config_error() {
    let fx = train_fixture("no-governor");
    let clock = Arc::new(FakeClock::new());
    let engine = engine_of(&fx, builder(&clock).build().expect("valid config"));
    match engine.offer(UserIdx(0), 5) {
        Err(RecError::Config(_)) => {}
        other => panic!("expected Config error, got {other:?}"),
    }
    assert!(engine.serve_queued().is_none());
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

#[test]
fn queue_overflow_sheds_with_typed_error() {
    let fx = train_fixture("queue-overflow");
    let clock = Arc::new(FakeClock::new());
    let engine = engine_of(
        &fx,
        builder(&clock)
            .overload(OverloadConfig {
                queue_capacity: 2,
                ..storm_overload()
            })
            .build()
            .expect("valid config"),
    );
    engine.offer(UserIdx(0), 5).expect("first admitted");
    engine.offer(UserIdx(1), 5).expect("second admitted");
    match engine.offer(UserIdx(2), 5) {
        Err(RecError::Shed(msg)) => assert!(msg.contains("queue_full"), "{msg}"),
        other => panic!("expected Shed, got {other:?}"),
    }
    let m = engine.metrics();
    assert_eq!(m.shed_total(), 1);
    // Shed requests never count as served traffic.
    assert_eq!(m.requests, 0);
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

#[test]
fn degraded_answers_never_pollute_the_cache() {
    let fx = train_fixture("degraded-cache");
    let clock = Arc::new(FakeClock::new());
    // step_down = step_up = 0 forces the ladder down on any queue delay.
    let engine = engine_of(
        &fx,
        builder(&clock)
            .cache_capacity(64)
            .overload(OverloadConfig {
                step_down: Duration::ZERO,
                step_up: Duration::ZERO,
                ..storm_overload()
            })
            .build()
            .expect("valid config"),
    );
    engine.offer(UserIdx(0), 5).expect("admitted");
    engine.offer(UserIdx(1), 5).expect("admitted");
    // Serving the first request costs 2 ms, so the second has queue
    // delay > 0 and the controller steps the ladder down.
    let first = engine.serve_queued().expect("first");
    assert_eq!(first.level, DegradationLevel::Full);
    let cached_after_full = engine.cache_len();
    assert_eq!(cached_after_full, 1, "full-level answers are cached");
    let second = engine.serve_queued().expect("second");
    assert!(
        second.level > DegradationLevel::Full,
        "ladder stepped down, got {:?}",
        second.level
    );
    assert!(second.result.is_ok());
    assert_eq!(
        engine.cache_len(),
        cached_after_full,
        "degraded answer must not be cached"
    );
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

#[test]
fn open_loop_burst_sheds_degrades_and_recovers() {
    let fx = train_fixture("open-loop-burst");
    let clock = Arc::new(FakeClock::new());
    let engine = engine_of(
        &fx,
        builder(&clock)
            .overload(storm_overload())
            .build()
            .expect("valid config"),
    );
    let report = loadgen::run(&engine, &burst_schedule()).expect("loadgen runs");
    assert_eq!(report.requests, 400);
    assert_eq!(report.answered + report.shed, 400);
    // Every admitted request was answered: overload surfaced as
    // shedding and brownout, never as failures.
    assert_eq!(report.availability(), 1.0);
    assert!(report.shed > 0, "10x burst must shed: {report:?}");
    assert!(
        report.max_level > DegradationLevel::Full,
        "10x burst must step the ladder down"
    );
    assert!(report.slo_met(), "{}", report.render_summary());
    // After the burst drains, the hysteresis window walks back to Full.
    clock.sleep(Duration::from_secs(2));
    engine.offer(UserIdx(0), 5).expect("admitted");
    while engine.serve_queued().is_some() {}
    let m = engine.metrics();
    assert!(
        m.level_entries.iter().skip(1).any(|&e| e > 0),
        "ladder transitions recorded: {:?}",
        m.level_entries
    );
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

/// An open-loop generator that falls behind stamps each request with
/// its due time, so the reported latency includes the lateness. With a
/// flat 5 ms service cost, requests due at 0 and 1 ms are answered at 5
/// and 10 ms: sojourns of 5 + 9 = 14 ms. Stamping at offer time (5 ms)
/// would report 5 + 5 = 10 ms.
#[test]
fn open_loop_latency_counts_from_the_due_time() {
    let fx = train_fixture("due-time");
    let clock = Arc::new(FakeClock::new());
    let engine = engine_of(
        &fx,
        builder(&clock)
            .overload(OverloadConfig {
                service_cost: Some([Duration::from_millis(5); DegradationLevel::COUNT]),
                ..OverloadConfig::default()
            })
            .build()
            .expect("valid config"),
    );
    let schedule = LoadgenConfig {
        requests: 2,
        base_rps: 1_000.0,
        mode: ArrivalMode::Open,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&engine, &schedule).expect("loadgen runs");
    assert_eq!((report.answered, report.shed), (2, 0));
    assert_eq!(report.latency.sum(), Duration::from_millis(14).as_nanos());
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

#[test]
fn identical_load_schedules_produce_identical_reports() {
    let fx = train_fixture("replay");
    let run_once = || {
        let clock = Arc::new(FakeClock::new());
        let engine = engine_of(
            &fx,
            builder(&clock)
                .overload(storm_overload())
                .build()
                .expect("valid config"),
        );
        loadgen::run(&engine, &burst_schedule())
            .expect("loadgen runs")
            .render_json()
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "fake-clock load runs must replay byte-identically");
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}

#[test]
fn shed_and_ladder_metrics_surface_in_prometheus() {
    let fx = train_fixture("prom-surface");
    let clock = Arc::new(FakeClock::new());
    let engine = engine_of(
        &fx,
        builder(&clock)
            .overload(storm_overload())
            .build()
            .expect("valid config"),
    );
    let _ = loadgen::run(&engine, &burst_schedule()).expect("loadgen runs");
    let text = engine.metrics_prometheus();
    let shed_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("rm_serve_shed_total"))
        .collect();
    assert_eq!(shed_lines.len(), 3, "{text}");
    assert!(
        shed_lines.iter().any(|l| !l.ends_with(" 0")),
        "some shed counter is non-zero: {shed_lines:?}"
    );
    assert!(text.contains("rm_serve_degradation_level"), "{text}");
    assert!(
        text.contains("rm_serve_degradation_entries_total{level=\"drop_expensive_sources\"}"),
        "{text}"
    );
    assert!(
        text.contains("rm_serve_degradation_residency_ns_total{level=\"full\"}"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(fx.registry.dir());
}
