//! The governed burst probe: open-loop traffic through admission control.
//!
//! A seeded schedule of Zipf users arrives at fixed absolute rates (see
//! [`crate::schedule::BURST`]): a calm phase well under one core's
//! full-service capacity and a recurring 10x burst above it. The
//! generator offers each request when it falls due (`offer`) and serves
//! the queue head (`serve_queued`) in between, with the default
//! `OverloadConfig`, on the browse workload's IVF + i8 artifacts.
//!
//! Latency is timed from each request's *due* time, so a stall also
//! delays the requests behind it. The generator stamps due times
//! itself and keeps them in a FIFO matched one-to-one with the
//! `serve_queued` outcomes. (`rm_serve::loadgen::run` instead reports
//! the engine's sojourn, which starts at `offer`: `AdmissionQueue::offer`
//! stamps arrival at offer time, so a request that fell due while an
//! earlier one was being served loses that wait.)
//!
//! The probe runs in zipf-browse's traced run and reports per-layer
//! metrics only: this close to one core's capacity its figures flip
//! between two regimes from run to run on a shared host, too far apart
//! for an end-to-end bound.

use crate::checks::Violations;
use crate::metrics::Layers;
use crate::schedule::{burst_schedule, by_activity, ZipfUsers, BURST};
use crate::stats::{median, summarize};
use crate::world::{serving_config, World, K};
use rm_dataset::ids::UserIdx;
use rm_dataset::interactions::Interactions;
use rm_serve::overload::DegradationLevel;
use rm_serve::{ServingEngine, ShedReason};
use rm_util::rng::derive_seed_str;
use rm_util::RecError;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Untimed requests that fill the cache before the schedule starts.
const WARM_REQUESTS: usize = 5_000;

/// What one probe measured.
struct Burst<'a> {
    seed: u64,
    train: &'a Interactions,
    by_rank: Vec<UserIdx>,
    violations: Violations,
    lag_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    service_us: Vec<f64>,
    /// Due time to answer, per answered request.
    latency_ms: Vec<f64>,
    /// Governor counters over the schedule.
    shed: Vec<u64>,
    residency_ns: Vec<u64>,
    level_entries: u64,
}

impl<'a> Burst<'a> {
    /// A probe over `train`'s users, drawing its schedule from `seed`.
    fn new(train: &'a Interactions, seed: u64) -> Self {
        Self {
            seed,
            train,
            by_rank: by_activity(train),
            violations: Violations::default(),
            lag_ms: Vec::new(),
            wait_ms: Vec::new(),
            service_us: Vec::new(),
            latency_ms: Vec::new(),
            shed: Vec::new(),
            residency_ns: Vec::new(),
            level_entries: 0,
        }
    }

    /// Plays a `budget`-long schedule against `engine`, after filling its
    /// cache.
    fn play(&mut self, engine: &ServingEngine, budget: Duration) {
        let seed = derive_seed_str(self.seed, "burst");
        let schedule = burst_schedule(seed, self.by_rank.clone(), &BURST, budget);
        let mut warm = ZipfUsers::new(
            derive_seed_str(seed, "warm"),
            self.by_rank.clone(),
            BURST.zipf_exponent,
        );
        for _ in 0..WARM_REQUESTS {
            engine.recommend(warm.next_user(), K);
        }
        // Counters are deltas over the schedule, so the warm-up stays out.
        let before = engine.metrics();
        // Due times (ns from start) of admitted requests, in queue order.
        let mut due: VecDeque<(u64, UserIdx)> = VecDeque::new();
        let mut next = 0usize;
        let start = Instant::now();
        let now_ns = || start.elapsed().as_nanos() as u64;
        loop {
            let now = now_ns();
            while let Some(arrival) = schedule.get(next).filter(|a| a.due_ns <= now) {
                self.lag_ms.push((now - arrival.due_ns) as f64 / 1e6);
                match engine.offer(arrival.user, K) {
                    Ok(()) => due.push_back((arrival.due_ns, arrival.user)),
                    // Counted by the engine's shed counters.
                    Err(RecError::Shed(_)) => {}
                    Err(e) => panic!("offer failed: {e}"),
                }
                next += 1;
            }
            let t = Instant::now();
            let Some(outcome) = engine.serve_queued() else {
                let Some(arrival) = schedule.get(next) else {
                    break;
                };
                // Idle until the next request falls due.
                while now_ns() < arrival.due_ns {
                    std::hint::spin_loop();
                }
                continue;
            };
            let service = t.elapsed();
            let done = now_ns();
            let Some((due_ns, user)) = due.pop_front() else {
                panic!("serve_queued answered with no admitted request pending");
            };
            assert_eq!(user, outcome.user, "admission queue is not FIFO");
            self.wait_ms.push(outcome.queue_delay.as_secs_f64() * 1e3);
            let books = match outcome.result {
                Ok(books) => books,
                Err(RecError::Shed(_)) => continue,
                Err(e) => panic!("serve_queued failed: {e}"),
            };
            self.service_us.push(service.as_secs_f64() * 1e6);
            self.latency_ms.push((done - due_ns) as f64 / 1e6);
            self.violations.check_answer(self.train, user, &books);
        }
        assert!(
            due.is_empty(),
            "{} admitted requests never served",
            due.len()
        );
        let after = engine.metrics();
        let delta =
            |a: &[u64], b: &[u64]| -> Vec<u64> { a.iter().zip(b).map(|(a, b)| a - b).collect() };
        self.shed = delta(&after.shed, &before.shed);
        self.residency_ns = delta(&after.level_residency_ns, &before.level_residency_ns);
        self.level_entries = delta(&after.level_entries, &before.level_entries)
            .iter()
            .sum::<u64>();
    }

    /// Records the admission queue's and the brownout ladder's metrics.
    fn overload_layers(&self, layers: &mut Layers) {
        let waits = summarize(&self.wait_ms);
        layers.set("overload.queue_wait_ms_p50", waits.p50);
        layers.set("overload.queue_wait_ms_p99", waits.tail);
        layers.set("overload.service_us_p50", median(&self.service_us));
        for reason in ShedReason::ALL {
            let name = match reason {
                ShedReason::QueueFull => "overload.shed.queue_full",
                ShedReason::DeadlineHopeless => "overload.shed.deadline",
                ShedReason::CodelOverload => "overload.shed.codel",
            };
            layers.set(name, self.shed[reason.index()] as f64);
        }
        let resident: u64 = self.residency_ns.iter().sum();
        for level in DegradationLevel::ALL {
            let name = match level {
                DegradationLevel::Full => "overload.residency.full",
                DegradationLevel::DropExpensiveSources => {
                    "overload.residency.drop_expensive_sources"
                }
                DegradationLevel::SkipFilters => "overload.residency.skip_filters",
                DegradationLevel::LegacyFallback => "overload.residency.legacy_fallback",
                DegradationLevel::MostReadOnly => "overload.residency.most_read_only",
            };
            layers.set(
                name,
                self.residency_ns[level.index()] as f64 / resident.max(1) as f64,
            );
        }
        layers.set("overload.level_entries", self.level_entries as f64);
        layers.set("loadgen.lag_ms_p99", summarize(&self.lag_ms).tail);
        let latency = summarize(&self.latency_ms);
        layers.set("loadgen.due_latency_ms_p50", latency.p50);
        layers.set("loadgen.due_latency_ms_p99", latency.tail);
    }
}

/// The overload layer's per-layer metrics: plays `budget` of the burst
/// schedule against a governed engine loaded from `world`'s registry,
/// records the overload metrics, and returns the answer-check
/// violations.
pub fn probe(world: &World, seed: u64, budget: Duration, layers: &mut Layers) -> Violations {
    let train = &world.harness.split.train;
    let governed = ServingEngine::load(&world.registry, train, serving_config(&world.genres, true))
        .expect("engine loads the registry it was just given");
    let mut burst = Burst::new(train, seed);
    burst.play(&governed, budget);
    burst.overload_layers(layers);
    burst.violations
}
