//! `zipf-browse`: the patron-facing common case.
//!
//! Closed loop, one client: Zipf(1.0) users call `recommend`, every
//! [`EXPLAIN_EVERY`]-th call is `recommend_explained` (a kiosk "why?"
//! tap), and every [`RELOAD_EVERY`] requests the trainer republishes the
//! artifacts as the next epoch and the engine reloads. Artifacts are
//! IVF + i8. Publishing is the trainer's work and is not timed; the
//! reload is, and counts toward throughput.
//!
//! A run measures in several windows, one after each set-up. Each
//! window and each reload starts a segment with an empty cache. Only
//! whole segments count, so every figure covers the same cache warm-up;
//! each whole segment is a group of its own, and the run reports each
//! figure's best group (see [`EndToEnd::latency`]).

use crate::alloc;
use crate::checks::Violations;
use crate::metrics::{EndToEnd, Layers};
use crate::replay::{ivf_counts, replay_misses, Stages};
use crate::schedule::{by_activity, ZipfUsers};
use crate::stats::{median, summarize};
use crate::world::{Retrieval, World, K, SLO};
use rm_dataset::ids::UserIdx;
use rm_dataset::interactions::Interactions;
use rm_util::rng::derive_seed_str;
use std::time::{Duration, Instant};

/// One call in this many is `recommend_explained`. An assumed share of
/// "why?" taps, not a measured one.
pub const EXPLAIN_EVERY: u64 = 20;

/// Requests between republish-and-reload cycles. An assumed cadence, not
/// a measured one: it makes a few reloads land in every run.
pub const RELOAD_EVERY: u64 = 10_000;

/// Requests answered faster than this were cache hits: a miss runs
/// three candidate sources, which alone take tens of microseconds.
const HIT_CEILING: Duration = Duration::from_micros(20);

/// Cache misses replayed stage by stage in the traced run.
const REPLAY_USERS: usize = 300;

/// Served users re-asked at the end to compare cached and fresh answers.
const CACHE_CHECKS: usize = 200;

/// Per-request-kind records of a traced run.
#[derive(Default)]
struct Trace {
    /// Recommend latencies of counted and of uncounted requests.
    traced_us: Vec<f64>,
    plain_us: Vec<f64>,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    hit_allocs: u64,
    miss_allocs: u64,
}

/// One run's state, carried across its measurement windows.
pub struct Browse {
    users: ZipfUsers,
    train: Interactions,
    violations: Violations,
    e2e: EndToEnd,
    trace: Trace,
    /// Requests served so far (the explain cadence).
    served: u64,
    /// Per reload segment: requests, serving time (reload included), and
    /// whether it ran to its reload.
    segments: Vec<(u64, Duration, bool)>,
    reload_ms: Vec<f64>,
    /// Users served since the last reload (their answers are cached).
    recent: Vec<UserIdx>,
}

impl Browse {
    /// A run over `world`'s users, drawing its stream from `seed`.
    pub fn new(world: &World, seed: u64) -> Self {
        let train = world.harness.split.train.clone();
        Self {
            users: ZipfUsers::new(derive_seed_str(seed, "browse"), by_activity(&train), 1.0),
            train,
            violations: Violations::default(),
            e2e: EndToEnd::default(),
            trace: Trace::default(),
            served: 0,
            segments: Vec::new(),
            reload_ms: Vec::new(),
            recent: Vec::new(),
        }
    }

    /// Serves the closed loop for `budget` on a freshly loaded `world`
    /// (its cache is empty, so a new reload segment starts). In a traced
    /// run every other request counts its allocations and is split into
    /// hit or miss; the requests in between are the untraced reference
    /// for the tracing overhead.
    pub fn window(&mut self, world: &mut World, budget: Duration, traced: bool) {
        self.segments.push((0, Duration::ZERO, false));
        self.recent.clear();
        let start = Instant::now();
        while start.elapsed() < budget {
            let user = self.users.next_user();
            self.served += 1;
            let explained = self.served.is_multiple_of(EXPLAIN_EVERY);
            let counted = traced && self.served.is_multiple_of(2);
            alloc::set_counting(counted);
            let allocs_before = alloc::count();
            let t = Instant::now();
            let books = if explained {
                world.engine.recommend_explained(user, K).0
            } else {
                world.engine.recommend(user, K)
            };
            let dt = t.elapsed();
            let allocs = alloc::count() - allocs_before;
            alloc::set_counting(false);
            let segment = self.segments.len() - 1;
            self.segments[segment].0 += 1;
            self.segments[segment].1 += dt;
            let dt_us = dt.as_secs_f64() * 1e6;
            let e2e = &mut self.e2e;
            e2e.attempted += 1;
            e2e.record(segment, dt_us);
            let ok = !books.is_empty() && self.violations.check_answer(&self.train, user, &books);
            if !ok {
                e2e.failed += 1;
            } else if dt <= SLO {
                e2e.within_slo += 1;
            }
            if traced && !explained {
                if counted {
                    self.trace.traced_us.push(dt_us);
                } else {
                    self.trace.plain_us.push(dt_us);
                }
            }
            if counted && !explained {
                // Classified by time, not by reading the engine's hit
                // counter: an extra engine call next to the timed one
                // would warm the caches it measures.
                if dt < HIT_CEILING {
                    self.trace.hit_us.push(dt_us);
                    self.trace.hit_allocs += allocs;
                } else {
                    self.trace.miss_us.push(dt_us);
                    self.trace.miss_allocs += allocs;
                }
            }
            if self.recent.len() < CACHE_CHECKS && !explained {
                self.recent.push(user);
            }
            if self.segments[segment].0 == RELOAD_EVERY {
                let reload = world.republish_and_reload();
                self.segments[segment].1 += reload;
                self.segments[segment].2 = true;
                self.segments.push((0, Duration::ZERO, false));
                self.reload_ms.push(reload.as_secs_f64() * 1e3);
                self.recent.clear();
            }
        }
    }

    /// Ends the run on the last window's `world`: the cached-answer
    /// check, and with `traced` the per-layer metrics and stage replay.
    pub fn finish(
        mut self,
        world: &mut World,
        seed: u64,
        traced: bool,
        layers: &mut Layers,
    ) -> (EndToEnd, Violations) {
        // A cached answer must equal a fresh one (explained requests
        // bypass the cache).
        for &u in &self.recent {
            let cached = world.engine.recommend(u, K);
            let fresh = world.engine.recommend_explained(u, K).0;
            self.violations
                .check_equal("cached vs fresh", u, &cached, &fresh);
        }

        let mut e2e = std::mem::take(&mut self.e2e);
        if traced {
            let trace = &self.trace;
            let served = (trace.hit_us.len() + trace.miss_us.len()).max(1) as f64;
            let miss = summarize(&trace.miss_us);
            layers.set(
                "trace.overhead_frac",
                median(&trace.traced_us) / median(&trace.plain_us).max(1e-9) - 1.0,
            );
            layers.set("cache.hit_ratio", trace.hit_us.len() as f64 / served);
            layers.set("cache.hit_us_p50", median(&trace.hit_us));
            layers.set("cache.bytes", world.engine.cache_bytes_estimate() as f64);
            layers.set("engine.miss_us_p50", miss.p50);
            layers.set("engine.miss_us_p99", miss.tail);
            layers.set(
                "engine.allocs_per_hit",
                trace.hit_allocs as f64 / trace.hit_us.len().max(1) as f64,
            );
            layers.set(
                "engine.allocs_per_miss",
                trace.miss_allocs as f64 / trace.miss_us.len().max(1) as f64,
            );
        }
        // Only whole segments count (all of them when none completed);
        // each is a group of its own, and the run reports each figure's
        // best group.
        let any_whole = self.segments.iter().any(|s| s.2);
        let counted = |segment: &(u64, Duration, bool)| segment.2 || !any_whole;
        e2e.latency_us.resize_with(self.segments.len(), Vec::new);
        for (segment, samples) in self.segments.iter().zip(&mut e2e.latency_us) {
            if !counted(segment) {
                samples.clear();
            }
        }
        e2e.ops_per_s = self
            .segments
            .iter()
            .filter(|s| counted(s) && s.0 > 0)
            .map(|(n, busy, _)| *n as f64 / busy.as_secs_f64().max(1e-9))
            .fold(0.0, f64::max);

        if traced {
            // Replay a fresh sample of misses right after a reload has
            // emptied the cache.
            let reload = world.republish_and_reload();
            self.reload_ms.push(reload.as_secs_f64() * 1e3);
            layers.set("engine.reload_ms", median(&self.reload_ms));
            let train = &self.train;
            let mut fresh = ZipfUsers::new(
                derive_seed_str(seed, "browse-replay"),
                by_activity(train),
                1.0,
            );
            let mut picked = vec![false; world.engine.n_users()];
            let mut sample: Vec<UserIdx> = Vec::new();
            while sample.len() < REPLAY_USERS {
                let u = fresh.next_user();
                if !std::mem::replace(&mut picked[u.index()], true) {
                    sample.push(u);
                }
            }
            let stages = Stages::load(&world.registry, train);
            replay_misses(
                &world.engine,
                &stages,
                Retrieval::IvfI8,
                train,
                &world.genres,
                &sample,
                &mut self.violations,
                layers,
            );
            let nprobe = world.engine.config().pipeline.ann_nprobe;
            ivf_counts(&stages, train, nprobe, &sample, layers);
            stages.kernels(layers);
        }
        (e2e, self.violations)
    }
}
