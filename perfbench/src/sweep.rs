//! `cold-sweep`: the nightly precompute.
//!
//! `recommend_batch` over every user exactly once, in a seeded order and
//! fixed-size chunks, on exact f32 artifacts (no IVF, no quant). No
//! request repeats, so the cache never answers; the exact-scan sources,
//! the `rm_sparse` kernels, merge, filters and rank do all the work.
//! Should the run outlast one pass, the engine reloads (untimed, which
//! empties the cache) and a fresh seeded order starts.
//!
//! Like zipf-browse, a run measures in several windows, one after each
//! set-up; the sweep order carries on from window to window. Each run of
//! [`GROUP_CALLS`] consecutive batch calls within a window is a group of
//! its own, and the run reports each figure's best group (see
//! [`EndToEnd::latency`]). A batch call meets the latency limit when it
//! takes at most [`SLO`] per user it answers.

use crate::alloc;
use crate::checks::Violations;
use crate::metrics::{EndToEnd, Layers};
use crate::replay::{ivf_counts, replay_misses, Stages};
use crate::schedule::shuffled_users;
use crate::stats::{median, summarize};
use crate::world::{Retrieval, World, K, SLO};
use rm_dataset::ids::UserIdx;
use rm_dataset::interactions::Interactions;
use rm_util::rng::{derive_seed, derive_seed_str};
use std::time::{Duration, Instant};

/// Users per `recommend_batch` call: the batch size the repository's
/// own batch callers use (`rm_eval`'s evaluation batches and the
/// `serve-bench --batch` default).
pub const CHUNK: usize = 64;

/// Batch calls per measurement group: about half a second of sweeping,
/// short enough that most runs hold a group the host left undisturbed.
const GROUP_CALLS: usize = 8;

/// Every this many chunks, each answer is compared with a single fresh
/// request for the same user.
const CHECK_EVERY: u64 = 25;

/// Users replayed stage by stage in the traced run.
const REPLAY_USERS: usize = 200;

/// One run's state, carried across its measurement windows.
pub struct Sweep {
    seed: u64,
    train: Interactions,
    violations: Violations,
    e2e: EndToEnd,
    /// Per measurement group: batch calls, users swept and serving time.
    groups: Vec<(usize, u64, Duration)>,
    /// The current pass's order and the position reached in it.
    order: Vec<UserIdx>,
    next: usize,
    pass: u64,
    /// Allocations and users of the counted batches.
    allocs: u64,
    traced_users: u64,
    /// Per-user batch time of the uncounted and the counted batches.
    plain_us: Vec<f64>,
    traced_us: Vec<f64>,
    explain_us: Vec<f64>,
}

impl Sweep {
    /// A run over `world`'s users, ordered by `seed`.
    pub fn new(world: &World, seed: u64) -> Self {
        let train = world.harness.split.train.clone();
        let order = shuffled_users(
            derive_seed(derive_seed_str(seed, "sweep"), 0),
            train.n_users(),
        );
        Self {
            seed,
            train,
            violations: Violations::default(),
            e2e: EndToEnd::default(),
            groups: Vec::new(),
            order,
            next: 0,
            pass: 0,
            allocs: 0,
            traced_users: 0,
            plain_us: Vec::new(),
            traced_us: Vec::new(),
            explain_us: Vec::new(),
        }
    }

    /// Sweeps for `budget` on `world`. In a traced run every other batch
    /// counts its allocations; the batches in between are the untraced
    /// reference for the tracing overhead.
    pub fn window(&mut self, world: &mut World, budget: Duration, traced: bool) {
        // A window starts a group of its own.
        self.groups.push((0, 0, Duration::ZERO));
        let start = Instant::now();
        while start.elapsed() < budget {
            if self.next >= self.order.len() {
                // Pass complete: a fresh order on an empty cache.
                self.pass += 1;
                self.order = shuffled_users(
                    derive_seed(derive_seed_str(self.seed, "sweep"), self.pass),
                    self.train.n_users(),
                );
                self.next = 0;
                world.reload();
            }
            let end = (self.next + CHUNK).min(self.order.len());
            let chunk = &self.order[self.next..end];
            self.next = end;
            self.e2e.attempted += 1;
            let counted = traced && self.e2e.attempted.is_multiple_of(2);
            alloc::set_counting(counted);
            let allocs_before = alloc::count();
            let t = Instant::now();
            let answers = world.engine.recommend_batch(chunk, K);
            let dt = t.elapsed();
            self.allocs += alloc::count() - allocs_before;
            alloc::set_counting(false);
            if self.groups.last().is_some_and(|g| g.0 == GROUP_CALLS) {
                self.groups.push((0, 0, Duration::ZERO));
            }
            let group = self.groups.len() - 1;
            let g = &mut self.groups[group];
            g.0 += 1;
            g.1 += chunk.len() as u64;
            g.2 += dt;
            let dt_us = dt.as_secs_f64() * 1e6;
            self.e2e.record(group, dt_us);
            let per_user = dt_us / chunk.len() as f64;
            if counted {
                self.traced_users += chunk.len() as u64;
                self.traced_us.push(per_user);
            } else {
                self.plain_us.push(per_user);
            }
            let mut ok = answers.len() == chunk.len();
            for (&u, books) in chunk.iter().zip(&answers) {
                ok &= !books.is_empty() && self.violations.check_answer(&self.train, u, books);
            }
            if self.e2e.attempted % CHECK_EVERY == 1 {
                // Batch answers must equal single requests, computed
                // fresh (explained requests bypass the cache).
                for (&u, books) in chunk.iter().zip(&answers) {
                    let t = Instant::now();
                    let single = world.engine.recommend_explained(u, K).0;
                    self.explain_us.push(t.elapsed().as_secs_f64() * 1e6);
                    ok &= self
                        .violations
                        .check_equal("batch vs single", u, books, &single);
                }
            }
            if !ok {
                self.e2e.failed += 1;
            } else if dt <= SLO * chunk.len() as u32 {
                self.e2e.within_slo += 1;
            }
        }
    }

    /// Ends the run on the last window's `world`; with `traced`, records
    /// the per-layer metrics and replays a sample through the stages.
    pub fn finish(
        mut self,
        world: &mut World,
        traced: bool,
        layers: &mut Layers,
    ) -> (EndToEnd, Violations) {
        // Only whole groups count (all of them when none completed); the
        // partial group at the end of each window does not.
        let any_whole = self.groups.iter().any(|g| g.0 == GROUP_CALLS);
        let whole = |g: &(usize, u64, Duration)| g.0 > 0 && (g.0 == GROUP_CALLS || !any_whole);
        self.e2e.latency_us.resize_with(self.groups.len(), Vec::new);
        for (g, samples) in self.groups.iter().zip(&mut self.e2e.latency_us) {
            if !whole(g) {
                samples.clear();
            }
        }
        self.e2e.ops_per_s = self
            .groups
            .iter()
            .filter(|g| whole(g))
            .map(|(_, n, busy)| *n as f64 / busy.as_secs_f64().max(1e-9))
            .fold(0.0, f64::max);
        if traced {
            let miss = summarize(&self.traced_us);
            layers.set("engine.miss_us_p50", miss.p50);
            layers.set("engine.miss_us_p99", miss.tail);
            layers.set(
                "engine.allocs_per_miss",
                self.allocs as f64 / self.traced_users.max(1) as f64,
            );
            layers.set(
                "trace.overhead_frac",
                miss.p50 / median(&self.plain_us).max(1e-9) - 1.0,
            );
            layers.set("cache.bytes", world.engine.cache_bytes_estimate() as f64);
            let reload_ms: Vec<f64> = (0..3).map(|_| world.reload().as_secs_f64() * 1e3).collect();
            layers.set("engine.reload_ms", median(&reload_ms));
            // Replay a seeded sample right after the reloads emptied the
            // cache.
            let sample: Vec<UserIdx> = shuffled_users(
                derive_seed_str(self.seed, "sweep-replay"),
                self.train.n_users(),
            )
            .into_iter()
            .take(REPLAY_USERS)
            .collect();
            let stages = Stages::load(&world.registry, &self.train);
            replay_misses(
                &world.engine,
                &stages,
                Retrieval::Exact,
                &self.train,
                &world.genres,
                &sample,
                &mut self.violations,
                layers,
            );
            // The sweep's own batch-vs-single checks time more explained
            // requests than the replay does.
            if !self.explain_us.is_empty() {
                layers.set("engine.explain_us_p50", median(&self.explain_us));
            }
            let nprobe = world.engine.config().pipeline.ann_nprobe;
            ivf_counts(&stages, &self.train, nprobe, &sample, layers);
            stages.kernels(layers);
        }
        (self.e2e, self.violations)
    }
}
