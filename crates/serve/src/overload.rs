//! Overload resilience: admission control and the brownout ladder
//! (DESIGN.md §16).
//!
//! The engine's fault envelope (breakers, budgets, panic isolation)
//! handles *broken* dependencies; this module handles *too much load*.
//! Three cooperating pieces sit in front of `serve_chunk`:
//!
//! * [`AdmissionQueue`] — a bounded FIFO. A full queue rejects new
//!   arrivals ([`ShedReason::QueueFull`]), and a CoDel-style controller
//!   sheds from the *head* once queueing delay has exceeded its target
//!   for a sustained interval ([`ShedReason::CodelOverload`]) — head
//!   drops push back on the arrival rate instead of serving requests
//!   whose callers have long given up.
//! * [`PressureController`] — an EWMA of queueing delay driving the
//!   brownout [`DegradationLevel`] ladder: pressure steps the pipeline
//!   down one level at a time (cheaper answers, same availability), and
//!   recovery steps back up only hysteretically — pressure must stay
//!   below a *lower* threshold for a hold period, so the ladder cannot
//!   flap.
//! * [`OverloadGovernor`] — composes the two and adds deadline-aware
//!   shedding: a request whose remaining [`Deadline`] budget is already
//!   below the observed per-request service cost (an EWMA the engine
//!   feeds back after every serve) is rejected up front
//!   ([`ShedReason::DeadlineHopeless`]) rather than served late.
//!
//! Everything is driven by the engine's [`Clock`], so identical arrival
//! schedules under a `FakeClock` produce identical shed decisions and
//! ladder transitions — the determinism tests assert exactly that.

use rm_dataset::ids::UserIdx;
use std::collections::VecDeque;
use std::time::Duration;

/// One rung of the brownout ladder, cheapest last. Each level names the
/// work the pipeline *still does*; stepping down removes the most
/// expensive remaining stage (DESIGN.md §16 defines the exact mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// The full pipeline: all configured sources, filters, rank.
    Full,
    /// Expensive sources (CF neighbours, content similarity) are
    /// dropped; cheap sources, filters, and rank still run.
    DropExpensiveSources,
    /// Diversity/genre filters are skipped on top of the source drop.
    SkipFilters,
    /// The pipeline is bypassed entirely: the legacy fallback chain
    /// serves, minus its expensive slots.
    LegacyFallback,
    /// Only the precomputed most-read list answers (with the terminal
    /// random fallback as never-empty insurance).
    MostReadOnly,
}

impl DegradationLevel {
    /// Number of levels (sizes the residency arrays).
    pub const COUNT: usize = 5;

    /// Every level, from full service down to maximum brownout.
    pub const ALL: [Self; Self::COUNT] = [
        Self::Full,
        Self::DropExpensiveSources,
        Self::SkipFilters,
        Self::LegacyFallback,
        Self::MostReadOnly,
    ];

    /// Dense index for residency/metrics arrays (0 = full service).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Self::Full => 0,
            Self::DropExpensiveSources => 1,
            Self::SkipFilters => 2,
            Self::LegacyFallback => 3,
            Self::MostReadOnly => 4,
        }
    }

    /// The level with dense index `i`, clamped to the deepest level.
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        *Self::ALL.get(i).unwrap_or(&Self::MostReadOnly)
    }

    /// Human-readable name for tables and trace events.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::DropExpensiveSources => "drop_expensive_sources",
            Self::SkipFilters => "skip_filters",
            Self::LegacyFallback => "legacy_fallback",
            Self::MostReadOnly => "most_read_only",
        }
    }

    /// One level deeper into brownout (saturates at the bottom).
    #[must_use]
    pub fn stepped_down(self) -> Self {
        Self::from_index(self.index() + 1)
    }

    /// One level back toward full service (saturates at the top).
    #[must_use]
    pub fn stepped_up(self) -> Self {
        Self::from_index(self.index().saturating_sub(1))
    }
}

/// Why admission control rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded admission queue was full on arrival.
    QueueFull,
    /// The remaining deadline budget was below the observed per-request
    /// service cost — serving it would only have produced a late answer.
    DeadlineHopeless,
    /// Queueing delay stayed above the CoDel target for a sustained
    /// interval; the head of the queue was shed to relieve pressure.
    CodelOverload,
}

impl ShedReason {
    /// Number of reasons (sizes the shed-counter array).
    pub const COUNT: usize = 3;

    /// Every reason, in counter order.
    pub const ALL: [Self; Self::COUNT] =
        [Self::QueueFull, Self::DeadlineHopeless, Self::CodelOverload];

    /// Dense index for the shed-counter array.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Self::QueueFull => 0,
            Self::DeadlineHopeless => 1,
            Self::CodelOverload => 2,
        }
    }

    /// Snake-case `reason` label for Prometheus and trace events.
    #[must_use]
    pub fn metric_label(self) -> &'static str {
        match self {
            Self::QueueFull => "queue_full",
            Self::DeadlineHopeless => "deadline",
            Self::CodelOverload => "codel",
        }
    }
}

/// One ladder transition, breaker-style: the old and new level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelTransition {
    /// Level before the transition.
    pub from: DegradationLevel,
    /// Level after the transition.
    pub to: DegradationLevel,
}

/// Overload-control tuning knobs, validated by the engine builder.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Bounded admission-queue capacity; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// CoDel target: queueing delay below this is acceptable.
    pub codel_target: Duration,
    /// CoDel interval: delay must stay above target this long before
    /// head-shedding starts.
    pub codel_interval: Duration,
    /// EWMA smoothing factor for queue delay and service cost, in
    /// `(0, 1]` (higher = more reactive).
    pub ewma_alpha: f64,
    /// Smoothed queue delay above this steps the ladder down.
    pub step_down: Duration,
    /// Smoothed queue delay must fall below this (strictly lower than
    /// `step_down` for hysteresis) before the ladder may step up.
    pub step_up: Duration,
    /// Minimum residency at a level before stepping back up.
    pub recover_hold: Duration,
    /// Optional simulated per-level service cost, slept through the
    /// engine clock on every queued serve. Loadgen smoke runs set this
    /// so a `FakeClock` drives fully deterministic overload dynamics;
    /// production leaves it `None` and the cost EWMA observes reality.
    pub service_cost: Option<[Duration; DegradationLevel::COUNT]>,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            codel_target: Duration::from_millis(5),
            codel_interval: Duration::from_millis(100),
            ewma_alpha: 0.2,
            step_down: Duration::from_millis(10),
            step_up: Duration::from_millis(2),
            recover_hold: Duration::from_millis(500),
            service_cost: None,
        }
    }
}

/// One admitted, not-yet-served request.
#[derive(Debug, Clone, Copy)]
pub struct QueuedRequest {
    /// The requesting user.
    pub user: UserIdx,
    /// Requested list length.
    pub k: usize,
    /// Clock reading at admission.
    pub arrival: Duration,
}

/// A bounded FIFO with CoDel-style sustained-delay head shedding.
#[derive(Debug)]
pub struct AdmissionQueue {
    entries: VecDeque<QueuedRequest>,
    capacity: usize,
    target: Duration,
    interval: Duration,
    /// Clock reading when queueing delay first exceeded the target
    /// (cleared whenever a head comes out under target).
    first_above: Option<Duration>,
}

impl AdmissionQueue {
    /// An empty queue with the given bounds.
    #[must_use]
    pub fn new(capacity: usize, target: Duration, interval: Duration) -> Self {
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            target,
            interval,
            first_above: None,
        }
    }

    /// Queued requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Admits a request, or rejects it when the queue is full.
    ///
    /// # Errors
    ///
    /// [`ShedReason::QueueFull`] when the queue is at capacity.
    pub fn offer(&mut self, user: UserIdx, k: usize, now: Duration) -> Result<(), ShedReason> {
        if self.entries.len() >= self.capacity {
            return Err(ShedReason::QueueFull);
        }
        self.entries.push_back(QueuedRequest {
            user,
            k,
            arrival: now,
        });
        Ok(())
    }

    /// Takes the head, returning it with its queueing delay and the
    /// CoDel verdict: `true` means delay has been above target for a
    /// sustained interval and this head should be shed, not served.
    pub fn pop(&mut self, now: Duration) -> Option<(QueuedRequest, Duration, bool)> {
        let req = self.entries.pop_front()?;
        let delay = now.saturating_sub(req.arrival);
        let shed = if delay < self.target {
            // Out from under the target: the episode (if any) is over.
            self.first_above = None;
            false
        } else {
            match self.first_above {
                None => {
                    self.first_above = Some(now);
                    false
                }
                // Still above target: shed once the episode has lasted
                // the full interval (and keep shedding until delay
                // drops back under target).
                Some(since) => now.saturating_sub(since) >= self.interval,
            }
        };
        Some((req, delay, shed))
    }
}

/// The brownout ladder controller: EWMA queueing-delay pressure in,
/// hysteretic level transitions out.
#[derive(Debug)]
pub struct PressureController {
    level: DegradationLevel,
    delay_ewma_ns: f64,
    alpha: f64,
    step_down: Duration,
    step_up: Duration,
    recover_hold: Duration,
    /// Clock reading of the last level change (hold-period anchor).
    last_change: Duration,
    /// Clock reading of the last residency accrual.
    last_seen: Duration,
    /// Transitions *into* each level (by [`DegradationLevel::index`]).
    entries: [u64; DegradationLevel::COUNT],
    /// Nanoseconds spent at each level.
    residency_ns: [u64; DegradationLevel::COUNT],
}

impl PressureController {
    /// A controller at [`DegradationLevel::Full`], anchored at `now`.
    #[must_use]
    pub fn new(cfg: &OverloadConfig, now: Duration) -> Self {
        Self {
            level: DegradationLevel::Full,
            delay_ewma_ns: 0.0,
            alpha: cfg.ewma_alpha,
            step_down: cfg.step_down,
            step_up: cfg.step_up,
            recover_hold: cfg.recover_hold,
            last_change: now,
            last_seen: now,
            entries: [0; DegradationLevel::COUNT],
            residency_ns: [0; DegradationLevel::COUNT],
        }
    }

    /// The current ladder level.
    #[must_use]
    pub fn level(&self) -> DegradationLevel {
        self.level
    }

    /// Transitions into each level so far.
    #[must_use]
    pub fn entries(&self) -> [u64; DegradationLevel::COUNT] {
        self.entries
    }

    /// Time spent at each level, the open interval at `now` included.
    #[must_use]
    pub fn residency_ns(&self, now: Duration) -> [u64; DegradationLevel::COUNT] {
        let mut r = self.residency_ns;
        r[self.level.index()] += now.saturating_sub(self.last_seen).as_nanos() as u64;
        r
    }

    fn accrue(&mut self, now: Duration) {
        self.residency_ns[self.level.index()] +=
            now.saturating_sub(self.last_seen).as_nanos() as u64;
        self.last_seen = now;
    }

    /// Feeds one queueing-delay observation and applies the ladder
    /// policy: step down immediately under pressure, step up only after
    /// `recover_hold` at the current level with pressure below the
    /// (lower) step-up threshold. Returns the transition, if any.
    pub fn observe(&mut self, delay: Duration, now: Duration) -> Option<LevelTransition> {
        self.accrue(now);
        let delay_ns = delay.as_nanos() as f64;
        self.delay_ewma_ns = self.alpha * delay_ns + (1.0 - self.alpha) * self.delay_ewma_ns;
        let ewma = Duration::from_nanos(self.delay_ewma_ns as u64);
        if ewma > self.step_down && self.level != DegradationLevel::MostReadOnly {
            return Some(self.transition(self.level.stepped_down(), now));
        }
        if ewma < self.step_up
            && self.level != DegradationLevel::Full
            && now.saturating_sub(self.last_change) >= self.recover_hold
        {
            return Some(self.transition(self.level.stepped_up(), now));
        }
        None
    }

    fn transition(&mut self, to: DegradationLevel, now: Duration) -> LevelTransition {
        let from = self.level;
        self.level = to;
        self.last_change = now;
        self.entries[to.index()] += 1;
        LevelTransition { from, to }
    }
}

/// A request taken off the queue: either cleared to serve at the
/// governor's current level, or shed.
#[derive(Debug, Clone, Copy)]
pub struct Popped {
    /// The request.
    pub request: QueuedRequest,
    /// Time it spent queued.
    pub delay: Duration,
    /// `Some` when admission control shed it instead of serving.
    pub shed: Option<ShedReason>,
}

/// Admission queue + pressure controller + service-cost feedback, the
/// single lock-guarded state the engine consults per queued request.
#[derive(Debug)]
pub struct OverloadGovernor {
    config: OverloadConfig,
    queue: AdmissionQueue,
    controller: PressureController,
    /// EWMA of observed per-request service cost, the deadline-shedding
    /// estimate. Zero until the first serve completes.
    cost_ewma_ns: f64,
    /// The engine's whole-request budget, when configured.
    request_budget: Option<Duration>,
}

impl OverloadGovernor {
    /// A governor at full service, anchored at `now`.
    #[must_use]
    pub fn new(config: OverloadConfig, request_budget: Option<Duration>, now: Duration) -> Self {
        let queue = AdmissionQueue::new(
            config.queue_capacity,
            config.codel_target,
            config.codel_interval,
        );
        let controller = PressureController::new(&config, now);
        Self {
            config,
            queue,
            controller,
            cost_ewma_ns: 0.0,
            request_budget,
        }
    }

    /// Queued (admitted, unserved) requests.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The current brownout level.
    #[must_use]
    pub fn level(&self) -> DegradationLevel {
        self.controller.level()
    }

    /// Transitions into each level so far.
    #[must_use]
    pub fn level_entries(&self) -> [u64; DegradationLevel::COUNT] {
        self.controller.entries()
    }

    /// Time spent at each level up to `now`.
    #[must_use]
    pub fn level_residency_ns(&self, now: Duration) -> [u64; DegradationLevel::COUNT] {
        self.controller.residency_ns(now)
    }

    /// Simulated service cost for `level`, when configured.
    #[must_use]
    pub fn simulated_cost(&self, level: DegradationLevel) -> Option<Duration> {
        self.config.service_cost.map(|costs| costs[level.index()])
    }

    /// Admits a request into the queue, or sheds it up front.
    ///
    /// # Errors
    ///
    /// [`ShedReason::QueueFull`] at capacity;
    /// [`ShedReason::DeadlineHopeless`] when the expected wait —
    /// everything already queued plus this request, at the observed
    /// per-request cost — already exceeds the request budget.
    pub fn offer(&mut self, user: UserIdx, k: usize, now: Duration) -> Result<(), ShedReason> {
        if let Some(budget) = self.request_budget {
            let cost = self.cost_ewma_ns as u64;
            if cost > 0 {
                let expected_wait = cost.saturating_mul(self.queue.len() as u64 + 1);
                if Duration::from_nanos(expected_wait) > budget {
                    return Err(ShedReason::DeadlineHopeless);
                }
            }
        }
        self.queue.offer(user, k, now)
    }

    /// Takes the head of the queue, applying CoDel and dequeue-time
    /// deadline shedding, and feeds the pressure controller. Returns
    /// the popped request plus any ladder transition it triggered.
    pub fn pop(&mut self, now: Duration) -> Option<(Popped, Option<LevelTransition>)> {
        let (request, delay, codel_shed) = self.queue.pop(now)?;
        let shed = if codel_shed {
            Some(ShedReason::CodelOverload)
        } else if self.request_budget.is_some_and(|budget| {
            let cost = self.cost_ewma_ns as u64;
            let remaining = budget.saturating_sub(delay);
            cost > 0 && remaining < Duration::from_nanos(cost)
        }) {
            Some(ShedReason::DeadlineHopeless)
        } else {
            None
        };
        let transition = self.controller.observe(delay, now);
        Some((
            Popped {
                request,
                delay,
                shed,
            },
            transition,
        ))
    }

    /// Feeds back one observed per-request service cost.
    pub fn record_cost(&mut self, cost: Duration) {
        let alpha = self.config.ewma_alpha;
        let cost_ns = cost.as_nanos() as f64;
        if self.cost_ewma_ns == 0.0 {
            self.cost_ewma_ns = cost_ns;
        } else {
            self.cost_ewma_ns = alpha * cost_ns + (1.0 - alpha) * self.cost_ewma_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_util::clock::{Clock, FakeClock};
    use std::sync::Arc;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn user(i: u32) -> UserIdx {
        UserIdx(i)
    }

    #[test]
    fn ladder_steps_saturate_at_both_ends() {
        assert_eq!(
            DegradationLevel::Full.stepped_down(),
            DegradationLevel::DropExpensiveSources
        );
        assert_eq!(
            DegradationLevel::MostReadOnly.stepped_down(),
            DegradationLevel::MostReadOnly
        );
        assert_eq!(DegradationLevel::Full.stepped_up(), DegradationLevel::Full);
        assert_eq!(
            DegradationLevel::SkipFilters.stepped_up(),
            DegradationLevel::DropExpensiveSources
        );
        for (i, level) in DegradationLevel::ALL.into_iter().enumerate() {
            assert_eq!(level.index(), i);
            assert_eq!(DegradationLevel::from_index(i), level);
        }
    }

    #[test]
    fn queue_bounds_admissions() {
        let mut q = AdmissionQueue::new(2, ms(5), ms(100));
        assert!(q.offer(user(0), 10, ms(0)).is_ok());
        assert!(q.offer(user(1), 10, ms(0)).is_ok());
        assert_eq!(q.offer(user(2), 10, ms(0)), Err(ShedReason::QueueFull));
        assert_eq!(q.len(), 2);
        let (req, delay, shed) = q.pop(ms(1)).unwrap();
        assert_eq!(req.user, user(0));
        assert_eq!(delay, ms(1));
        assert!(!shed, "delay under target never sheds");
        assert!(q.offer(user(2), 10, ms(1)).is_ok());
    }

    #[test]
    fn codel_sheds_only_after_a_sustained_episode() {
        let mut q = AdmissionQueue::new(16, ms(5), ms(100));
        // Head comes out 20ms late: above target, episode starts, but
        // the interval has not elapsed — served, not shed.
        q.offer(user(0), 10, ms(0)).unwrap();
        let (_, _, shed) = q.pop(ms(20)).unwrap();
        assert!(!shed);
        // 50ms into the episode: still inside the interval.
        q.offer(user(1), 10, ms(30)).unwrap();
        let (_, _, shed) = q.pop(ms(70)).unwrap();
        assert!(!shed);
        // 120ms after the episode began and still above target: shed.
        q.offer(user(2), 10, ms(80)).unwrap();
        let (_, _, shed) = q.pop(ms(140)).unwrap();
        assert!(shed, "sustained over-target delay sheds the head");
        // A head under target ends the episode and resets the clock.
        q.offer(user(3), 10, ms(150)).unwrap();
        let (_, _, shed) = q.pop(ms(151)).unwrap();
        assert!(!shed);
        q.offer(user(4), 10, ms(160)).unwrap();
        let (_, _, shed) = q.pop(ms(180)).unwrap();
        assert!(!shed, "a fresh episode must last the interval again");
    }

    #[test]
    fn controller_steps_down_fast_and_up_hysteretically() {
        let cfg = OverloadConfig {
            ewma_alpha: 1.0, // EWMA == last observation: exact thresholds
            step_down: ms(10),
            step_up: ms(2),
            recover_hold: ms(50),
            ..OverloadConfig::default()
        };
        let mut c = PressureController::new(&cfg, ms(0));
        assert_eq!(c.level(), DegradationLevel::Full);
        // Pressure: one observation over step_down is enough.
        let t = c.observe(ms(15), ms(1)).expect("step down");
        assert_eq!(t.from, DegradationLevel::Full);
        assert_eq!(t.to, DegradationLevel::DropExpensiveSources);
        let t = c.observe(ms(15), ms(2)).expect("step down again");
        assert_eq!(t.to, DegradationLevel::SkipFilters);
        // Delay between thresholds: no transition either way.
        assert!(c.observe(ms(5), ms(3)).is_none());
        // Low pressure but inside the hold period: still no step up.
        assert!(c.observe(ms(1), ms(10)).is_none());
        // Past the hold with pressure below step_up: one step up.
        let t = c.observe(ms(1), ms(60)).expect("step up after hold");
        assert_eq!(t.from, DegradationLevel::SkipFilters);
        assert_eq!(t.to, DegradationLevel::DropExpensiveSources);
        // The hold re-arms after every transition.
        assert!(c.observe(ms(1), ms(70)).is_none());
        let t = c.observe(ms(1), ms(115)).expect("full recovery");
        assert_eq!(t.to, DegradationLevel::Full);
        assert_eq!(c.entries()[DegradationLevel::Full.index()], 1);
        assert_eq!(
            c.entries()[DegradationLevel::DropExpensiveSources.index()],
            2
        );
    }

    #[test]
    fn controller_tracks_residency_per_level() {
        let cfg = OverloadConfig {
            ewma_alpha: 1.0,
            step_down: ms(10),
            ..OverloadConfig::default()
        };
        let mut c = PressureController::new(&cfg, ms(0));
        c.observe(ms(20), ms(4)).expect("step down at t=4ms");
        let r = c.residency_ns(ms(10));
        assert_eq!(r[DegradationLevel::Full.index()], ms(4).as_nanos() as u64);
        assert_eq!(
            r[DegradationLevel::DropExpensiveSources.index()],
            ms(6).as_nanos() as u64
        );
        assert_eq!(r.iter().sum::<u64>(), ms(10).as_nanos() as u64);
    }

    #[test]
    fn governor_sheds_hopeless_deadlines_up_front() {
        let clock = Arc::new(FakeClock::new());
        let mut g = OverloadGovernor::new(OverloadConfig::default(), Some(ms(10)), clock.now());
        // No cost estimate yet: everything is admitted.
        assert!(g.offer(user(0), 10, clock.now()).is_ok());
        let (popped, _) = g.pop(clock.now()).unwrap();
        assert!(popped.shed.is_none());
        // Observed cost 6ms against a 10ms budget: a queue of one means
        // the *second* arrival would wait 12ms > budget — hopeless.
        g.record_cost(ms(6));
        assert!(g.offer(user(1), 10, clock.now()).is_ok());
        assert_eq!(
            g.offer(user(2), 10, clock.now()),
            Err(ShedReason::DeadlineHopeless)
        );
        // Dequeue-time check too: a head that already waited 7ms has
        // 3ms of budget left, under the 6ms cost estimate.
        clock.advance(ms(7));
        let (popped, _) = g.pop(clock.now()).unwrap();
        assert_eq!(popped.shed, Some(ShedReason::DeadlineHopeless));
    }

    #[test]
    fn identical_schedules_make_identical_decisions() {
        // The determinism contract: run the same arrival schedule twice
        // and every shed decision and ladder transition must match.
        let run = || {
            let cfg = OverloadConfig {
                queue_capacity: 6,
                codel_target: ms(1),
                codel_interval: ms(10),
                ewma_alpha: 0.5,
                step_down: ms(2),
                step_up: ms(1),
                recover_hold: ms(20),
                ..OverloadConfig::default()
            };
            let clock = FakeClock::new();
            let mut g = OverloadGovernor::new(cfg, Some(ms(50)), clock.now());
            let mut decisions: Vec<String> = Vec::new();
            for step in 0..200u32 {
                clock.advance(Duration::from_micros(700));
                let now = clock.now();
                // Bursty phase every other 50 steps: two arrivals per
                // step; drain one request per step throughout.
                let arrivals = if (step / 50) % 2 == 0 { 2 } else { 1 };
                for a in 0..arrivals {
                    match g.offer(user(step * 4 + a), 10, now) {
                        Ok(()) => decisions.push(format!("admit {step}.{a}")),
                        Err(r) => decisions.push(format!("shed {step}.{a} {}", r.metric_label())),
                    }
                }
                if let Some((popped, transition)) = g.pop(now) {
                    g.record_cost(ms(3));
                    decisions.push(format!(
                        "pop {} shed={:?}",
                        popped.request.user.0, popped.shed
                    ));
                    if let Some(t) = transition {
                        decisions.push(format!("ladder {}->{}", t.from.label(), t.to.label()));
                    }
                }
            }
            decisions
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical schedules must replay bit-for-bit");
        assert!(
            a.iter().any(|d| d.starts_with("shed")),
            "the bursty schedule must actually shed: {a:?}"
        );
        assert!(
            a.iter().any(|d| d.starts_with("ladder")),
            "the bursty schedule must actually transition: {a:?}"
        );
    }
}
