//! Deterministic load generator for the serving engine.
//!
//! Library traffic is far from uniform: a handful of readers dominate
//! the request stream (the same long-tail skew the paper observes in
//! loans), and load arrives in diurnal waves with sharp bursts around
//! opening hours. The generator models both:
//!
//! * **Who asks** — users are drawn from a Zipf distribution over the
//!   training matrix ([`ZipfWeights`] + alias table), seeded so every
//!   run issues the identical request schedule.
//! * **When they ask** — a base request rate is modulated by a cycle of
//!   phase multipliers (`phases`), so a schedule like `[1, 1, 10, 1]`
//!   produces a 10× burst every third phase.
//!
//! Arrivals are issued **open-loop** (requests keep arriving on
//! schedule whether or not the engine keeps up — the regime where
//! overload happens) or **closed-loop** (the next request waits for the
//! previous answer — the regime where latency is measured unqueued).
//! All time flows through the engine's [`Clock`](rm_util::clock::Clock),
//! so a [`FakeClock`](rm_util::clock::FakeClock) plus
//! [`OverloadConfig::service_cost`](crate::overload::OverloadConfig::service_cost)
//! makes the whole experiment a discrete-event simulation: byte-identical
//! reports on every run, which is what lets `BENCH_serve.json` act as a
//! committed SLO gate.
//!
//! The resulting [`LoadReport`] carries latency quantiles, shed counts,
//! availability (answered ÷ non-shed requests), brownout-level
//! residency, and the [`SloSpec`] verdict. Its JSON says whether the
//! latencies are simulated (the engine's overload config sets
//! `service_cost`) or measured.

use crate::engine::ServingEngine;
use crate::overload::DegradationLevel;
use rm_dataset::ids::UserIdx;
use rm_util::report::fmt_f64;
use rm_util::rng::rng_from_seed;
use rm_util::sample::ZipfWeights;
use rm_util::stats::Histogram;
use rm_util::RecError;
use std::fmt::Write as _;
use std::time::Duration;

/// Service-level objective a load run is judged against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Highest acceptable p99 admission-to-answer latency.
    pub p99_limit: Duration,
    /// Lowest acceptable availability (answered ÷ non-shed requests).
    /// Shedding is the *mechanism* that protects this floor: a shed
    /// request is an explicit, fast "no" rather than a timeout, so it
    /// counts against [`LoadReport::shed_rate`], not availability.
    pub availability_floor: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        Self {
            p99_limit: Duration::from_millis(50),
            availability_floor: 0.999,
        }
    }
}

/// How the generator paces requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalMode {
    /// Requests arrive on schedule regardless of engine progress; the
    /// admission queue absorbs (and sheds) the excess.
    Open,
    /// Each request waits for the previous answer — no queueing, the
    /// baseline latency regime.
    Closed,
}

impl ArrivalMode {
    /// Stable lowercase label (reports, CLI flags).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Open => "open",
            Self::Closed => "closed",
        }
    }
}

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total requests to issue.
    pub requests: usize,
    /// Recommendations per request.
    pub k: usize,
    /// Zipf exponent for the user popularity skew (1.0 ≈ classic Zipf).
    pub zipf_exponent: f64,
    /// Seed for the user-draw RNG (the schedule is otherwise fixed).
    pub seed: u64,
    /// Baseline arrival rate, requests per second.
    pub base_rps: f64,
    /// Rate multipliers cycled per phase — the diurnal/burst shape.
    /// `[1.0]` is a flat schedule; `[1.0, 10.0]` alternates calm and
    /// 10× burst phases.
    pub phases: Vec<f64>,
    /// Wall-clock length of one phase.
    pub phase_len: Duration,
    /// Open- or closed-loop pacing.
    pub mode: ArrivalMode,
    /// Objective the report is judged against.
    pub slo: SloSpec,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            requests: 400,
            k: 10,
            zipf_exponent: 1.0,
            seed: 42,
            base_rps: 200.0,
            phases: vec![1.0],
            phase_len: Duration::from_millis(250),
            mode: ArrivalMode::Open,
            slo: SloSpec::default(),
        }
    }
}

impl LoadgenConfig {
    /// Rate multiplier in force at absolute time `at`.
    fn phase_multiplier(&self, at: Duration) -> f64 {
        if self.phases.is_empty() {
            return 1.0;
        }
        let idx = (at.as_nanos() / self.phase_len.as_nanos().max(1)) as usize % self.phases.len();
        self.phases[idx]
    }

    /// Gap between an arrival at `at` and the next one.
    fn inter_arrival(&self, at: Duration) -> Duration {
        let rate = (self.base_rps * self.phase_multiplier(at)).max(1e-9);
        Duration::from_nanos((1e9 / rate).round() as u64)
    }
}

/// Outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Pacing mode the run used.
    pub mode: ArrivalMode,
    /// Whether service time was simulated: the engine's
    /// [`OverloadConfig::service_cost`](crate::overload::OverloadConfig::service_cost)
    /// was set, so each serve slept the configured cost on the engine
    /// clock and the latencies model a cost instead of measuring one.
    pub simulated: bool,
    /// Requests issued.
    pub requests: u64,
    /// Requests that got a recommendation list.
    pub answered: u64,
    /// Requests shed by admission control (at offer or at the queue
    /// head).
    pub shed: u64,
    /// Admission-to-answer latency of answered requests, nanoseconds.
    pub latency: Histogram,
    /// Per-level queue residency over the run, nanoseconds.
    pub level_residency_ns: [u64; DegradationLevel::COUNT],
    /// Per-level ladder entries over the run.
    pub level_entries: [u64; DegradationLevel::COUNT],
    /// Deepest brownout level the run reached.
    pub max_level: DegradationLevel,
    /// Objective the run was judged against.
    pub slo: SloSpec,
    /// Simulated wall time of the whole run, nanoseconds.
    pub elapsed_ns: u64,
}

impl LoadReport {
    /// Shed requests as a share of all issued requests.
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.shed as f64 / self.requests as f64
        }
    }

    /// Answered share of the requests admission control let through.
    /// `1.0` on an idle engine and — by design — still `1.0` under
    /// overload: excess load surfaces as shedding, not failures.
    #[must_use]
    pub fn availability(&self) -> f64 {
        let attempted = self.requests.saturating_sub(self.shed);
        if attempted == 0 {
            1.0
        } else {
            self.answered as f64 / attempted as f64
        }
    }

    /// p99 admission-to-answer latency.
    #[must_use]
    pub fn p99(&self) -> Duration {
        Duration::from_nanos(self.latency.quantile(0.99))
    }

    /// Whether the run met its [`SloSpec`].
    #[must_use]
    pub fn slo_met(&self) -> bool {
        self.availability() >= self.slo.availability_floor && self.p99() <= self.slo.p99_limit
    }

    /// Renders the report as JSON. Every field is either an integer
    /// count of nanoseconds/requests or a fixed-precision decimal, so a
    /// deterministic (fake-clock) run renders byte-identically — the
    /// property the committed `BENCH_serve.json` gate relies on.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"mode\": \"{}\",", self.mode.label());
        let _ = writeln!(
            s,
            "  \"latency_source\": \"{}\",",
            if self.simulated {
                "simulated"
            } else {
                "measured"
            }
        );
        let _ = writeln!(s, "  \"requests\": {},", self.requests);
        let _ = writeln!(s, "  \"answered\": {},", self.answered);
        let _ = writeln!(s, "  \"shed\": {},", self.shed);
        let _ = writeln!(s, "  \"shed_rate\": {},", fmt_f64(self.shed_rate(), 4));
        let _ = writeln!(
            s,
            "  \"availability\": {},",
            fmt_f64(self.availability(), 4)
        );
        let _ = writeln!(s, "  \"latency_ns\": {{");
        let _ = writeln!(s, "    \"p50\": {},", self.latency.quantile(0.50));
        let _ = writeln!(s, "    \"p95\": {},", self.latency.quantile(0.95));
        let _ = writeln!(s, "    \"p99\": {},", self.latency.quantile(0.99));
        let _ = writeln!(s, "    \"max\": {}", self.latency.max());
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"max_level\": \"{}\",", self.max_level.label());
        let _ = writeln!(s, "  \"levels\": [");
        for (i, level) in DegradationLevel::ALL.iter().enumerate() {
            let comma = if i + 1 < DegradationLevel::COUNT {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "    {{\"level\": \"{}\", \"entries\": {}, \"residency_ns\": {}}}{comma}",
                level.label(),
                self.level_entries[level.index()],
                self.level_residency_ns[level.index()],
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"slo\": {{");
        let _ = writeln!(
            s,
            "    \"p99_limit_ns\": {},",
            u64::try_from(self.slo.p99_limit.as_nanos()).unwrap_or(u64::MAX)
        );
        let _ = writeln!(
            s,
            "    \"availability_floor\": {},",
            fmt_f64(self.slo.availability_floor, 4)
        );
        let _ = writeln!(s, "    \"met\": {}", self.slo_met());
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"elapsed_ns\": {}", self.elapsed_ns);
        s.push_str("}\n");
        s
    }

    /// One-paragraph human summary for CLI output.
    #[must_use]
    pub fn render_summary(&self) -> String {
        format!(
            "loadgen ({}): {} requests, {} answered, {} shed ({} rate); \
             availability {}; p50/p95/p99 = {}/{}/{} us; max level {}; \
             SLO {}",
            self.mode.label(),
            self.requests,
            self.answered,
            self.shed,
            fmt_f64(self.shed_rate(), 3),
            fmt_f64(self.availability(), 4),
            fmt_f64(self.latency.quantile(0.50) as f64 / 1_000.0, 1),
            fmt_f64(self.latency.quantile(0.95) as f64 / 1_000.0, 1),
            fmt_f64(self.latency.quantile(0.99) as f64 / 1_000.0, 1),
            self.max_level.label(),
            if self.slo_met() { "met" } else { "MISSED" },
        )
    }
}

/// Runs the load schedule against `engine` and reports the outcome.
///
/// The engine must have admission control configured
/// ([`EngineConfig::overload`](crate::engine::EngineConfig::overload)) —
/// the generator drives [`ServingEngine::offer`] (the open loop through
/// [`ServingEngine::offer_at`], at each request's due time) and
/// [`ServingEngine::serve_queued`] exclusively, so every request crosses
/// the governor. The run is single-threaded discrete-event: at each step
/// all due arrivals are offered, then one queued request is served (the
/// engine's clock advances through simulated or real service time), and
/// when the queue is idle the clock sleeps forward to the next arrival.
///
/// # Errors
///
/// [`RecError::Config`] when the engine has no overload governor.
pub fn run(engine: &ServingEngine, cfg: &LoadgenConfig) -> Result<LoadReport, RecError> {
    let n_users = engine.n_users().max(1);
    let alias = ZipfWeights::new(cfg.zipf_exponent).alias_table(n_users);
    let mut rng = rng_from_seed(cfg.seed);
    let clock = &engine.config().clock;

    let started = clock.now();
    let mut latency = Histogram::new();
    let mut answered = 0u64;
    let mut shed = 0u64;
    let mut max_level = DegradationLevel::Full;
    let mut issued = 0usize;
    let mut next_arrival = started;

    let record = |outcome: crate::engine::QueuedOutcome,
                  latency: &mut Histogram,
                  answered: &mut u64,
                  shed: &mut u64,
                  max_level: &mut DegradationLevel| {
        if outcome.level > *max_level {
            *max_level = outcome.level;
        }
        match outcome.result {
            Ok(_) => {
                *answered += 1;
                latency.record(u64::try_from(outcome.sojourn.as_nanos()).unwrap_or(u64::MAX));
            }
            Err(_) => *shed += 1,
        }
    };

    match cfg.mode {
        ArrivalMode::Open => loop {
            let now = clock.now();
            while issued < cfg.requests && next_arrival <= now {
                let user = UserIdx(alias.sample(&mut rng) as u32);
                // Stamped with its due time, so running late counts.
                match engine.offer_at(user, cfg.k, next_arrival) {
                    Ok(()) => {}
                    Err(e @ RecError::Config(_)) => return Err(e),
                    Err(_) => shed += 1,
                }
                let gap = cfg.inter_arrival(next_arrival.saturating_sub(started));
                next_arrival += gap;
                issued += 1;
            }
            if let Some(outcome) = engine.serve_queued() {
                record(
                    outcome,
                    &mut latency,
                    &mut answered,
                    &mut shed,
                    &mut max_level,
                );
            } else if issued < cfg.requests {
                let now = clock.now();
                if next_arrival > now {
                    clock.sleep(next_arrival - now);
                }
            } else {
                break;
            }
        },
        ArrivalMode::Closed => {
            while issued < cfg.requests {
                let user = UserIdx(alias.sample(&mut rng) as u32);
                match engine.offer(user, cfg.k) {
                    Err(e @ RecError::Config(_)) => return Err(e),
                    Err(_) => shed += 1,
                    Ok(()) => {
                        while let Some(outcome) = engine.serve_queued() {
                            record(
                                outcome,
                                &mut latency,
                                &mut answered,
                                &mut shed,
                                &mut max_level,
                            );
                        }
                    }
                }
                issued += 1;
            }
        }
    }
    // Drain any stragglers so the report accounts for every request.
    while let Some(outcome) = engine.serve_queued() {
        record(
            outcome,
            &mut latency,
            &mut answered,
            &mut shed,
            &mut max_level,
        );
    }

    let snapshot = engine.metrics();
    Ok(LoadReport {
        mode: cfg.mode,
        simulated: engine
            .config()
            .overload
            .as_ref()
            .is_some_and(|o| o.service_cost.is_some()),
        requests: issued as u64,
        answered,
        shed,
        latency,
        level_residency_ns: snapshot.level_residency_ns,
        level_entries: snapshot.level_entries,
        max_level,
        slo: cfg.slo,
        elapsed_ns: u64::try_from(clock.now().saturating_sub(started).as_nanos())
            .unwrap_or(u64::MAX),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_multiplier_cycles_through_schedule() {
        let cfg = LoadgenConfig {
            phases: vec![1.0, 10.0, 2.0],
            phase_len: Duration::from_millis(100),
            ..LoadgenConfig::default()
        };
        assert_eq!(cfg.phase_multiplier(Duration::from_millis(0)), 1.0);
        assert_eq!(cfg.phase_multiplier(Duration::from_millis(150)), 10.0);
        assert_eq!(cfg.phase_multiplier(Duration::from_millis(250)), 2.0);
        // Wraps back around: the diurnal cycle repeats.
        assert_eq!(cfg.phase_multiplier(Duration::from_millis(310)), 1.0);
    }

    #[test]
    fn inter_arrival_tracks_the_burst_phase() {
        let cfg = LoadgenConfig {
            base_rps: 100.0,
            phases: vec![1.0, 10.0],
            phase_len: Duration::from_millis(100),
            ..LoadgenConfig::default()
        };
        assert_eq!(
            cfg.inter_arrival(Duration::from_millis(10)),
            Duration::from_millis(10)
        );
        assert_eq!(
            cfg.inter_arrival(Duration::from_millis(110)),
            Duration::from_millis(1)
        );
    }

    #[test]
    fn report_math_and_json_are_stable() {
        let mut latency = Histogram::new();
        for v in [10_000u64, 20_000, 30_000, 40_000] {
            latency.record(v);
        }
        let report = LoadReport {
            mode: ArrivalMode::Open,
            simulated: true,
            requests: 10,
            answered: 4,
            shed: 6,
            latency,
            level_residency_ns: [100, 200, 0, 0, 0],
            level_entries: [1, 2, 0, 0, 0],
            max_level: DegradationLevel::DropExpensiveSources,
            slo: SloSpec::default(),
            elapsed_ns: 1_000_000,
        };
        assert!((report.shed_rate() - 0.6).abs() < 1e-12);
        // All four admitted requests answered: availability holds at 1.
        assert!((report.availability() - 1.0).abs() < 1e-12);
        assert!(report.slo_met());
        let a = report.render_json();
        let b = report.render_json();
        assert_eq!(a, b);
        assert!(a.contains("\"shed\": 6"), "{a}");
        assert!(a.contains("\"availability\": 1"), "{a}");
        assert!(a.contains("\"max_level\": \"drop_expensive_sources\""));
        assert!(a.contains("\"met\": true"), "{a}");
        assert!(a.contains("\"latency_source\": \"simulated\""), "{a}");
        assert!(report.render_summary().contains("SLO met"));
    }

    #[test]
    fn missed_slo_is_reported() {
        let mut latency = Histogram::new();
        latency.record(Duration::from_millis(80).as_nanos() as u64);
        let report = LoadReport {
            mode: ArrivalMode::Closed,
            simulated: false,
            requests: 2,
            answered: 1,
            shed: 0,
            latency,
            level_residency_ns: [0; DegradationLevel::COUNT],
            level_entries: [0; DegradationLevel::COUNT],
            max_level: DegradationLevel::Full,
            slo: SloSpec::default(),
            elapsed_ns: 0,
        };
        // One admitted request never answered and p99 over budget.
        assert!(report.availability() < 0.999);
        assert!(!report.slo_met());
        let json = report.render_json();
        assert!(json.contains("\"met\": false"), "{json}");
        assert!(json.contains("\"latency_source\": \"measured\""), "{json}");
    }
}
