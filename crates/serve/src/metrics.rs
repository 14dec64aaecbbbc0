//! Request metrics for the serving engine.
//!
//! One mutex-guarded accumulator shared by every worker thread: request
//! and cache-hit counters, a quarter-octave latency
//! [`Histogram`](rm_util::stats::Histogram) in nanoseconds, per-slot
//! serve / fallback counts, and the fault-tolerance counters — slot-call
//! timeouts, isolated panics, circuit-breaker skips and state
//! transitions, deadline-exhausted requests, and worker-thread panics.
//! All wall-clock time flows through the engine's
//! [`Clock`](rm_util::clock::Clock), so QPS and elapsed time are exact
//! (and testable) under a fake clock. [`ServeMetrics::snapshot`] clones
//! the state out; [`MetricsSnapshot::render`] formats it with the same
//! [`Table`](rm_util::report::Table) renderer the evaluation reports
//! use, and [`MetricsSnapshot::render_prometheus`] emits the standard
//! text exposition format (counters, gauges, a cumulative-bucket latency
//! histogram, and — when provided — live breaker states).

use crate::breaker::BreakerState;
use crate::engine::ModelSlot;
use crate::overload::{DegradationLevel, ShedReason};
use rm_util::clock::Clock;
use rm_util::report::{fmt_f64, Table};
use rm_util::stats::Histogram;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Everything one served chunk contributes to the counters, accumulated
/// lock-free during the chain walk and folded in under a single lock
/// acquisition by [`ServeMetrics::record_chunk`].
#[derive(Debug, Default, Clone)]
pub struct ChunkStats {
    /// Requests in the chunk.
    pub n: u64,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Wall-clock time serving the chunk (amortised per request).
    pub elapsed: Duration,
    /// Requests served per slot.
    pub served: [u64; ModelSlot::COUNT],
    /// Per-request fall-throughs per slot.
    pub fallbacks: [u64; ModelSlot::COUNT],
    /// Slot *calls* cut off by the per-slot budget.
    pub timeouts: [u64; ModelSlot::COUNT],
    /// Slot *calls* that panicked and were isolated.
    pub panics: [u64; ModelSlot::COUNT],
    /// Slot *calls* skipped because the breaker was open.
    pub breaker_skips: [u64; ModelSlot::COUNT],
    /// Breaker `→ Open` transitions.
    pub breaker_opened: [u64; ModelSlot::COUNT],
    /// Breaker `Open → HalfOpen` transitions (probes admitted).
    pub breaker_half_open: [u64; ModelSlot::COUNT],
    /// Breaker `HalfOpen → Closed` transitions (probes succeeded).
    pub breaker_closed: [u64; ModelSlot::COUNT],
    /// Requests answered empty because the request deadline expired.
    pub deadline_skips: u64,
}

impl ChunkStats {
    /// Stats for a chunk of `n` requests, `hits` of them cache hits.
    #[must_use]
    pub fn new(n: u64, hits: u64) -> Self {
        Self {
            n,
            hits,
            ..Self::default()
        }
    }
}

/// Thread-safe metrics accumulator owned by the engine: the counters
/// live in a [`MetricsSnapshot`] behind one mutex, and
/// [`ServeMetrics::snapshot`] clones it out.
#[derive(Debug)]
pub struct ServeMetrics {
    inner: Mutex<MetricsSnapshot>,
    clock: Arc<dyn Clock>,
    /// Clock reading when the metrics were created (the QPS
    /// denominator's origin).
    started: Duration,
}

impl ServeMetrics {
    /// Fresh metrics; the QPS clock starts at `clock`'s current reading.
    /// The engine passes its own clock so fake-clock tests (and chaos
    /// runs with simulated latency) see consistent QPS and elapsed time.
    #[must_use]
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        let started = clock.now();
        Self {
            inner: Mutex::new(MetricsSnapshot::default()),
            clock,
            started,
        }
    }

    /// Counters are plain accumulators, so a panic that poisoned the
    /// mutex left them merely mid-update — recover the data rather than
    /// letting one isolated panic take metrics (and serving) down.
    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsSnapshot> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Folds a whole served chunk into the counters in one lock
    /// acquisition; each of its requests is accounted the amortised
    /// per-request latency. A zero-request chunk records no latency
    /// (there is nothing to amortise over) but its fault counters —
    /// breaker transitions, timeouts — still land.
    pub fn record_chunk(&self, stats: &ChunkStats) {
        let mut c = self.lock();
        c.requests += stats.n;
        c.cache_hits += stats.hits;
        if stats.n > 0 {
            let per_request = (stats.elapsed.as_nanos() / u128::from(stats.n)) as u64;
            c.latency.record_n(per_request, stats.n);
        }
        for i in 0..ModelSlot::COUNT {
            c.served[i] += stats.served[i];
            c.fallbacks[i] += stats.fallbacks[i];
            c.timeouts[i] += stats.timeouts[i];
            c.panics[i] += stats.panics[i];
            c.breaker_skips[i] += stats.breaker_skips[i];
            c.breaker_opened[i] += stats.breaker_opened[i];
            c.breaker_half_open[i] += stats.breaker_half_open[i];
            c.breaker_closed[i] += stats.breaker_closed[i];
        }
        c.deadline_skips += stats.deadline_skips;
    }

    /// Records a batch worker that panicked: its `n` requests were
    /// answered empty so the rest of the batch could still return.
    pub fn record_worker_panic(&self, n: u64) {
        let mut c = self.lock();
        c.requests += n;
        c.worker_panics += 1;
    }

    /// Records a request shed by admission control. Shed requests never
    /// reach a model, so they count here — not in `requests` — and
    /// availability stays the fraction of *admitted* requests answered.
    pub fn record_shed(&self, reason: ShedReason) {
        self.lock().shed[reason.index()] += 1;
    }

    /// A point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let elapsed = self.clock.now().saturating_sub(self.started);
        MetricsSnapshot {
            elapsed,
            ..self.lock().clone()
        }
    }
}

/// An immutable copy of the serving counters.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Total requests (cache hits included).
    pub requests: u64,
    /// Requests answered from the LRU cache.
    pub cache_hits: u64,
    /// Request latency histogram, nanoseconds.
    pub latency: Histogram,
    /// Requests served per model slot (indexed by [`ModelSlot::index`]).
    pub served: [u64; ModelSlot::COUNT],
    /// Fall-throughs per model slot.
    pub fallbacks: [u64; ModelSlot::COUNT],
    /// Slot calls cut off by the per-slot deadline budget.
    pub timeouts: [u64; ModelSlot::COUNT],
    /// Slot calls that panicked and were isolated by the engine.
    pub panics: [u64; ModelSlot::COUNT],
    /// Slot calls skipped by an open circuit breaker.
    pub breaker_skips: [u64; ModelSlot::COUNT],
    /// Circuit-breaker `→ Open` transitions per slot.
    pub breaker_opened: [u64; ModelSlot::COUNT],
    /// Circuit-breaker `Open → HalfOpen` transitions per slot.
    pub breaker_half_open: [u64; ModelSlot::COUNT],
    /// Circuit-breaker `HalfOpen → Closed` transitions per slot.
    pub breaker_closed: [u64; ModelSlot::COUNT],
    /// Requests answered empty because their deadline expired mid-chain.
    pub deadline_skips: u64,
    /// Batch worker threads that panicked (requests degraded to empty).
    pub worker_panics: u64,
    /// Requests shed by admission control, per [`ShedReason::index`].
    /// Shed requests are not in `requests` — they never reached a model.
    pub shed: [u64; ShedReason::COUNT],
    /// Current brownout rung, as [`DegradationLevel::index`] (`0` =
    /// full service). Filled by the engine from its governor; bare
    /// [`ServeMetrics::snapshot`] calls report `0`.
    pub degradation_level: u8,
    /// Ladder transitions *into* each level, per
    /// [`DegradationLevel::index`] (engine-filled, like the gauge).
    pub level_entries: [u64; DegradationLevel::COUNT],
    /// Nanoseconds of residency at each level (engine-filled).
    pub level_residency_ns: [u64; DegradationLevel::COUNT],
    /// Estimated bytes held by the answer cache (entries × answer
    /// length × 4 plus per-entry bookkeeping). Filled by the engine
    /// from its live cache; bare [`ServeMetrics::snapshot`] calls
    /// report `0`.
    pub cache_bytes_estimate: u64,
    /// Clock time since the metrics were created.
    pub elapsed: Duration,
}

impl MetricsSnapshot {
    /// Requests per second over the metrics' lifetime.
    #[must_use]
    pub fn qps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.requests as f64 / secs
    }

    /// Cache hits over total requests; `0.0` before the first request.
    #[must_use]
    pub fn cache_hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.requests as f64
    }

    /// Fraction of requests that were answered with a non-degraded
    /// outcome: everything except deadline-exhausted requests, requests
    /// the whole chain failed, and worker-panic blanks. Cache hits and
    /// fallback-served requests count as available.
    #[must_use]
    pub fn availability(&self) -> f64 {
        if self.requests == 0 {
            return 1.0;
        }
        let answered = self.cache_hits + self.served.iter().sum::<u64>();
        answered as f64 / self.requests as f64
    }

    /// Total requests shed by admission control, all reasons combined.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Shed requests over everything that arrived (admitted + shed);
    /// `0.0` before the first arrival.
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        let arrived = self.requests + self.shed_total();
        if arrived == 0 {
            return 0.0;
        }
        self.shed_total() as f64 / arrived as f64
    }

    /// The latency/throughput summary table.
    #[must_use]
    pub fn latency_table(&self) -> Table {
        let mut t = Table::new(["metric", "value"]);
        t.push_row(["requests".to_owned(), self.requests.to_string()]);
        t.push_row(["qps".to_owned(), fmt_f64(self.qps(), 1)]);
        t.push_row([
            "cache hit ratio".to_owned(),
            fmt_f64(self.cache_hit_ratio(), 3),
        ]);
        for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            t.push_row([
                format!("latency {label}"),
                fmt_micros(self.latency.quantile(q)),
            ]);
        }
        t.push_row([
            "latency mean".to_owned(),
            fmt_micros(self.latency.mean() as u64),
        ]);
        t.push_row(["latency max".to_owned(), fmt_micros(self.latency.max())]);
        t.push_row(["deadline skips".to_owned(), self.deadline_skips.to_string()]);
        t.push_row(["worker panics".to_owned(), self.worker_panics.to_string()]);
        t.push_row(["shed requests".to_owned(), self.shed_total().to_string()]);
        t.push_row([
            "degradation level".to_owned(),
            DegradationLevel::from_index(self.degradation_level as usize)
                .label()
                .to_owned(),
        ]);
        t
    }

    /// The per-slot serve/fault table, in chain order. `timeouts`,
    /// `panics`, and `brk skips` count slot *calls* (a batched chunk is
    /// one call); `served`/`fallbacks` count requests.
    #[must_use]
    pub fn slot_table(&self) -> Table {
        let mut t = Table::new([
            "model",
            "served",
            "fallbacks",
            "timeouts",
            "panics",
            "brk skips",
        ]);
        for slot in ModelSlot::ALL {
            let i = slot.index();
            t.push_row([
                slot.label().to_owned(),
                self.served[i].to_string(),
                self.fallbacks[i].to_string(),
                self.timeouts[i].to_string(),
                self.panics[i].to_string(),
                self.breaker_skips[i].to_string(),
            ]);
        }
        t
    }

    /// Circuit-breaker transition counts per slot.
    #[must_use]
    pub fn breaker_table(&self) -> Table {
        let mut t = Table::new(["model", "opened", "half-open", "closed"]);
        for slot in ModelSlot::ALL {
            let i = slot.index();
            t.push_row([
                slot.label().to_owned(),
                self.breaker_opened[i].to_string(),
                self.breaker_half_open[i].to_string(),
                self.breaker_closed[i].to_string(),
            ]);
        }
        t
    }

    /// All three tables, ready to print.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}\n{}\n{}",
            self.latency_table().render(),
            self.slot_table().render(),
            self.breaker_table().render()
        )
    }

    /// Prometheus text exposition of every counter in the snapshot:
    /// totals, gauges, per-slot counters, breaker transition counts, the
    /// latency histogram with cumulative `le` buckets (in seconds), and
    /// — when `breakers` is given — the live breaker state per slot
    /// (`0` closed, `1` half-open, `2` open). The numbers are the same
    /// ones [`MetricsSnapshot::render`] prints as tables.
    #[must_use]
    pub fn render_prometheus(&self, breakers: Option<[BreakerState; ModelSlot::COUNT]>) -> String {
        let mut out = String::with_capacity(4096);
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}"
            );
        };
        let gauge = |out: &mut String, name: &str, help: &str, value: f64| {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}"
            );
        };
        counter(
            &mut out,
            "rm_serve_requests_total",
            "Total requests (cache hits included).",
            self.requests,
        );
        counter(
            &mut out,
            "rm_serve_cache_hits_total",
            "Requests answered from the LRU cache.",
            self.cache_hits,
        );
        counter(
            &mut out,
            "rm_serve_deadline_skips_total",
            "Requests answered empty because their deadline expired.",
            self.deadline_skips,
        );
        counter(
            &mut out,
            "rm_serve_worker_panics_total",
            "Batch worker threads that panicked.",
            self.worker_panics,
        );
        gauge(
            &mut out,
            "rm_serve_qps",
            "Requests per second since metrics creation.",
            self.qps(),
        );
        gauge(
            &mut out,
            "rm_serve_cache_hit_ratio",
            "Cache hits over total requests.",
            self.cache_hit_ratio(),
        );
        gauge(
            &mut out,
            "rm_serve_availability",
            "Fraction of requests answered non-degraded.",
            self.availability(),
        );
        gauge(
            &mut out,
            "rm_serve_cache_bytes_estimate",
            "Estimated bytes held by the answer cache.",
            self.cache_bytes_estimate as f64,
        );
        counter(
            &mut out,
            "rm_serve_latency_overflow_total",
            "Latency samples saturating the histogram's top bucket.",
            self.latency.overflow(),
        );

        let name = "rm_serve_shed_total";
        let _ = writeln!(
            out,
            "# HELP {name} Requests shed by admission control.\n# TYPE {name} counter"
        );
        for reason in ShedReason::ALL {
            let _ = writeln!(
                out,
                "{name}{{reason=\"{}\"}} {}",
                reason.metric_label(),
                self.shed[reason.index()]
            );
        }
        gauge(
            &mut out,
            "rm_serve_degradation_level",
            "Current brownout rung (0 full service .. 4 most-read only).",
            f64::from(self.degradation_level),
        );
        let per_level: [(&str, &str, &[u64; DegradationLevel::COUNT]); 2] = [
            (
                "rm_serve_degradation_entries_total",
                "Brownout-ladder transitions into each level.",
                &self.level_entries,
            ),
            (
                "rm_serve_degradation_residency_ns_total",
                "Nanoseconds of residency at each brownout level.",
                &self.level_residency_ns,
            ),
        ];
        for (name, help, values) in per_level {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} counter");
            for level in DegradationLevel::ALL {
                let _ = writeln!(
                    out,
                    "{name}{{level=\"{}\"}} {}",
                    level.label(),
                    values[level.index()]
                );
            }
        }

        let per_slot: [(&str, &str, &[u64; ModelSlot::COUNT]); 8] = [
            (
                "rm_serve_served_total",
                "Requests served per model slot.",
                &self.served,
            ),
            (
                "rm_serve_fallbacks_total",
                "Per-request fall-throughs per model slot.",
                &self.fallbacks,
            ),
            (
                "rm_serve_slot_timeouts_total",
                "Slot calls cut off by the per-slot budget.",
                &self.timeouts,
            ),
            (
                "rm_serve_slot_panics_total",
                "Slot calls that panicked and were isolated.",
                &self.panics,
            ),
            (
                "rm_serve_breaker_skips_total",
                "Slot calls skipped by an open circuit breaker.",
                &self.breaker_skips,
            ),
            (
                "rm_serve_breaker_opened_total",
                "Circuit-breaker transitions to Open.",
                &self.breaker_opened,
            ),
            (
                "rm_serve_breaker_half_open_total",
                "Circuit-breaker transitions to HalfOpen.",
                &self.breaker_half_open,
            ),
            (
                "rm_serve_breaker_closed_total",
                "Circuit-breaker transitions to Closed.",
                &self.breaker_closed,
            ),
        ];
        for (name, help, values) in per_slot {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} counter");
            for slot in ModelSlot::ALL {
                let _ = writeln!(
                    out,
                    "{name}{{slot=\"{}\"}} {}",
                    slot.metric_label(),
                    values[slot.index()]
                );
            }
        }

        if let Some(states) = breakers {
            let name = "rm_serve_breaker_state";
            let _ = writeln!(
                out,
                "# HELP {name} Live breaker state per slot (0 closed, 1 half-open, 2 open).\n\
                 # TYPE {name} gauge"
            );
            for slot in ModelSlot::ALL {
                let value = match states[slot.index()] {
                    BreakerState::Closed => 0,
                    BreakerState::HalfOpen => 1,
                    BreakerState::Open => 2,
                };
                let _ = writeln!(out, "{name}{{slot=\"{}\"}} {value}", slot.metric_label());
            }
        }

        let name = "rm_serve_request_latency_seconds";
        let _ = writeln!(
            out,
            "# HELP {name} Request latency distribution.\n# TYPE {name} histogram"
        );
        for (upper_ns, cumulative) in self.latency.cumulative_buckets() {
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                upper_ns as f64 / 1e9
            );
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", self.latency.count());
        let _ = writeln!(out, "{name}_sum {}", self.latency.sum() as f64 / 1e9);
        let _ = writeln!(out, "{name}_count {}", self.latency.count());
        out
    }
}

/// Nanoseconds as a human-readable microsecond figure.
fn fmt_micros(nanos: u64) -> String {
    format!("{} us", fmt_f64(nanos as f64 / 1_000.0, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_util::clock::FakeClock;

    /// Metrics on a fake clock that stands still.
    fn metrics() -> ServeMetrics {
        ServeMetrics::new(Arc::new(FakeClock::new()))
    }

    /// Records one request answered from the cache in `latency`.
    fn hit(m: &ServeMetrics, latency: Duration) {
        let mut stats = ChunkStats::new(1, 1);
        stats.elapsed = latency;
        m.record_chunk(&stats);
    }

    /// Records one request served by `slot` in `latency`, after falling
    /// through each of `fell_through`.
    fn serve(m: &ServeMetrics, latency: Duration, slot: ModelSlot, fell_through: &[ModelSlot]) {
        let mut stats = ChunkStats::new(1, 0);
        stats.elapsed = latency;
        stats.served[slot.index()] = 1;
        for s in fell_through {
            stats.fallbacks[s.index()] += 1;
        }
        m.record_chunk(&stats);
    }

    #[test]
    fn counters_accumulate() {
        let m = metrics();
        serve(&m, Duration::from_micros(100), ModelSlot::Bpr, &[]);
        serve(
            &m,
            Duration::from_micros(200),
            ModelSlot::MostRead,
            &[ModelSlot::Bpr, ModelSlot::ClosestItems],
        );
        hit(&m, Duration::from_micros(1));
        let s = m.snapshot();
        assert_eq!(s.requests, 3);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.served[ModelSlot::Bpr.index()], 1);
        assert_eq!(s.served[ModelSlot::MostRead.index()], 1);
        assert_eq!(s.fallbacks[ModelSlot::Bpr.index()], 1);
        assert_eq!(s.fallbacks[ModelSlot::ClosestItems.index()], 1);
        assert_eq!(s.latency.count(), 3);
        assert!((s.cache_hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn chunk_stats_fold_in_fault_counters() {
        let m = metrics();
        let mut stats = ChunkStats::new(8, 2);
        stats.elapsed = Duration::from_micros(800);
        stats.served[ModelSlot::ClosestItems.index()] = 6;
        stats.fallbacks[ModelSlot::Bpr.index()] = 6;
        stats.timeouts[ModelSlot::Bpr.index()] = 1;
        stats.panics[ModelSlot::Bpr.index()] = 1;
        stats.breaker_skips[ModelSlot::Bpr.index()] = 3;
        stats.breaker_opened[ModelSlot::Bpr.index()] = 1;
        stats.breaker_half_open[ModelSlot::Bpr.index()] = 1;
        stats.breaker_closed[ModelSlot::Bpr.index()] = 1;
        stats.deadline_skips = 2;
        m.record_chunk(&stats);
        m.record_worker_panic(4);

        let s = m.snapshot();
        let i = ModelSlot::Bpr.index();
        assert_eq!(s.requests, 12);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.timeouts[i], 1);
        assert_eq!(s.panics[i], 1);
        assert_eq!(s.breaker_skips[i], 3);
        assert_eq!(s.breaker_opened[i], 1);
        assert_eq!(s.breaker_half_open[i], 1);
        assert_eq!(s.breaker_closed[i], 1);
        assert_eq!(s.deadline_skips, 2);
        assert_eq!(s.worker_panics, 1);
        // 2 hits + 6 served out of 12 requests answered non-degraded.
        assert!((s.availability() - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn zero_request_chunk_is_safe_and_keeps_fault_counters() {
        // Regression: `elapsed / n` must not divide by a zero request
        // count — and a zero-request chunk can still carry breaker
        // transitions that must not be silently dropped.
        let m = metrics();
        let mut stats = ChunkStats::new(0, 0);
        stats.elapsed = Duration::from_micros(50);
        stats.breaker_opened[ModelSlot::Bpr.index()] = 1;
        stats.timeouts[ModelSlot::Bpr.index()] = 1;
        m.record_chunk(&stats);
        let s = m.snapshot();
        assert_eq!(s.requests, 0);
        assert_eq!(s.latency.count(), 0, "nothing to amortise latency over");
        assert_eq!(s.breaker_opened[ModelSlot::Bpr.index()], 1);
        assert_eq!(s.timeouts[ModelSlot::Bpr.index()], 1);
    }

    #[test]
    fn qps_and_elapsed_follow_the_injected_clock() {
        let clock = Arc::new(FakeClock::new());
        let m = ServeMetrics::new(Arc::clone(&clock) as Arc<dyn Clock>);
        for _ in 0..30 {
            hit(&m, Duration::from_micros(2));
        }
        clock.advance(Duration::from_secs(3));
        let s = m.snapshot();
        assert_eq!(s.elapsed, Duration::from_secs(3));
        assert!((s.qps() - 10.0).abs() < 1e-9, "qps = {}", s.qps());
    }

    #[test]
    fn empty_snapshot_is_safe() {
        let s = metrics().snapshot();
        assert_eq!(s.requests, 0);
        assert_eq!(s.cache_hit_ratio(), 0.0);
        assert_eq!(s.availability(), 1.0);
        assert_eq!(s.latency.quantile(0.99), 0);
        // QPS may be 0/epsilon but must not be NaN.
        assert!(s.qps().is_finite());
    }

    #[test]
    fn render_mentions_every_headline_number() {
        let m = metrics();
        serve(&m, Duration::from_micros(50), ModelSlot::Random, &[]);
        let text = m.snapshot().render();
        for needle in [
            "p50",
            "p95",
            "p99",
            "cache hit ratio",
            "qps",
            "Random Items",
            "timeouts",
            "panics",
            "brk skips",
            "half-open",
            "deadline skips",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    /// Pulls the numeric value of `name` (exact match, labels included)
    /// out of a Prometheus text exposition.
    fn prom_value(text: &str, name: &str) -> f64 {
        let line = text
            .lines()
            .find(|l| l.strip_prefix(name).is_some_and(|r| r.starts_with(' ')))
            .unwrap_or_else(|| panic!("metric {name} missing in:\n{text}"));
        line.rsplit(' ').next().unwrap().parse().unwrap()
    }

    #[test]
    fn prometheus_roundtrips_the_snapshot_counters() {
        let clock = Arc::new(FakeClock::new());
        let m = ServeMetrics::new(Arc::clone(&clock) as Arc<dyn Clock>);
        serve(&m, Duration::from_micros(100), ModelSlot::Bpr, &[]);
        serve(
            &m,
            Duration::from_micros(300),
            ModelSlot::MostRead,
            &[ModelSlot::Bpr],
        );
        hit(&m, Duration::from_micros(1));
        clock.advance(Duration::from_secs(1));
        let s = m.snapshot();
        let text = s.render_prometheus(Some([
            BreakerState::Closed,
            BreakerState::Open,
            BreakerState::HalfOpen,
            BreakerState::Closed,
        ]));

        // Every counter the human-readable tables show round-trips.
        assert_eq!(prom_value(&text, "rm_serve_requests_total"), 3.0);
        assert_eq!(prom_value(&text, "rm_serve_cache_hits_total"), 1.0);
        assert_eq!(
            prom_value(&text, "rm_serve_served_total{slot=\"bpr\"}"),
            s.served[ModelSlot::Bpr.index()] as f64
        );
        assert_eq!(
            prom_value(&text, "rm_serve_served_total{slot=\"most_read\"}"),
            1.0
        );
        assert_eq!(
            prom_value(&text, "rm_serve_fallbacks_total{slot=\"bpr\"}"),
            1.0
        );
        assert!((prom_value(&text, "rm_serve_qps") - s.qps()).abs() < 1e-9);
        assert!(
            (prom_value(&text, "rm_serve_cache_hit_ratio") - s.cache_hit_ratio()).abs() < 1e-12
        );
        // Live breaker states (0 closed / 1 half-open / 2 open).
        assert_eq!(
            prom_value(&text, "rm_serve_breaker_state{slot=\"closest_items\"}"),
            2.0
        );
        assert_eq!(
            prom_value(&text, "rm_serve_breaker_state{slot=\"most_read\"}"),
            1.0
        );
        // Histogram: +Inf bucket, _count, and _sum agree with the data.
        assert_eq!(
            prom_value(
                &text,
                "rm_serve_request_latency_seconds_bucket{le=\"+Inf\"}"
            ),
            3.0
        );
        assert_eq!(
            prom_value(&text, "rm_serve_request_latency_seconds_count"),
            s.latency.count() as f64
        );
        assert!(
            (prom_value(&text, "rm_serve_request_latency_seconds_sum")
                - s.latency.sum() as f64 / 1e9)
                .abs()
                < 1e-12
        );
        // Cumulative buckets never decrease and close at the count.
        let bucket_counts: Vec<f64> = text
            .lines()
            .filter(|l| l.starts_with("rm_serve_request_latency_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(bucket_counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*bucket_counts.last().unwrap(), 3.0);
        // Each metric family is typed exactly once.
        assert_eq!(
            text.matches("# TYPE rm_serve_request_latency_seconds histogram")
                .count(),
            1
        );
    }

    #[test]
    fn prometheus_without_breakers_omits_the_state_gauge() {
        let s = metrics().snapshot();
        let text = s.render_prometheus(None);
        assert!(!text.contains("rm_serve_breaker_state"));
        assert_eq!(
            prom_value(
                &text,
                "rm_serve_request_latency_seconds_bucket{le=\"+Inf\"}"
            ),
            0.0
        );
    }

    #[test]
    fn shed_counters_round_trip_through_prometheus() {
        let m = metrics();
        m.record_shed(ShedReason::QueueFull);
        m.record_shed(ShedReason::QueueFull);
        m.record_shed(ShedReason::DeadlineHopeless);
        m.record_shed(ShedReason::CodelOverload);
        hit(&m, Duration::from_micros(1));
        let mut s = m.snapshot();
        assert_eq!(s.shed_total(), 4);
        // 4 shed out of 5 arrivals; availability ignores shed entirely.
        assert!((s.shed_rate() - 4.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.availability(), 1.0);
        // The engine fills the ladder fields from its governor.
        s.degradation_level = DegradationLevel::SkipFilters.index() as u8;
        s.level_entries[DegradationLevel::SkipFilters.index()] = 3;
        s.level_residency_ns[DegradationLevel::Full.index()] = 7_000;
        let text = s.render_prometheus(None);
        assert_eq!(
            prom_value(&text, "rm_serve_shed_total{reason=\"queue_full\"}"),
            2.0
        );
        assert_eq!(
            prom_value(&text, "rm_serve_shed_total{reason=\"deadline\"}"),
            1.0
        );
        assert_eq!(
            prom_value(&text, "rm_serve_shed_total{reason=\"codel\"}"),
            1.0
        );
        assert_eq!(prom_value(&text, "rm_serve_degradation_level"), 2.0);
        assert_eq!(
            prom_value(
                &text,
                "rm_serve_degradation_entries_total{level=\"skip_filters\"}"
            ),
            3.0
        );
        assert_eq!(
            prom_value(
                &text,
                "rm_serve_degradation_residency_ns_total{level=\"full\"}"
            ),
            7_000.0
        );
        let table = s.render();
        assert!(table.contains("shed requests"), "{table}");
        assert!(table.contains("skip_filters"), "{table}");
    }

    #[test]
    fn histogram_overflow_is_exposed() {
        let m = metrics();
        // A sample at the histogram's saturation point (>= 2^62 ns) must
        // be counted explicitly, not silently folded into the top bucket.
        hit(&m, Duration::from_nanos(1 << 62));
        hit(&m, Duration::from_micros(3));
        let s = m.snapshot();
        assert_eq!(s.latency.overflow(), 1);
        let text = s.render_prometheus(None);
        assert_eq!(prom_value(&text, "rm_serve_latency_overflow_total"), 1.0);
    }
}
