//! Every metric the benchmark reports, by name and unit, and the JSON
//! result line. `BENCHMARK.json` lists the same names; a self-test keeps
//! the two in step.

use crate::stats::{summarize, Summary};
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("ops_per_s", "1/s"),
    ("slo_frac", "ratio"),
    ("urr_at_10", "ratio"),
    ("nrr_at_10", "ratio"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_us_p50", "us"),
    ("cache.bytes", "bytes"),
    ("engine.miss_us_p50", "us"),
    ("engine.miss_us_p99", "us"),
    ("engine.envelope_us", "us"),
    ("engine.explain_us_p50", "us"),
    ("engine.allocs_per_hit", "count"),
    ("engine.allocs_per_miss", "count"),
    ("engine.reload_ms", "ms"),
    ("replay.users", "count"),
    ("replay.coverage", "ratio"),
    ("source.cf_us", "us"),
    ("source.content_us", "us"),
    ("source.most_read_us", "us"),
    ("source.cf_emitted", "count"),
    ("source.content_emitted", "count"),
    ("yield.cf", "ratio"),
    ("yield.content", "ratio"),
    ("yield.most_read", "ratio"),
    ("merge.us", "us"),
    ("merge.pool_size", "count"),
    ("merge.dup_ratio", "ratio"),
    ("filters.us", "us"),
    ("filters.keep_ratio", "ratio"),
    ("rank.us", "us"),
    ("ivf.cf_scored", "count"),
    ("ivf.content_scored", "count"),
    ("ivf.cf_recall", "ratio"),
    ("ivf.content_recall", "ratio"),
    ("kernel.cf_matvec_f32_us", "us"),
    ("kernel.content_matvec_f32_us", "us"),
    ("kernel.cf_matvec_i8_us", "us"),
    ("overload.queue_wait_ms_p50", "ms"),
    ("overload.queue_wait_ms_p99", "ms"),
    ("overload.service_us_p50", "us"),
    ("overload.shed.queue_full", "count"),
    ("overload.shed.deadline", "count"),
    ("overload.shed.codel", "count"),
    ("overload.residency.full", "ratio"),
    ("overload.residency.drop_expensive_sources", "ratio"),
    ("overload.residency.skip_filters", "ratio"),
    ("overload.residency.legacy_fallback", "ratio"),
    ("overload.residency.most_read_only", "ratio"),
    ("overload.level_entries", "count"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.due_latency_ms_p50", "ms"),
    ("loadgen.due_latency_ms_p99", "ms"),
    ("registry.load_ms", "ms"),
    ("registry.save_ms", "ms"),
    ("registry.bytes", "bytes"),
    ("bpr.fit_s", "s"),
    ("bpr.updates_per_s", "1/s"),
    ("most_read.fit_ms", "ms"),
    ("closest.encode_s", "s"),
    ("ivf.build_ms", "ms"),
    ("quant.quantize_ms", "ms"),
    ("eval.s", "s"),
    ("datagen.s", "s"),
    ("interactions.build_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer values, defaulting to 0 (no work on this workload).
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name` (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one workload run measured, end to end.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: shed, answered empty, or failing a check.
    pub failed: u64,
    /// Latency of each operation, microseconds, in measurement groups:
    /// zipf-browse's reload segments, cold-sweep's runs of
    /// `sweep::GROUP_CALLS` batch calls. An empty group does not count.
    pub latency_us: Vec<Vec<f64>>,
    /// Work items completed per second of serving time.
    pub ops_per_s: f64,
    /// Operations answered correctly within the workload's latency limit.
    pub within_slo: u64,
    /// URR@10 of the answers.
    pub urr: f64,
    /// NRR@10 of the answers.
    pub nrr: f64,
}

impl EndToEnd {
    /// Records one operation's latency into `group`.
    pub fn record(&mut self, group: usize, us: f64) {
        if self.latency_us.len() <= group {
            self.latency_us.resize_with(group + 1, Vec::new);
        }
        self.latency_us[group].push(us);
    }

    /// The run's median and tail: the lowest group median and the
    /// lowest group tail, each taken on its own, so the two may come
    /// from different groups. The groups are spread over the run;
    /// interference from other processes only ever slows a group down,
    /// so the lowest figure is the least disturbed measure of the code's
    /// own speed. A slowdown that hits only some groups does not show.
    pub fn latency(&self) -> Summary {
        let groups: Vec<Summary> = self
            .latency_us
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| summarize(g))
            .collect();
        let lowest = |f: fn(&Summary) -> f64| groups.iter().map(f).fold(f64::INFINITY, f64::min);
        Summary {
            n: groups.iter().map(|g| g.n).sum(),
            p50: lowest(|g| g.p50),
            tail: lowest(|g| g.tail),
            tail_p: groups.iter().map(|g| g.tail_p).fold(100.0, f64::min),
        }
    }
}

/// Renders a finite number as JSON, with every digit Rust prints.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    /// The `(name, unit)` pairs of one array in `BENCHMARK.json`, read
    /// with plain string scanning (the file's layout is fixed: one
    /// metric object per line).
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let rest = &text[start..];
        let end = rest.find(']').expect("array end");
        let field = |line: &str, key: &str| {
            let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(line[at..at + line[at..].find('"')?].to_owned())
        };
        rest[..end]
            .lines()
            .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
            .collect()
    }

    #[test]
    fn metrics_match_benchmark_json() {
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(END_TO_END));
        assert_eq!(declared("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(true, 3, 1, &[("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
