//! Real-clock benchmark of the serving engine at the paper preset, with
//! the offline training path timed as set-up.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload zipf-browse|cold-sweep \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The workload's inputs come from
//! `--seed`; set-up runs several times and `setup_s` is built from the
//! median; the workload runs for `--seconds` in all. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A failed answer check exits with code 1 after that
//! line. See `perfbench/README.md` for the metrics and workloads.

mod alloc;
mod browse;
mod burst;
mod checks;
mod metrics;
mod replay;
mod schedule;
mod stats;
mod sweep;
mod world;

use metrics::{result_json, EndToEnd, Layers, END_TO_END, PER_LAYER};
use rm_eval::metrics::evaluate;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use world::{serving_setup, Retrieval, StepTimes};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per serving run, each followed by a measurement window.
/// Only the first trains; `setup_s` is the median of the set-ups without
/// their training, plus the one training.
pub const SERVING_SETUPS: usize = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ZipfBrowse,
    ColdSweep,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "zipf-browse" => Self::ZipfBrowse,
            "cold-sweep" => Self::ColdSweep,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::ZipfBrowse => "zipf-browse",
            Self::ColdSweep => "cold-sweep",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other} (0|1)")),
        },
    })
}

fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}

/// Records the offline steps' median times over the set-ups that ran
/// them.
fn record_steps(steps: &[StepTimes], layers: &mut Layers) {
    let med = |ran: fn(&StepTimes) -> bool, f: fn(&StepTimes) -> f64| {
        let values: Vec<f64> = steps.iter().filter(|s| ran(s)).map(f).collect();
        (!values.is_empty()).then(|| stats::median(&values))
    };
    let mut set = |name, value: Option<f64>| {
        if let Some(v) = value {
            layers.set(name, v);
        }
    };
    let all = |_: &StepTimes| true;
    let trained = |s: &StepTimes| s.bpr_fit > Duration::ZERO;
    set("datagen.s", med(all, |s| secs(s.datagen)));
    set("interactions.build_ms", med(all, |s| secs(s.split) * 1e3));
    set("bpr.fit_s", med(trained, |s| secs(s.bpr_fit)));
    set(
        "bpr.updates_per_s",
        med(trained, |s| s.bpr_updates as f64 / secs(s.bpr_fit)),
    );
    set(
        "most_read.fit_ms",
        med(trained, |s| secs(s.most_read_fit) * 1e3),
    );
    set("closest.encode_s", med(trained, |s| secs(s.closest_encode)));
    set("ivf.build_ms", med(trained, |s| secs(s.ivf_build) * 1e3));
    set(
        "quant.quantize_ms",
        med(trained, |s| secs(s.quantize) * 1e3),
    );
    set(
        "registry.save_ms",
        med(|s| s.save > Duration::ZERO, |s| secs(s.save) * 1e3),
    );
}

/// Times `ArtifactRegistry::load` alone (median of three).
fn registry_load_ms(registry: &rm_serve::ArtifactRegistry) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let loaded = registry.load().expect("registry loads");
            std::hint::black_box(&loaded);
            secs(t.elapsed()) * 1e3
        })
        .collect();
    stats::median(&runs)
}

fn run(args: &Args, dir: &Path) -> (EndToEnd, checks::Violations, Layers) {
    let mut layers = Layers::default();
    let mut setup_s = Vec::new();
    let mut steps = Vec::new();
    let retrieval = match args.workload {
        Workload::ColdSweep => Retrieval::Exact,
        Workload::ZipfBrowse => Retrieval::IvfI8,
    };
    // One window after each set-up, so the figures span the whole run.
    enum Serving {
        Browse(browse::Browse),
        Sweep(sweep::Sweep),
    }
    let window = Duration::from_secs_f64(args.seconds / SERVING_SETUPS as f64);
    let mut checked = checks::Violations::default();
    let mut quality = None;
    let mut serving = None;
    let mut world: Option<world::World> = None;
    for rep in 0..SERVING_SETUPS {
        let suite = world.take().map(|w| w.suite);
        let t = Instant::now();
        let mut w = serving_setup(retrieval, suite, &dir.join(format!("rep{rep}")));
        // Without its training, which only the first set-up runs.
        setup_s.push(secs(t.elapsed()) - secs(w.times.train));
        steps.push(w.times);
        // Quality first, on the freshly loaded engine.
        if quality.is_none() {
            quality = Some(checks::served_quality(
                &w.engine,
                &w.harness.split.train,
                &w.harness.split.test,
                &mut checked,
            ));
        }
        let serving = serving.get_or_insert_with(|| match args.workload {
            Workload::ColdSweep => Serving::Sweep(sweep::Sweep::new(&w, args.seed)),
            Workload::ZipfBrowse => Serving::Browse(browse::Browse::new(&w, args.seed)),
        });
        match serving {
            Serving::Browse(b) => b.window(&mut w, window, args.trace),
            Serving::Sweep(s) => s.window(&mut w, window, args.trace),
        }
        world = Some(w);
    }
    let mut world = world.expect("at least one set-up");
    record_steps(&steps, &mut layers);
    if args.trace {
        layers.set("registry.load_ms", registry_load_ms(&world.registry));
        layers.set(
            "registry.bytes",
            world::registry_bytes(world.registry.dir()) as f64,
        );
        // Table 1's evaluation of the served BPR model on the held-out
        // users (offline work: no serving figure includes it).
        let t = Instant::now();
        let kpis = evaluate(&world.suite.bpr, &world.harness.test_cases(), 10);
        layers.set("eval.s", secs(t.elapsed()));
        if kpis.n_users == 0 {
            checked.note(|| "eval: no held-out users evaluated".into());
        }
    }
    let (mut e2e, violations) = match serving.expect("set up above") {
        Serving::Browse(b) => b.finish(&mut world, args.seed, args.trace, &mut layers),
        Serving::Sweep(s) => s.finish(&mut world, args.trace, &mut layers),
    };
    checked.absorb(violations);
    if args.trace && args.workload == Workload::ZipfBrowse {
        // The overload layer: two governed burst cycles.
        let cycles = schedule::BURST.period * 2;
        checked.absorb(burst::probe(&world, args.seed, cycles, &mut layers));
    }
    (e2e.urr, e2e.nrr) = quality.expect("measured after the first set-up");
    let train_s: f64 = steps.iter().map(|s| secs(s.train)).sum();
    e2e.setup_s = stats::median(&setup_s) + train_s;
    println!("set-up seconds per repetition: {setup_s:?}");
    (e2e, checked, layers)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload zipf-browse|cold-sweep \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let dir = world::work_dir(args.workload.name());
    let (e2e, violations, layers) = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(dir.parent().unwrap_or(&dir));

    let peak_rss_mb = match alloc::peak_rss_mb() {
        Ok(mb) => mb,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let latency = e2e.latency();
    let attempted = e2e.attempted.max(1);
    let values: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name), unit))
            .collect()
    } else {
        let value = |name: &str| match name {
            "setup_s" => e2e.setup_s,
            "peak_rss_mb" => peak_rss_mb,
            "ok_frac" => (attempted - e2e.failed.min(attempted)) as f64 / attempted as f64,
            "p50_us" => latency.p50,
            "tail_us" => latency.tail,
            "ops_per_s" => e2e.ops_per_s,
            "slo_frac" => e2e.within_slo as f64 / attempted as f64,
            "urr_at_10" => e2e.urr,
            "nrr_at_10" => e2e.nrr,
            other => unreachable!("unhandled end-to-end metric {other}"),
        };
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, value(name), unit))
            .collect()
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}: {} attempted, {} failed, latency sample {} \
         (tail at p{})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        e2e.attempted,
        e2e.failed,
        latency.n,
        latency.tail_p
    );
    for (name, value, unit) in &values {
        println!("  {name:<44} {value:>16.6} {unit}");
    }
    let correct = violations.count == 0;
    if let Some(first) = &violations.first {
        println!(
            "  answer checks: {} violations; first: {first}",
            violations.count
        );
    }
    println!("{}", result_json(correct, attempted, e2e.failed, &values));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
