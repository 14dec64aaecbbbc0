//! `reading-machine` — the command-line face of the library.
//!
//! ```text
//! reading-machine generate --preset medium --seed 42 --out corpus/
//! reading-machine stats    --corpus corpus/
//! reading-machine train    --out artifacts/ [--corpus corpus/] [--epoch 1] [--factors 20] [--epochs 15]
//! reading-machine explain  --artifacts artifacts/ --user 17 [--corpus corpus/] [--k 10]
//! reading-machine evaluate [--corpus corpus/] [--seed 42] [--k 20]
//! reading-machine serve-bench --artifacts artifacts/ [--corpus corpus/] [--requests 2000]
//! reading-machine metrics-dump --artifacts artifacts/ [--requests 1000]
//! ```
//!
//! `generate` writes the merged synthetic corpus as TSV; `train` fits the
//! serving suite and publishes it as an artifact registry (`--out DIR`:
//! BPR + Most Read counts + catalogue embeddings + manifest, plus the ANN
//! indexes and, with `--quant`, the quantized rows) — the one handoff from
//! training to serving; `explain` loads that registry into the serving
//! engine, serves one user through the candidate pipeline, and prints the
//! top-k titles with the provenance-backed reason behind each ("because
//! you borrowed X"); `evaluate` splits the corpus as the `repro-*` binaries
//! do, fits the paper's suite through `TrainedSuite::train`, and prints the
//! KPIs with the run's per-stage timing; `serve-bench`
//! loads an artifact directory into the serving engine and reports single
//! vs batched throughput with latency quantiles; `metrics-dump` replays a
//! request stream and prints the engine metrics in Prometheus text
//! exposition format. `train` and `serve-bench` accept `--trace FILE`,
//! draining the structured span/event log as JSONL after the run. Built
//! with `--features testing`, `serve-bench` also accepts `--chaos PLAN`
//! (`bpr-panic|bpr-error|bpr-latency|storm`), which replays the request
//! stream under injected faults and reports availability, per-slot fault
//! counters, and circuit-breaker activity. `serve-bench --loadgen MODE`
//! runs the Zipf load generator against an engine with admission control
//! and the brownout ladder enabled: `smoke` is the self-contained,
//! byte-stable overload gate (`--gate BENCH_serve.json`), `open`/`closed`
//! drive a real artifact directory on the wall clock.
//!
//! Commands that need a corpus accept either `--corpus DIR` or regenerate
//! it deterministically from `--preset`/`--seed` — so `train`, `explain`
//! and `serve-bench` agree on the training interactions without shipping
//! them in the registry.

use reading_machine::dataset::io::{load_corpus, save_corpus};
use reading_machine::dataset::stats::{genre_shares, summarize};
use reading_machine::eval::harness::paper_bpr_config;
use reading_machine::eval::metrics::{default_threads, evaluate_parallel};
use reading_machine::prelude::*;
use reading_machine::util::clock::MonotonicClock;
use reading_machine::util::report::{fmt_f64, Table};
use reading_machine::util::trace::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    // Exit quietly when stdout closes early (`reading-machine stats | head`).
    std::panic::set_hook(Box::new(|info| {
        let msg = info.to_string();
        if msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        eprintln!("{info}");
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage("missing command");
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "train" => cmd_train(&args[1..]),
        "explain" => cmd_explain(&args[1..]),
        "evaluate" => cmd_evaluate(&args[1..]),
        "serve-bench" => cmd_serve_bench(&args[1..]),
        "metrics-dump" => cmd_metrics_dump(&args[1..]),
        "--help" | "-h" | "help" => {
            print_usage();
            return ExitCode::SUCCESS;
        }
        other => return usage(&format!("unknown command {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage:\n  reading-machine generate  --out DIR [--preset paper|medium|tiny] [--seed N]\n  \
         reading-machine stats     --corpus DIR\n  \
         reading-machine train     --out DIR [--corpus DIR] [--epoch N] [--factors N] [--epochs N] [--lr F] [--ann off] [--quant i8|f16|off] [--trace FILE]\n  \
         reading-machine explain   --artifacts DIR --user N [--corpus DIR] [--k N]\n  \
         reading-machine evaluate  [--corpus DIR] [--preset P] [--seed N] [--k N]\n  \
         reading-machine serve-bench --artifacts DIR [--corpus DIR] [--k N] [--requests N] [--trace FILE] [--chaos PLAN]\n  \
         reading-machine serve-bench --loadgen smoke|open|closed [--artifacts DIR] [--preset tiny|medium|paper|paper_x100] [--rps F] [--burst F] [--phase-ms N] [--zipf F] [--seed N] [--out FILE] [--gate FILE]\n  \
         reading-machine metrics-dump --artifacts DIR [--corpus DIR] [--k N] [--requests N]\n\n\
         --trace FILE drains the structured span/event log as JSONL after the run\n\
         --chaos PLAN (bpr-panic|bpr-error|bpr-latency|storm) needs a build with --features testing\n\
         --loadgen smoke is self-contained (Tiny preset, fake clock) and byte-stable; --gate FILE enforces the committed SLO report\n\
         commands taking [--corpus DIR] regenerate the corpus from --preset/--seed when it is omitted"
    );
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    print_usage();
    ExitCode::from(2)
}

/// Minimal flag parser: `--name value` pairs.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("expected a --flag, got {flag}"));
            };
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            out.push((name.to_owned(), value.clone()));
        }
        Ok(Self(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name}: {v}")),
        }
    }
}

/// A tracer for the run: recording when `--trace FILE` was given,
/// disabled (zero-cost) otherwise.
fn trace_sink(flags: &Flags) -> Arc<Tracer> {
    if flags.get("trace").is_some() {
        Arc::new(Tracer::enabled(1 << 16, Arc::new(MonotonicClock::new())))
    } else {
        Arc::new(Tracer::disabled())
    }
}

/// Drains the tracer to the `--trace FILE` as JSONL (no-op without the
/// flag).
fn flush_trace(flags: &Flags, tracer: &Tracer) -> Result<(), String> {
    let Some(path) = flags.get("trace") else {
        return Ok(());
    };
    let dropped = tracer.dropped();
    let jsonl = tracer.drain_jsonl();
    std::fs::write(path, &jsonl).map_err(|e| e.to_string())?;
    println!(
        "wrote {} trace events to {path}{}",
        jsonl.lines().count(),
        if dropped > 0 {
            format!(" ({dropped} oldest dropped by the ring)")
        } else {
            String::new()
        }
    );
    Ok(())
}

fn preset_of(flags: &Flags) -> Result<Preset, String> {
    match flags.get("preset").unwrap_or("medium") {
        "paper_x100" => Ok(Preset::PaperX100),
        "paper" => Ok(Preset::Paper),
        "medium" => Ok(Preset::Medium),
        "tiny" => Ok(Preset::Tiny),
        other => Err(format!("unknown preset {other}")),
    }
}

fn load(flags: &Flags) -> Result<Corpus, String> {
    let dir = PathBuf::from(flags.required("corpus")?);
    load_corpus(&dir).map_err(|e| e.to_string())
}

/// The corpus from `--corpus DIR`, or regenerated deterministically from
/// `--preset`/`--seed` when the flag is absent.
fn corpus_of(flags: &Flags) -> Result<Corpus, String> {
    match flags.get("corpus") {
        Some(dir) => load_corpus(&PathBuf::from(dir)).map_err(|e| e.to_string()),
        None => {
            let seed: u64 = flags.parse_num("seed", 42)?;
            let preset = preset_of(flags)?;
            Ok(reading_machine::datagen::generate_corpus(seed, preset))
        }
    }
}

/// What every serving command stands an engine on: the registry named by
/// `--artifacts`, the corpus from [`corpus_of`], and the training
/// interactions rebuilt from that corpus (they are not in the registry).
struct Deployment {
    registry: ArtifactRegistry,
    corpus: Corpus,
    train: Interactions,
}

impl Deployment {
    /// Reads `--artifacts` and the corpus; the registry itself is read
    /// when an engine loads it.
    fn open(flags: &Flags) -> Result<Self, String> {
        let registry = ArtifactRegistry::new(PathBuf::from(flags.required("artifacts")?));
        let corpus = corpus_of(flags)?;
        let train = Interactions::from_corpus(&corpus);
        Ok(Self {
            registry,
            corpus,
            train,
        })
    }

    /// Loads an engine over the registry with `config`.
    fn engine(&self, config: EngineConfig) -> Result<ServingEngine, String> {
        ServingEngine::load(&self.registry, &self.train, config).map_err(|e| e.to_string())
    }

    /// [`Deployment::engine`], then one `DEGRADED <slot>: <reason>` line
    /// on stderr per slot the registry could not fill.
    fn serve(&self, config: EngineConfig) -> Result<ServingEngine, String> {
        let engine = self.engine(config)?;
        for (slot, reason) in engine.degraded() {
            eprintln!("DEGRADED {}: {reason}", slot.label());
        }
        Ok(engine)
    }

    /// `requests` users cycling through every user in index order, so a
    /// cache sees realistic repeats.
    fn cycled_users(&self, requests: usize) -> Vec<UserIdx> {
        (0..requests)
            .map(|i| UserIdx((i % self.train.n_users()) as u32))
            .collect()
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let out = PathBuf::from(flags.required("out")?);
    let seed: u64 = flags.parse_num("seed", 42)?;
    let preset = preset_of(&flags)?;
    let corpus = reading_machine::datagen::generate_corpus(seed, preset);
    save_corpus(&corpus, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} books, {} users, {} readings to {}",
        corpus.n_books(),
        corpus.n_users(),
        corpus.n_readings(),
        out.display()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let corpus = load(&flags)?;
    let s = summarize(&corpus);
    println!("{s:#?}");
    println!("top genres:");
    for (label, share) in genre_shares(&corpus).into_iter().take(8) {
        println!("  {label:<40} {:.1}%", share * 100.0);
    }
    Ok(())
}

/// `train --out DIR`: fit the full serving suite on every reading
/// (deployment mode) and publish it as an artifact registry.
fn cmd_train(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let out = PathBuf::from(flags.required("out")?);
    let corpus = corpus_of(&flags)?;
    let train = Interactions::from_corpus(&corpus);
    let config = BprConfig {
        factors: flags.parse_num("factors", 20)?,
        epochs: flags.parse_num("epochs", 15)?,
        learning_rate: flags.parse_num("lr", 0.2)?,
        seed: flags.parse_num("seed", 42)?,
        ..BprConfig::default()
    };
    let fields = SummaryFields::BEST;
    let tracer = trace_sink(&flags);
    let t0 = std::time::Instant::now();
    let span = tracer.span("fit_bpr");
    let mut bpr = Bpr::new(config);
    bpr.fit(&train);
    span.finish(|f| {
        f.push("interactions", train.nnz());
    });
    let span = tracer.span("fit_most_read");
    let mut most_read = MostReadItems::new();
    most_read.fit(&train);
    drop(span);
    let span = tracer.span("embed");
    let mut closest = ClosestItems::from_corpus(&corpus, fields, EncoderConfig::default());
    closest.fit(&train);
    span.finish(|f| {
        f.push("books", corpus.n_books());
    });
    let manifest = Manifest {
        epoch: flags.parse_num("epoch", 1)?,
        fields,
    };
    // Build the sub-linear retrieval indexes over the fitted models: a
    // cosine IVF over the catalogue embeddings and a MIPS IVF over the
    // BPR item factors, both under the √n list-count heuristic. `--ann
    // off` skips publication (and scrubs any stale index on disk).
    let ann = if flags.get("ann").is_some_and(|v| v == "off") {
        None
    } else {
        let span = tracer.span("build_ann");
        let ivf_config = rm_embed::IvfConfig {
            seed: flags.parse_num("seed", 42)?,
            ..rm_embed::IvfConfig::for_catalogue(train.n_books())
        };
        let ann = rm_embed::AnnArtifact {
            content: Some(rm_embed::IvfIndex::build(closest.store(), &ivf_config)),
            cf: Some(rm_embed::IvfIndex::build_mips(
                &bpr.model().expect("fitted").item_factors,
                &ivf_config,
            )),
        };
        span.finish(|f| {
            f.push("nlist", ivf_config.nlist);
        });
        Some(ann)
    };
    // `--quant i8|f16` additionally publishes the factor matrices and
    // embeddings quantized for the low-memory serving path; `off` (the
    // default) skips publication and scrubs any stale quant artifact.
    let quant = match flags.get("quant") {
        None | Some("off") => None,
        Some(label) => {
            let mode = rm_core::quant::QuantMode::parse(label)
                .ok_or_else(|| format!("bad --quant {label} (i8|f16|off)"))?;
            let span = tracer.span("quantize");
            let artifact = rm_core::quant::QuantArtifact::quantize(
                mode,
                bpr.model().expect("fitted"),
                Some(closest.store()),
            );
            span.finish(|f| {
                f.push("payload_bytes", artifact.payload_bytes());
            });
            Some(artifact)
        }
    };
    let registry = ArtifactRegistry::new(&out);
    let span = tracer.span("save_artifacts");
    registry
        .save(
            &manifest,
            bpr.model().expect("fitted"),
            &most_read,
            closest.store(),
            ann.as_ref(),
            quant.as_ref(),
        )
        .map_err(|e| e.to_string())?;
    span.finish(|f| {
        f.push("epoch", manifest.epoch);
    });
    println!(
        "trained serving suite on {} interactions in {:.1?}; wrote epoch-{} artifacts to {}",
        train.nnz(),
        t0.elapsed(),
        manifest.epoch,
        out.display()
    );
    flush_trace(&flags, &tracer)
}

/// `serve-bench`: load an artifact registry and measure single-call vs
/// batched serving throughput, printing the engine's request metrics.
fn cmd_serve_bench(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    if let Some(plan) = flags.get("chaos") {
        return cmd_serve_chaos(&flags, plan);
    }
    if let Some(mode) = flags.get("loadgen") {
        let mode = mode.to_owned();
        return cmd_serve_loadgen(&flags, &mode);
    }
    let deployment = Deployment::open(&flags)?;
    let k: usize = flags.parse_num("k", 10)?;
    let requests: usize = flags.parse_num("requests", 2000)?;
    let cache_capacity: usize = flags.parse_num("cache", 4096)?;
    let users = deployment.cycled_users(requests);

    // One tracer shared by every engine the bench builds, so the JSONL
    // drain covers the whole run in one stream.
    let tracer = trace_sink(&flags);
    let config = |workers: usize| {
        EngineConfig::builder()
            .workers(workers)
            .cache_capacity(cache_capacity)
            .tracer(Arc::clone(&tracer))
            .build()
            .map_err(|e| e.to_string())
    };

    // Single-call baseline: one thread, one request at a time.
    let single = deployment.serve(config(1)?)?;
    println!(
        "serve-bench: {requests} requests over {} users, k={k}, epoch {}",
        deployment.train.n_users(),
        single.epoch()
    );
    let t0 = Instant::now();
    for &u in &users {
        std::hint::black_box(single.recommend(u, k));
    }
    let single_qps = requests as f64 / t0.elapsed().as_secs_f64();

    let mut table = Table::new(["mode", "req/s", "speedup"]);
    table.push_row([
        "single".to_owned(),
        fmt_f64(single_qps, 0),
        "1.00".to_owned(),
    ]);
    let mut four_worker_metrics = None;
    for workers in [1usize, 4, 8] {
        // A fresh engine per run, so each starts on a cold cache.
        let engine = deployment.engine(config(workers)?)?;
        let t0 = Instant::now();
        std::hint::black_box(engine.recommend_batch(&users, k));
        let qps = requests as f64 / t0.elapsed().as_secs_f64();
        table.push_row([
            format!("batch x{workers}"),
            fmt_f64(qps, 0),
            fmt_f64(qps / single_qps, 2),
        ]);
        if workers == 4 {
            four_worker_metrics = Some(engine.metrics());
        }
    }
    println!("{}", table.render());
    if let Some(m) = four_worker_metrics {
        println!("request metrics (batch x4 run):");
        println!("{}", m.render());
    }
    flush_trace(&flags, &tracer)
}

/// `serve-bench --loadgen MODE`: drive the engine through the Zipf load
/// generator with admission control and the brownout ladder enabled.
///
/// * `smoke` — self-contained deterministic run: trains the Tiny preset,
///   serves a 10× open-loop burst under a fake clock with simulated
///   per-level service costs, and renders a byte-stable JSON report.
///   With `--gate FILE` the report must match the committed file
///   byte-for-byte *and* meet its SLO — the standing overload gate.
/// * `open` / `closed` — wall-clock runs against `--artifacts DIR`.
fn cmd_serve_loadgen(flags: &Flags, mode: &str) -> Result<(), String> {
    use reading_machine::serve::loadgen::{self, ArrivalMode, LoadgenConfig};
    use reading_machine::serve::overload::OverloadConfig;
    use reading_machine::util::clock::FakeClock;

    let arrivals = match mode {
        "smoke" | "open" => ArrivalMode::Open,
        "closed" => ArrivalMode::Closed,
        other => return Err(format!("bad --loadgen {other} (smoke|open|closed)")),
    };
    // `--preset NAME` sizes the schedule from the preset's nominal
    // serving population (Paper ≡ the 2 000-request / 200-rps reference
    // point; paper_x100 offers 100× the volume and rate). Explicit
    // `--requests`/`--rps` still win. Without the flag the historical
    // defaults apply — the smoke gate's committed BENCH_serve.json
    // stays byte-stable.
    let (default_requests, default_rps) = match flags.get("preset") {
        None => (400, 200.0),
        Some(_) => {
            let (users, _) = preset_of(flags)?.serving_scale();
            let scale = users as f64 / Preset::Paper.serving_scale().0 as f64;
            let requests = ((2_000.0 * scale).round() as usize).max(400);
            (requests, (200.0 * scale).max(50.0))
        }
    };
    let burst: f64 = flags.parse_num("burst", 10.0)?;
    let schedule = LoadgenConfig {
        requests: flags.parse_num("requests", default_requests)?,
        k: flags.parse_num("k", 10)?,
        zipf_exponent: flags.parse_num("zipf", 1.0)?,
        seed: flags.parse_num("seed", 42)?,
        base_rps: flags.parse_num("rps", default_rps)?,
        phases: vec![1.0, burst, 1.0, 1.0],
        phase_len: Duration::from_millis(flags.parse_num("phase-ms", 250)?),
        mode: arrivals,
        ..LoadgenConfig::default()
    };

    let report = if mode == "smoke" {
        // Self-contained: train the Tiny preset into a throwaway
        // registry, then run the burst entirely on simulated time. Every
        // quantity in the report is schedule-determined, so the JSON is
        // byte-identical on every machine — that's what lets
        // BENCH_serve.json act as a committed gate.
        let h = Harness::generate(11, Preset::Tiny);
        let suite = TrainedSuite::train(
            &h,
            BprConfig {
                factors: 4,
                epochs: 2,
                ..BprConfig::default()
            },
            SummaryFields::BEST,
            11,
        );
        let dir = std::env::temp_dir().join(format!("rm-loadgen-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ArtifactRegistry::new(dir.clone());
        registry
            .save(
                &Manifest {
                    epoch: 1,
                    fields: SummaryFields::BEST,
                },
                suite.bpr.model().ok_or("BPR failed to fit")?,
                &suite.most_read,
                suite.closest.store(),
                // No ANN or quant in the smoke registry:
                // BENCH_serve.json's byte-identity gate pins the
                // exact-scan f32 schedule.
                None,
                None,
            )
            .map_err(|e| e.to_string())?;
        let overload = OverloadConfig {
            // Simulated per-level service cost: each brownout step sheds
            // real work, so each level is cheaper than the one above.
            service_cost: Some([
                Duration::from_micros(2_000),
                Duration::from_micros(1_500),
                Duration::from_micros(1_000),
                Duration::from_micros(700),
                Duration::from_micros(500),
            ]),
            ..OverloadConfig::default()
        };
        let config = EngineConfig::builder()
            .workers(1)
            .clock(Arc::new(FakeClock::new()))
            .overload(overload)
            .build()
            .map_err(|e| e.to_string())?;
        let engine =
            ServingEngine::load(&registry, &h.split.train, config).map_err(|e| e.to_string())?;
        let report = loadgen::run(&engine, &schedule).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&dir);
        report
    } else {
        let config = EngineConfig::builder()
            .workers(1)
            .cache_capacity(flags.parse_num("cache", 4096)?)
            .overload(OverloadConfig::default())
            .build()
            .map_err(|e| e.to_string())?;
        let engine = Deployment::open(flags)?.serve(config)?;
        loadgen::run(&engine, &schedule).map_err(|e| e.to_string())?
    };

    println!("{}", report.render_summary());
    let json = report.render_json();
    if let Some(path) = flags.get("out") {
        std::fs::write(path, &json).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    if let Some(gate) = flags.get("gate") {
        let committed = std::fs::read_to_string(gate).map_err(|e| e.to_string())?;
        if committed != json {
            return Err(format!(
                "loadgen report drifted from {gate}; regenerate with \
                 `serve-bench --loadgen smoke --out {gate}` and review the diff"
            ));
        }
        if !report.slo_met() {
            return Err(format!("SLO missed: {}", report.render_summary()));
        }
        println!("gate {gate}: report byte-identical and SLO met");
    }
    Ok(())
}

/// `metrics-dump`: replay a request stream through the engine and print
/// its metrics in Prometheus text exposition format (counters, latency
/// histogram with cumulative buckets, live breaker states).
fn cmd_metrics_dump(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let deployment = Deployment::open(&flags)?;
    let k: usize = flags.parse_num("k", 10)?;
    let requests: usize = flags.parse_num("requests", 1000)?;
    let config = EngineConfig::builder().build().map_err(|e| e.to_string())?;
    let engine = deployment.serve(config)?;
    let users = deployment.cycled_users(requests);
    std::hint::black_box(engine.recommend_batch(&users, k));
    print!("{}", engine.metrics_prometheus());
    Ok(())
}

/// `serve-bench --chaos` without the harness compiled in: refuse with a
/// pointer to the right build instead of silently benching fault-free.
#[cfg(not(feature = "testing"))]
fn cmd_serve_chaos(_flags: &Flags, _plan: &str) -> Result<(), String> {
    Err("--chaos needs the fault-injection harness; rebuild with \
         `cargo run -p reading-machine --features testing -- serve-bench ...`"
        .into())
}

/// `serve-bench --chaos PLAN`: replay the request stream with faults
/// injected into the engine and report availability, per-slot fault
/// counters, and circuit-breaker activity.
#[cfg(feature = "testing")]
fn cmd_serve_chaos(flags: &Flags, plan_name: &str) -> Result<(), String> {
    use reading_machine::serve::{CallWindow, FaultPlan};

    let deployment = Deployment::open(flags)?;
    let k: usize = flags.parse_num("k", 10)?;
    let requests: usize = flags.parse_num("requests", 2000)?;
    // Cache off by default: a cache hit would mask the injected faults.
    let cache_capacity: usize = flags.parse_num("cache", 0)?;

    let stall = Duration::from_millis(10);
    let plan = match plan_name {
        "bpr-panic" => FaultPlan::none().panic_in(ModelSlot::Bpr, CallWindow::always()),
        "bpr-error" => FaultPlan::none().error_in(ModelSlot::Bpr, CallWindow::always()),
        "bpr-latency" => FaultPlan::none().latency(ModelSlot::Bpr, stall),
        "storm" => FaultPlan::none()
            .panic_in(ModelSlot::Bpr, CallWindow::always())
            .error_in(ModelSlot::ClosestItems, CallWindow::always())
            .latency(ModelSlot::MostRead, stall),
        other => {
            return Err(format!(
                "unknown chaos plan {other} (bpr-panic|bpr-error|bpr-latency|storm)"
            ))
        }
    };
    // Latency plans get a slot budget tight enough for the stall to trip
    // it, so timeouts and breaker trips show up in the report.
    let slot_budget =
        matches!(plan_name, "bpr-latency" | "storm").then(|| Duration::from_millis(2));

    // Injected panics are the point of the exercise: keep their reports
    // out of the output while real panics still print.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected fault"));
        if !injected {
            previous_hook(info);
        }
    }));

    let mut builder = EngineConfig::builder()
        .workers(4)
        .cache_capacity(cache_capacity);
    if let Some(budget) = slot_budget {
        builder = builder.slot_budget(budget);
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let mut engine = deployment.serve(config)?;
    engine.inject_faults(plan);
    let users = deployment.cycled_users(requests);
    // Serve in small batches (as a kiosk frontend would) so the fault
    // counters see many slot calls and the breakers get to act.
    let batch: usize = flags.parse_num("batch", 64)?;
    let t0 = Instant::now();
    let mut answered = 0usize;
    for part in users.chunks(batch.max(1)) {
        answered += engine
            .recommend_batch(part, k)
            .iter()
            .filter(|a| !a.is_empty())
            .count();
    }
    let elapsed = t0.elapsed();

    let m = engine.metrics();
    println!(
        "serve-bench --chaos {plan_name}: {requests} requests over {} users, k={k}, {elapsed:.1?}",
        deployment.train.n_users()
    );
    println!(
        "availability {:.4} ({answered}/{requests} answered non-empty), worker panics {}",
        m.availability(),
        m.worker_panics
    );
    println!("{}", m.render());
    if let Some(states) = engine.breaker_states() {
        let rendered: Vec<String> = ModelSlot::ALL
            .iter()
            .map(|s| format!("{}={}", s.label(), states[s.index()].label()))
            .collect();
        println!("breaker states: {}", rendered.join("  "));
    }
    Ok(())
}

/// `explain`: serve one user through the candidate pipeline and print
/// the provenance-backed reason behind every recommended title.
fn cmd_explain(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let deployment = Deployment::open(&flags)?;
    let corpus = &deployment.corpus;
    let user: u32 = flags
        .required("user")?
        .parse()
        .map_err(|_| "bad --user".to_owned())?;
    let k: usize = flags.parse_num("k", 10)?;
    if user as usize >= deployment.train.n_users() {
        return Err(format!(
            "user {user} out of range (corpus has {})",
            deployment.train.n_users()
        ));
    }
    // Genre lookup feeds genre-aware sources/filters; harmless otherwise.
    let config = EngineConfig::builder()
        .book_genres(Arc::new(BookGenres::from_corpus(corpus)))
        .build()
        .map_err(|e| e.to_string())?;
    let engine = deployment.serve(config)?;
    let (top, explanations) = engine.recommend_explained(UserIdx(user), k);
    if top.is_empty() {
        println!("no recommendations for user {user} (every slot degraded?)");
        return Ok(());
    }
    let title = |b: u32| corpus.books[b as usize].title.clone();
    println!("top-{k} for user {user} (epoch {}):", engine.epoch());
    for (rank, &b) in top.iter().enumerate() {
        let book = &corpus.books[b as usize];
        println!(
            "  {:>2}. {} — {}",
            rank + 1,
            book.title,
            book.authors.join(", ")
        );
        for ex in explanations.iter().filter(|ex| ex.book == b) {
            println!("      [{}] {}", ex.source.label(), ex.reason.render(&title));
        }
    }
    Ok(())
}

/// `evaluate`: the paper's KPI comparison, on one path whether the corpus
/// is read (`--corpus`) or generated (`--preset`/`--seed`). The split is
/// seeded as [`Harness::generate`] seeds it and the suite is fitted by
/// [`TrainedSuite::train`] with BPR at [`paper_bpr_config`], so a corpus
/// generated with `--seed S` gives the same answer either way, and the
/// paper preset the same rows as `repro-table1`. The stage table reads
/// that same run: the corpus, the split, each model's fit time, and the
/// evaluation.
fn cmd_evaluate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let k: usize = flags.parse_num("k", 20)?;
    let seed: u64 = flags.parse_num("seed", 42)?;
    let t0 = Instant::now();
    let corpus = corpus_of(&flags)?;
    let corpus_time = t0.elapsed();
    let t0 = Instant::now();
    let harness = Harness::split_seeded(corpus, seed);
    let split_time = t0.elapsed();
    let bpr = paper_bpr_config(seed);
    let suite = TrainedSuite::train(&harness, bpr, SummaryFields::BEST, seed);
    let models: [&(dyn Recommender + Sync); 4] =
        [&suite.random, &suite.most_read, &suite.closest, &suite.bpr];
    let cases = harness.test_cases();
    let t0 = Instant::now();
    let kpis = models.map(|rec| evaluate_parallel(rec, &cases, k, default_threads()));
    let eval_time = t0.elapsed();

    println!("KPIs @{k} over {} test users:", cases.len());
    for (rec, m) in models.iter().zip(&kpis) {
        print_kpi_row(rec.name(), m);
    }
    let mut stages = vec![
        ("corpus".to_owned(), corpus_time),
        ("split".to_owned(), split_time),
    ];
    stages.extend(
        models
            .iter()
            .zip(suite.fit_times)
            .map(|(rec, time)| (format!("fit {}", rec.name()), time)),
    );
    stages.push(("eval".to_owned(), eval_time));
    println!("pipeline stages:");
    println!("{}", stage_table(&stages).render());
    Ok(())
}

/// Per-stage seconds and share of the total, with a total row.
fn stage_table(stages: &[(String, Duration)]) -> Table {
    let total: f64 = stages.iter().map(|(_, d)| d.as_secs_f64()).sum();
    let mut t = Table::new(["stage", "seconds", "share"]);
    for (stage, d) in stages {
        let share = if total > 0.0 {
            d.as_secs_f64() / total
        } else {
            0.0
        };
        t.push_row([
            stage.clone(),
            fmt_f64(d.as_secs_f64(), 3),
            format!("{}%", fmt_f64(share * 100.0, 1)),
        ]);
    }
    t.push_row(["total".to_owned(), fmt_f64(total, 3), "100.0%".to_owned()]);
    t
}

fn print_kpi_row(name: &str, m: &reading_machine::eval::Kpis) {
    println!(
        "  {:<16} URR {:.2}  NRR {:.2}  P {:.3}  R {:.3}  FR {:.0}",
        name, m.urr, m.nrr, m.precision, m.recall, m.first_rank
    );
}
