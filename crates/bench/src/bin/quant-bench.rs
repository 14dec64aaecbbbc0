//! Quantized-artifact benchmark with machine-readable output: measures
//! the i8 memory footprint and fused int-dot matvec throughput of
//! [`rm_core::quant::QuantArtifact`] against the f32 baseline at the
//! million-user (`paper_x100`) serving scale, plus the Table-1 KPI drift
//! of quantized BPR scoring, and writes the result to `BENCH_quant.json`.
//!
//! ```text
//! quant-bench [--smoke] [--out FILE] [--gate FILE]
//! ```
//!
//! The full run (no flags) sizes matrices from
//! `Preset::PaperX100.serving_scale()` — 4.3M users × 64 factors plus
//! 230k books × 64 factors and 256-dim embeddings, the scale where a
//! single node starts caring about artifact bytes. Item factors and
//! embeddings are encoded for real; the user-factor section is never
//! materialised in f32 — its byte count extrapolates *exactly* from
//! probe encodings because the canonical section layout is linear in
//! rows at 16-row-aligned sizes (verified against a third probe at
//! runtime). `--smoke` runs only the deterministic section in a few
//! seconds for CI: it trains the Medium-preset BPR model, quantizes it to
//! i8 and f16, and evaluates Table-1 URR/NRR through the quantized
//! scorer. Those numbers are timing-free and fully deterministic, so
//! `--gate FILE` can enforce the committed report:
//!
//! - the recomputed smoke section must match the committed one
//!   byte-for-byte (drift = a quantization-semantics change);
//! - recomputed KPI drift vs f32 must stay within `5e-3` URR/NRR for
//!   both i8 and f16 — the accuracy contract of serving quantized;
//! - the committed full section must meet the floors
//!   `memory_ratio >= 3.5` and `matvec_speedup >= 1.2`.

use rm_bench::{extract, hashed_unit};
use rm_core::bpr::{Bpr, BprConfig};
use rm_core::quant::{QuantArtifact, QuantMode, QuantQuery, QuantRecommender, SectionKind};
use rm_core::Recommender;
use rm_datagen::Preset;
use rm_eval::harness::Harness;
use rm_eval::metrics::{evaluate, Kpis};
use rm_sparse::DenseMatrix;
use rm_util::rng::derive_seed;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Recommendation list length for the KPI drift check (Table 1's k).
const K: usize = 10;

/// Master seed for synthetic matrices and the Tiny harness.
const SEED: u64 = 0x0C0D_EC11;

/// Dense matrix of `scale`-amplitude hash-seeded entries.
fn hashed_matrix(rows: usize, cols: usize, scale: f32, seed: u64) -> DenseMatrix {
    let mut data = vec![0.0f32; rows * cols];
    for (i, v) in data.iter_mut().enumerate() {
        *v = scale * hashed_unit(seed, i as u64);
    }
    DenseMatrix::from_vec(rows, cols, data)
}

/// Exact payload bytes of a one-section artifact with `rows` rows,
/// extrapolated from two probe encodings. The canonical layout pads each
/// array to the 64-byte alignment boundary, so byte growth is linear in
/// rows whenever `rows` is a multiple of 16 (scales: 4 B/row, codes:
/// `cols` B/row for i8) — which probes, verification size, and the
/// serving-scale targets all are. A third probe asserts the slope.
fn section_bytes(mode: QuantMode, kind: SectionKind, cols: usize, rows: usize) -> (usize, usize) {
    assert_eq!(rows % 16, 0, "extrapolation needs 16-row alignment");
    let probe = |r: usize| {
        let m = hashed_matrix(r, cols, 0.5, derive_seed(SEED, 0x5EC7));
        QuantArtifact::quantize_parts(mode, &[(kind, &m)]).payload_bytes()
    };
    let b1 = probe(1024);
    let b2 = probe(2048);
    let per_row = (b2 - b1) / 1024;
    let overhead = b1 - per_row * 1024;
    assert_eq!(
        probe(3072),
        overhead + per_row * 3072,
        "section layout is not linear in rows; cannot extrapolate"
    );
    (per_row, overhead + per_row * rows)
}

/// Table-1 KPIs of one quantized mode next to its f32 drift.
struct ModeDrift {
    kpis: Kpis,
    urr_drift: f64,
    nrr_drift: f64,
    payload_bytes: usize,
}

/// Deterministic (timing-free) outputs of the smoke scenario.
struct SmokeReport {
    users: usize,
    books: usize,
    factors: usize,
    f32_kpis: Kpis,
    /// f32 bytes of the two factor matrices the artifact replaces.
    f32_factor_bytes: usize,
    i8: ModeDrift,
    f16: ModeDrift,
}

/// Trains the Medium-preset BPR model, quantizes it both ways, and
/// evaluates Table-1 KPIs through the exact and quantized scorers.
fn run_smoke() -> SmokeReport {
    let harness = Harness::generate(derive_seed(SEED, 0x7A11), Preset::Medium);
    let train = &harness.split.train;
    let mut bpr = Bpr::new(BprConfig {
        epochs: 8,
        seed: derive_seed(SEED, 0xB9),
        ..BprConfig::default()
    });
    bpr.fit(train);
    let cases = harness.test_cases();
    let f32_kpis = evaluate(&bpr, &cases, K);
    let model = bpr.model().expect("trained model");
    let factors = model.user_factors.cols();
    let f32_factor_bytes =
        4 * (model.user_factors.rows() * factors + model.item_factors.rows() * factors);
    let drift = |mode: QuantMode| {
        let artifact = QuantArtifact::quantize(mode, model, None);
        let rec = QuantRecommender::new(&artifact, train);
        let kpis = evaluate(&rec, &cases, K);
        ModeDrift {
            kpis,
            urr_drift: (kpis.urr - f32_kpis.urr).abs(),
            nrr_drift: (kpis.nrr - f32_kpis.nrr).abs(),
            payload_bytes: artifact.payload_bytes(),
        }
    };
    SmokeReport {
        users: train.n_users(),
        books: train.n_books(),
        factors,
        f32_kpis,
        f32_factor_bytes,
        i8: drift(QuantMode::I8),
        f16: drift(QuantMode::F16),
    }
}

/// Renders the smoke section — the byte-stable part the gate recomputes.
fn smoke_json(smoke: &SmokeReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "  \"smoke\": {{");
    let _ = writeln!(s, "    \"preset\": \"medium\",");
    let _ = writeln!(s, "    \"users\": {},", smoke.users);
    let _ = writeln!(s, "    \"books\": {},", smoke.books);
    let _ = writeln!(s, "    \"factors\": {},", smoke.factors);
    let _ = writeln!(s, "    \"k\": {K},");
    let _ = writeln!(s, "    \"f32_urr\": {:.6},", smoke.f32_kpis.urr);
    let _ = writeln!(s, "    \"f32_nrr\": {:.6},", smoke.f32_kpis.nrr);
    let _ = writeln!(s, "    \"i8_urr\": {:.6},", smoke.i8.kpis.urr);
    let _ = writeln!(s, "    \"i8_nrr\": {:.6},", smoke.i8.kpis.nrr);
    let _ = writeln!(s, "    \"i8_urr_drift\": {:.6},", smoke.i8.urr_drift);
    let _ = writeln!(s, "    \"i8_nrr_drift\": {:.6},", smoke.i8.nrr_drift);
    let _ = writeln!(s, "    \"f16_urr_drift\": {:.6},", smoke.f16.urr_drift);
    let _ = writeln!(s, "    \"f16_nrr_drift\": {:.6},", smoke.f16.nrr_drift);
    let _ = writeln!(s, "    \"f32_factor_bytes\": {},", smoke.f32_factor_bytes);
    let _ = writeln!(s, "    \"i8_payload_bytes\": {},", smoke.i8.payload_bytes);
    let _ = writeln!(s, "    \"f16_payload_bytes\": {}", smoke.f16.payload_bytes);
    let _ = write!(s, "  }}");
    s
}

/// Scale-dependent knobs of the full (serving-scale) scenario.
struct FullScenario {
    users: usize,
    books: usize,
    factor_dim: usize,
    embed_dim: usize,
    /// Distinct queries timed per repetition.
    queries: usize,
    /// Best-of repetitions for each matvec timing.
    reps: usize,
}

/// Results of the full scenario.
struct FullReport {
    f32_mb: f64,
    i8_mb: f64,
    memory_ratio: f64,
    bytes_per_user: usize,
    f32_matvec_ms: f64,
    i8_matvec_ms: f64,
    matvec_speedup: f64,
}

/// Best-of-`reps` milliseconds per matvec for `f` run over all queries.
fn time_ms_per_matvec(reps: usize, queries: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        let ms = t0.elapsed().as_secs_f64() * 1e3 / queries as f64;
        if ms < best {
            best = ms;
        }
    }
    best
}

fn run_full(sc: &FullScenario) -> FullReport {
    // Real encodings for everything book-sized; exact extrapolation for
    // the user-factor section (4.3M f32 rows would cost >1 GiB just to
    // measure a byte count the layout already determines).
    let items = hashed_matrix(sc.books, sc.factor_dim, 0.3, derive_seed(SEED, 1));
    let embeds = hashed_matrix(sc.books, sc.embed_dim, 0.3, derive_seed(SEED, 2));
    let artifact = QuantArtifact::quantize_parts(
        QuantMode::I8,
        &[
            (SectionKind::ItemFactors, &items),
            (SectionKind::Embeddings, &embeds),
        ],
    );
    let (bytes_per_user, user_bytes) = section_bytes(
        QuantMode::I8,
        SectionKind::UserFactors,
        sc.factor_dim,
        sc.users,
    );
    let i8_bytes = user_bytes + artifact.payload_bytes();
    let f32_bytes =
        4 * (sc.users * sc.factor_dim + sc.books * sc.factor_dim + sc.books * sc.embed_dim);
    let mb = |b: usize| b as f64 / (1024.0 * 1024.0);

    // Matvec throughput over the item-factor matrix: the shape of both
    // the rank stage (score every pooled candidate for one user) and the
    // QuantRecommender full scan.
    let qi = artifact.item_factors().expect("item section present");
    let queries = hashed_matrix(sc.queries, sc.factor_dim, 0.3, derive_seed(SEED, 3));
    let quantized: Vec<QuantQuery> = (0..sc.queries)
        .map(|q| QuantQuery::quantize(QuantMode::I8, queries.row(q)))
        .collect();
    let mut out = Vec::with_capacity(sc.books);
    let f32_matvec_ms = time_ms_per_matvec(sc.reps, sc.queries, || {
        for q in 0..sc.queries {
            items.matvec_into(queries.row(q), &mut out);
            black_box(&out);
        }
    });
    let i8_matvec_ms = time_ms_per_matvec(sc.reps, sc.queries, || {
        for qq in &quantized {
            qi.matvec_into(&qq.as_row(), &mut out);
            black_box(&out);
        }
    });

    FullReport {
        f32_mb: mb(f32_bytes),
        i8_mb: mb(i8_bytes),
        memory_ratio: f32_bytes as f64 / i8_bytes as f64,
        bytes_per_user,
        f32_matvec_ms,
        i8_matvec_ms,
        matvec_speedup: f32_matvec_ms / i8_matvec_ms,
    }
}

/// Largest acceptable |URR or NRR drift| between f32 and quantized
/// scoring — the Table-1 accuracy contract of serving from the artifact.
const MAX_KPI_DRIFT: f64 = 5e-3;

fn run_gate(gate_path: &str, smoke: &SmokeReport, smoke_block: &str) -> Result<(), String> {
    let committed =
        std::fs::read_to_string(gate_path).map_err(|e| format!("cannot read {gate_path}: {e}"))?;
    if !committed.contains(smoke_block) {
        return Err(format!(
            "smoke section drifted from {gate_path}; quantization semantics changed — \
             regenerate with `quant-bench --out {gate_path}` (full run) and review the diff"
        ));
    }
    for (label, d) in [("i8", &smoke.i8), ("f16", &smoke.f16)] {
        if d.urr_drift > MAX_KPI_DRIFT || d.nrr_drift > MAX_KPI_DRIFT {
            return Err(format!(
                "{label} KPI drift (urr {:.6}, nrr {:.6}) above the {MAX_KPI_DRIFT} bound",
                d.urr_drift, d.nrr_drift
            ));
        }
    }
    let ratio = extract(&committed, "full", "memory_ratio")
        .ok_or_else(|| format!("{gate_path}: missing full.memory_ratio"))?;
    let speedup = extract(&committed, "full", "matvec_speedup")
        .ok_or_else(|| format!("{gate_path}: missing full.matvec_speedup"))?;
    if ratio < 3.5 {
        return Err(format!("full.memory_ratio {ratio} below the 3.5x floor"));
    }
    if speedup < 1.2 {
        return Err(format!(
            "full.matvec_speedup {speedup} below the 1.2x floor"
        ));
    }
    println!(
        "gate {gate_path}: smoke section byte-identical, KPI drift <= {MAX_KPI_DRIFT}, \
         memory ratio {ratio}x >= 3.5, matvec speedup {speedup}x >= 1.2"
    );
    Ok(())
}

fn main() {
    let mut smoke_only = false;
    let mut out_path: Option<String> = None;
    let mut gate: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke_only = true,
            "--out" => match it.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                }
            },
            "--gate" => match it.next() {
                Some(p) => gate = Some(p),
                None => {
                    eprintln!("error: --gate needs a path");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: quant-bench [--smoke] [--out FILE] [--gate FILE]");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    eprintln!("quant-bench: smoke scenario (medium harness, Table-1 KPI drift)");
    let smoke = run_smoke();
    let smoke_block = smoke_json(&smoke);
    eprintln!(
        "  f32 urr {:.4} nrr {:.4}; i8 drift urr {:.6} nrr {:.6}; f16 drift urr {:.6} nrr {:.6}",
        smoke.f32_kpis.urr,
        smoke.f32_kpis.nrr,
        smoke.i8.urr_drift,
        smoke.i8.nrr_drift,
        smoke.f16.urr_drift,
        smoke.f16.nrr_drift
    );

    let mut report = String::from("{\n  \"bench\": \"quant_artifacts\",\n");
    if smoke_only {
        report.push_str(&smoke_block);
        report.push_str("\n}\n");
    } else {
        let (users, books) = Preset::PaperX100.serving_scale();
        let sc = FullScenario {
            users,
            books,
            factor_dim: 64,
            embed_dim: 256,
            queries: 16,
            reps: 5,
        };
        eprintln!(
            "quant-bench: full scenario ({} users x {} factors, {} books x {}-dim embeddings)",
            sc.users, sc.factor_dim, sc.books, sc.embed_dim
        );
        let full = run_full(&sc);
        eprintln!(
            "  f32 {:.1} MB vs i8 {:.1} MB ({:.2}x, {} B/user); matvec f32 {:.3} ms vs i8 {:.3} ms ({:.2}x)",
            full.f32_mb,
            full.i8_mb,
            full.memory_ratio,
            full.bytes_per_user,
            full.f32_matvec_ms,
            full.i8_matvec_ms,
            full.matvec_speedup
        );
        let _ = writeln!(report, "  \"full\": {{");
        let _ = writeln!(report, "    \"users\": {},", sc.users);
        let _ = writeln!(report, "    \"books\": {},", sc.books);
        let _ = writeln!(report, "    \"factor_dim\": {},", sc.factor_dim);
        let _ = writeln!(report, "    \"embed_dim\": {},", sc.embed_dim);
        let _ = writeln!(report, "    \"f32_resident_mb\": {:.1},", full.f32_mb);
        let _ = writeln!(report, "    \"i8_resident_mb\": {:.1},", full.i8_mb);
        let _ = writeln!(report, "    \"memory_ratio\": {:.2},", full.memory_ratio);
        let _ = writeln!(report, "    \"bytes_per_user\": {},", full.bytes_per_user);
        let _ = writeln!(report, "    \"f32_matvec_ms\": {:.3},", full.f32_matvec_ms);
        let _ = writeln!(report, "    \"i8_matvec_ms\": {:.3},", full.i8_matvec_ms);
        let _ = writeln!(report, "    \"matvec_speedup\": {:.2}", full.matvec_speedup);
        let _ = writeln!(report, "  }},");
        report.push_str(&smoke_block);
        report.push_str("\n}\n");
    }

    if let Some(path) = out_path.as_deref().or(if smoke_only {
        None
    } else {
        Some("BENCH_quant.json")
    }) {
        std::fs::write(path, &report).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("quant-bench: wrote {path}");
    }

    if let Some(gate_path) = gate {
        if let Err(e) = run_gate(&gate_path, &smoke, &smoke_block) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
