//! ANN (IVF) retrieval benchmark with machine-readable output: measures
//! recall@10 and per-query speedup of [`rm_embed::IvfIndex`] against the
//! exact scan on a deterministic clustered synthetic catalogue, and
//! writes the result to `BENCH_ann.json`.
//!
//! ```text
//! ann-bench [--smoke] [--out FILE] [--gate FILE]
//! ```
//!
//! The full run (no flags) builds a 1M-item, 64-dim catalogue — the
//! scale where sub-linear retrieval matters — and is what produces the
//! committed `BENCH_ann.json`. `--smoke` runs a 20k-item variant in a
//! few seconds for CI. Recall numbers are timing-free and fully
//! deterministic (hash-seeded data, seeded k-means, total-order TopK),
//! so `--gate FILE` can enforce the committed report:
//!
//! - the recomputed smoke section must match the committed one
//!   byte-for-byte (recall drift = a retrieval-semantics change);
//! - the committed full section must meet the floors
//!   `recall_at_10 >= 0.95` and `speedup >= 10`;
//! - probing every list must reproduce the exact scan (`recall 1.0`),
//!   the bit-identity contract the serve pipeline relies on.

use rm_bench::{extract, hashed_unit};
use rm_embed::{EmbeddingStore, IvfConfig, IvfIndex, IvfScratch};
use rm_sparse::vecops::dot;
use rm_sparse::DenseMatrix;
use rm_util::rng::{derive_seed, rng_from_seed};
use rm_util::topk::top_k_of;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Neighbours compared between exact and ANN rankings.
const K: usize = 10;

/// Master seed for the synthetic catalogue and the k-means init.
const SEED: u64 = 0xBE7C_11A5;

/// Clustered catalogue: `topics` hash-seeded centres in `dim` dims, each
/// row a centre plus `noise`-scaled jitter. Mirrors what book embeddings
/// look like in practice (genre/topic cluster structure) — a uniform
/// cloud would make IVF look artificially bad and flat timings would
/// make it look artificially good.
fn clustered_rows(n: usize, dim: usize, topics: usize, noise: f32, seed: u64) -> DenseMatrix {
    let centre_seed = derive_seed(seed, 1);
    let assign_seed = derive_seed(seed, 2);
    let jitter_seed = derive_seed(seed, 3);
    let mut centres = vec![0.0f32; topics * dim];
    for (i, c) in centres.iter_mut().enumerate() {
        *c = hashed_unit(centre_seed, i as u64);
    }
    let mut data = vec![0.0f32; n * dim];
    for row in 0..n {
        let t = (derive_seed(assign_seed, row as u64) % topics as u64) as usize;
        let centre = &centres[t * dim..(t + 1) * dim];
        let out = &mut data[row * dim..(row + 1) * dim];
        let row_seed = derive_seed(jitter_seed, row as u64);
        for (j, (o, c)) in out.iter_mut().zip(centre).enumerate() {
            *o = c + noise * hashed_unit(row_seed, j as u64);
        }
    }
    DenseMatrix::from_vec(n, dim, data)
}

/// Held-out query vectors drawn from the same topic mixture.
fn query_rows(n: usize, dim: usize, topics: usize, noise: f32, seed: u64) -> DenseMatrix {
    clustered_rows(n, dim, topics, noise, derive_seed(seed, 0x71))
}

/// Fraction of the exact top-[`K`] recovered by the ANN ranking,
/// averaged over queries.
fn recall_at_k(exact: &[Vec<u32>], approx: &[Vec<u32>]) -> f64 {
    let mut hit = 0usize;
    let mut total = 0usize;
    for (e, a) in exact.iter().zip(approx) {
        total += e.len();
        hit += e.iter().filter(|id| a.contains(id)).count();
    }
    if total == 0 {
        return 1.0;
    }
    hit as f64 / total as f64
}

/// Exact top-[`K`] per query by brute-force cosine scan over the store.
fn exact_cosine(store: &EmbeddingStore, queries: &DenseMatrix) -> Vec<Vec<u32>> {
    (0..queries.rows())
        .map(|q| {
            let query = queries.row(q);
            top_k_of(
                (0..store.len()).map(|i| (i as u32, dot(query, store.embedding(i)))),
                K,
            )
            .into_iter()
            .map(|s| s.item)
            .collect()
        })
        .collect()
}

/// ANN top-[`K`] per query at the given probe depth.
fn ann_cosine(
    store: &EmbeddingStore,
    index: &IvfIndex,
    queries: &DenseMatrix,
    nprobe: usize,
) -> Vec<Vec<u32>> {
    let mut scratch = IvfScratch::new();
    let mut out = Vec::new();
    (0..queries.rows())
        .map(|q| {
            let query = queries.row(q);
            index.search_into(
                query,
                K,
                nprobe,
                &[],
                |i| dot(query, store.embedding(i as usize)),
                &mut scratch,
                &mut out,
            );
            out.clone()
        })
        .collect()
}

/// Best-of-`reps` milliseconds per query for `f` run over all queries.
fn time_ms_per_query(reps: usize, queries: usize, mut f: impl FnMut()) -> f64 {
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

/// Scale-dependent knobs for one cosine benchmark run.
struct Scenario {
    n_items: usize,
    dim: usize,
    topics: usize,
    nlist: usize,
    nprobe: usize,
    iters: usize,
    /// Item jitter around the topic centre.
    noise: f32,
    /// Query jitter. Smaller than `noise` on purpose: serve-path content
    /// queries are *mean* embeddings of a user's history, and averaging
    /// N books shrinks the jitter by roughly sqrt(N).
    query_noise: f32,
    queries: usize,
}

const FULL: Scenario = Scenario {
    n_items: 1_000_000,
    dim: 64,
    topics: 256,
    nlist: 1000,
    nprobe: 16,
    iters: 8,
    noise: 0.25,
    query_noise: 0.1,
    queries: 100,
};

const SMOKE: Scenario = Scenario {
    n_items: 20_000,
    dim: 32,
    topics: 64,
    nlist: 64,
    nprobe: 8,
    iters: 4,
    noise: 0.25,
    query_noise: 0.1,
    queries: 50,
};

/// Deterministic (timing-free) outputs of a scenario.
struct Recalls {
    /// recall@10 at the scenario's serving `nprobe`.
    at_nprobe: f64,
    /// recall@10 probing every list — 1.0 by the bit-identity contract.
    full_probe: f64,
}

fn run_recalls(
    sc: &Scenario,
) -> (
    EmbeddingStore,
    IvfIndex,
    DenseMatrix,
    Vec<Vec<u32>>,
    Recalls,
) {
    let store = EmbeddingStore::from_matrix(clustered_rows(
        sc.n_items, sc.dim, sc.topics, sc.noise, SEED,
    ));
    let queries = query_rows(sc.queries, sc.dim, sc.topics, sc.query_noise, SEED);
    let config = IvfConfig {
        nlist: sc.nlist,
        iters: sc.iters,
        seed: SEED,
        train_sample: 100_000,
    };
    let index = IvfIndex::build(&store, &config);
    let exact = exact_cosine(&store, &queries);
    let at_nprobe = recall_at_k(&exact, &ann_cosine(&store, &index, &queries, sc.nprobe));
    let full_probe = recall_at_k(&exact, &ann_cosine(&store, &index, &queries, usize::MAX));
    (
        store,
        index,
        queries,
        exact,
        Recalls {
            at_nprobe,
            full_probe,
        },
    )
}

/// MIPS smoke recall: BPR-shaped gaussian item factors, unaugmented
/// user-factor queries, inner-product ground truth. Exercises the
/// augmented-dimension reduction end to end.
fn mips_smoke_recall() -> f64 {
    let mut rng = rng_from_seed(derive_seed(SEED, 0x3117));
    let factors = DenseMatrix::gaussian(SMOKE.n_items, 16, 0.3, &mut rng);
    let queries = DenseMatrix::gaussian(SMOKE.queries, 16, 0.5, &mut rng);
    let config = IvfConfig {
        nlist: SMOKE.nlist,
        iters: 4,
        seed: SEED,
        train_sample: 100_000,
    };
    let index = IvfIndex::build_mips(&factors, &config);
    let exact: Vec<Vec<u32>> = (0..queries.rows())
        .map(|q| {
            let query = queries.row(q);
            top_k_of(
                (0..factors.rows()).map(|i| (i as u32, dot(query, factors.row(i)))),
                K,
            )
            .into_iter()
            .map(|s| s.item)
            .collect()
        })
        .collect();
    let mut scratch = IvfScratch::new();
    let mut out = Vec::new();
    let approx: Vec<Vec<u32>> = (0..queries.rows())
        .map(|q| {
            let query = queries.row(q);
            index.search_into(
                query,
                K,
                SMOKE.nprobe,
                &[],
                |i| dot(query, factors.row(i as usize)),
                &mut scratch,
                &mut out,
            );
            out.clone()
        })
        .collect();
    recall_at_k(&exact, &approx)
}

/// Renders the smoke section — the byte-stable part the gate recomputes.
fn smoke_json(recalls: &Recalls, mips_recall: f64) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "  \"smoke\": {{");
    let _ = writeln!(s, "    \"n_items\": {},", SMOKE.n_items);
    let _ = writeln!(s, "    \"dim\": {},", SMOKE.dim);
    let _ = writeln!(s, "    \"nlist\": {},", SMOKE.nlist);
    let _ = writeln!(s, "    \"nprobe\": {},", SMOKE.nprobe);
    let _ = writeln!(s, "    \"queries\": {},", SMOKE.queries);
    let _ = writeln!(s, "    \"recall_at_10\": {:.4},", recalls.at_nprobe);
    let _ = writeln!(s, "    \"full_probe_recall\": {:.4},", recalls.full_probe);
    let _ = writeln!(s, "    \"mips_recall_at_10\": {mips_recall:.4}");
    let _ = write!(s, "  }}");
    s
}

fn run_gate(gate_path: &str, smoke_block: &str) -> Result<(), String> {
    let committed =
        std::fs::read_to_string(gate_path).map_err(|e| format!("cannot read {gate_path}: {e}"))?;
    if !committed.contains(smoke_block) {
        return Err(format!(
            "smoke section drifted from {gate_path}; ANN retrieval semantics changed — \
             regenerate with `ann-bench --out {gate_path}` (full run) and review the diff"
        ));
    }
    let recall = extract(&committed, "full", "recall_at_10")
        .ok_or_else(|| format!("{gate_path}: missing full.recall_at_10"))?;
    let speedup = extract(&committed, "full", "speedup")
        .ok_or_else(|| format!("{gate_path}: missing full.speedup"))?;
    let full_probe = extract(&committed, "smoke", "full_probe_recall")
        .ok_or_else(|| format!("{gate_path}: missing smoke.full_probe_recall"))?;
    if recall < 0.95 {
        return Err(format!("full.recall_at_10 {recall} below the 0.95 floor"));
    }
    if speedup < 10.0 {
        return Err(format!("full.speedup {speedup} below the 10x floor"));
    }
    if full_probe != 1.0 {
        return Err(format!(
            "smoke.full_probe_recall {full_probe} != 1.0: probing every list no longer \
             reproduces the exact scan"
        ));
    }
    println!("gate {gate_path}: smoke section byte-identical, full recall {recall} >= 0.95, speedup {speedup}x >= 10");
    Ok(())
}

fn main() {
    let mut smoke = false;
    let mut out_path: Option<String> = None;
    let mut gate: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
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
                eprintln!("usage: ann-bench [--smoke] [--out FILE] [--gate FILE]");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    eprintln!(
        "ann-bench: smoke scenario ({} items, dim {})",
        SMOKE.n_items, SMOKE.dim
    );
    let (_, _, _, _, smoke_recalls) = run_recalls(&SMOKE);
    let mips_recall = mips_smoke_recall();
    let smoke_block = smoke_json(&smoke_recalls, mips_recall);
    eprintln!(
        "  recall@10 {:.4} (nprobe {}), full-probe {:.4}, mips {:.4}",
        smoke_recalls.at_nprobe, SMOKE.nprobe, smoke_recalls.full_probe, mips_recall
    );

    let mut report = String::from("{\n  \"bench\": \"ann_ivf\",\n");
    if smoke {
        report.push_str(&smoke_block);
        report.push_str("\n}\n");
    } else {
        eprintln!(
            "ann-bench: full scenario ({} items, dim {}) — building index...",
            FULL.n_items, FULL.dim
        );
        let (store, index, queries, _, full_recalls) = run_recalls(&FULL);
        let exact_ms = time_ms_per_query(3, FULL.queries, || {
            black_box(exact_cosine(&store, &queries));
        });
        let ann_ms = time_ms_per_query(3, FULL.queries, || {
            black_box(ann_cosine(&store, &index, &queries, FULL.nprobe));
        });
        let speedup = exact_ms / ann_ms;
        eprintln!(
            "  recall@10 {:.4} (nprobe {}), exact {exact_ms:.3} ms/q, ann {ann_ms:.3} ms/q, {speedup:.1}x",
            full_recalls.at_nprobe, FULL.nprobe
        );
        let _ = writeln!(report, "  \"full\": {{");
        let _ = writeln!(report, "    \"n_items\": {},", FULL.n_items);
        let _ = writeln!(report, "    \"dim\": {},", FULL.dim);
        let _ = writeln!(report, "    \"nlist\": {},", FULL.nlist);
        let _ = writeln!(report, "    \"nprobe\": {},", FULL.nprobe);
        let _ = writeln!(report, "    \"queries\": {},", FULL.queries);
        let _ = writeln!(
            report,
            "    \"recall_at_10\": {:.4},",
            full_recalls.at_nprobe
        );
        let _ = writeln!(
            report,
            "    \"full_probe_recall\": {:.4},",
            full_recalls.full_probe
        );
        let _ = writeln!(report, "    \"exact_ms_per_query\": {exact_ms:.3},");
        let _ = writeln!(report, "    \"ann_ms_per_query\": {ann_ms:.3},");
        let _ = writeln!(report, "    \"speedup\": {speedup:.1}");
        let _ = writeln!(report, "  }},");
        report.push_str(&smoke_block);
        report.push_str("\n}\n");
    }

    if let Some(path) = out_path
        .as_deref()
        .or(if smoke { None } else { Some("BENCH_ann.json") })
    {
        std::fs::write(path, &report).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("ann-bench: wrote {path}");
    }

    if let Some(gate_path) = gate {
        if let Err(e) = run_gate(&gate_path, &smoke_block) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
