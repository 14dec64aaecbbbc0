//! Kernel micro-benchmark with machine-readable output: times the scalar
//! reference chain against the unrolled kernels and writes the comparison
//! to a JSON file (`BENCH_kernels.json` by default), so speedups are
//! tracked in-repo.
//!
//! ```text
//! kernel-bench [--smoke] [--out FILE]
//! ```
//!
//! `--smoke` cuts iteration counts ~30× for CI: timings get noisy but the
//! binary still exercises every kernel end to end in well under a second.

use rm_sparse::vecops::{dot, dot_ref};
use rm_sparse::DenseMatrix;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Catalogue size of the paper's corpus (books in the OPAC dump).
const CATALOGUE: usize = 2_332;

fn vec_of(salt: u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

/// Best-of-`reps` nanoseconds per call of `f`, each rep averaging `iters`
/// calls. Best-of filters scheduler noise on a single-core box better
/// than a mean does.
fn time_ns(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

struct Row {
    name: &'static str,
    scalar_ns: f64,
    unrolled_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.unrolled_ns
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_kernels.json");
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: kernel-bench [--smoke] [--out FILE]");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let (reps, iters) = if smoke { (3, 200) } else { (7, 6_000) };

    let mut rows = Vec::new();

    // Plain dot at the BPR factor count and the encoder dimension.
    for (name, dim) in [("dot_64", 64usize), ("dot_256", 256)] {
        let a = vec_of(1, dim);
        let b = vec_of(2, dim);
        let scalar = time_ns(reps, iters * 8, || {
            black_box(dot_ref(black_box(&a), black_box(&b)));
        });
        let unrolled = time_ns(reps, iters * 8, || {
            black_box(dot(black_box(&a), black_box(&b)));
        });
        rows.push(Row {
            name,
            scalar_ns: scalar,
            unrolled_ns: unrolled,
        });
    }

    // Catalogue scan: one query against every item embedding, the Closest
    // Items / serve hot loop. Scalar baseline is a dot_ref per row.
    {
        let dim = 256;
        let m = DenseMatrix::from_vec(CATALOGUE, dim, vec_of(3, CATALOGUE * dim));
        let x = vec_of(4, dim);
        let mut out = Vec::with_capacity(CATALOGUE);
        // Catalogue scans stream ~2.4 MB per pass, so wall time is at the
        // mercy of the memory subsystem; extra repetitions keep best-of
        // stable on a busy single-core box.
        let reps = reps + 2;
        let scalar = time_ns(reps, iters / 40 + 1, || {
            out.clear();
            for r in 0..CATALOGUE {
                out.push(dot_ref(m.row(r), black_box(&x)));
            }
            black_box(out.last().copied());
        });
        let unrolled = time_ns(reps, iters / 40 + 1, || {
            m.matvec_into(black_box(&x), &mut out);
            black_box(out.last().copied());
        });
        rows.push(Row {
            name: "matvec_2332x256",
            scalar_ns: scalar,
            unrolled_ns: unrolled,
        });

        // Register-blocked scan: four queries share one pass over the
        // matrix. The row times one call, which scores all four queries.
        let queries: Vec<Vec<f32>> = (0..4).map(|q| vec_of(10 + q, dim)).collect();
        let xs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let mut outs: Vec<Vec<f32>> = (0..4).map(|_| Vec::with_capacity(CATALOGUE)).collect();
        let scalar4 = time_ns(reps, iters / 160 + 1, || {
            for (q, o) in xs.iter().zip(outs.iter_mut()) {
                o.clear();
                for r in 0..CATALOGUE {
                    o.push(dot_ref(m.row(r), black_box(q)));
                }
            }
            black_box(outs[3].last().copied());
        });
        let blocked = time_ns(reps, iters / 160 + 1, || {
            m.matvec_block_into(black_box(&xs), &mut outs);
            black_box(outs[3].last().copied());
        });
        rows.push(Row {
            name: "matvec_block4_2332x256",
            scalar_ns: scalar4,
            unrolled_ns: blocked,
        });
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    json.push_str("  \"unit\": \"ns_per_call\",\n  \"benches\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"scalar_ns\": {:.1}, \"unrolled_ns\": {:.1}, \"speedup\": {:.2}}}",
            row.name,
            row.scalar_ns,
            row.unrolled_ns,
            row.speedup()
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    println!(
        "{:<26} {:>12} {:>12} {:>9}",
        "kernel", "scalar ns", "unrolled ns", "speedup"
    );
    for row in &rows {
        println!(
            "{:<26} {:>12.1} {:>12.1} {:>8.2}x",
            row.name,
            row.scalar_ns,
            row.unrolled_ns,
            row.speedup()
        );
    }
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("error: cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
