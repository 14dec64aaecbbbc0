//! Component micro-benchmarks: the hot kernels under every experiment —
//! alias sampling, top-k selection, CSR construction, text encoding,
//! similarity scans, and one WARP training epoch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rm_core::bpr::{Bpr, BprConfig};
use rm_core::Recommender;
use rm_dataset::interactions::Interactions;
use rm_embed::{EncoderConfig, SemanticEncoder};
use rm_util::rng::rng_from_seed;
use rm_util::sample::ZipfWeights;
use rm_util::topk::top_k_of;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Dense kernels: unrolled dot vs the scalar reference chain, at the
    // BPR factor count (64) and the encoder dimension (256), plus full
    // catalogue scans (2 332 rows) single-query and register-blocked.
    {
        use rm_sparse::vecops::{dot, dot_block, dot_ref};
        use rm_sparse::DenseMatrix;
        let vec_of = |salt: u64, len: usize| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    let h = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (h >> 40) as f32 / (1u64 << 24) as f32 - 0.5
                })
                .collect()
        };
        for dim in [64usize, 256] {
            let a = vec_of(1, dim);
            let b_ = vec_of(2, dim);
            c.bench_function(&format!("micro/dot_ref_{dim}"), |b| {
                b.iter(|| black_box(dot_ref(black_box(&a), black_box(&b_))));
            });
            c.bench_function(&format!("micro/dot_{dim}"), |b| {
                b.iter(|| black_box(dot(black_box(&a), black_box(&b_))));
            });
        }
        let dim = 256;
        let rows = 2_332;
        let m = DenseMatrix::from_vec(rows, dim, vec_of(3, rows * dim));
        let queries: Vec<Vec<f32>> = (0..4).map(|q| vec_of(10 + q, dim)).collect();
        let mut out = Vec::with_capacity(rows);
        c.bench_function("micro/matvec_2332x256", |b| {
            b.iter(|| {
                m.matvec_into(black_box(&queries[0]), &mut out);
                black_box(out.last().copied())
            });
        });
        let xs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let mut outs: Vec<Vec<f32>> = (0..4).map(|_| Vec::with_capacity(rows)).collect();
        c.bench_function("micro/matvec_block4_2332x256", |b| {
            b.iter(|| {
                m.matvec_block_into(black_box(&xs), &mut outs);
                black_box(outs[3].last().copied())
            });
        });
        let quad: [&[f32]; 4] = [&queries[0], &queries[1], &queries[2], &queries[3]];
        let probe = vec_of(42, dim);
        c.bench_function("micro/dot_block4_256", |b| {
            b.iter(|| black_box(dot_block(black_box(&probe), black_box(quad))));
        });
    }

    // Alias sampling over a catalogue-sized support.
    let table = ZipfWeights::with_shift(1.0, 16.0).alias_table(2_332);
    let mut rng = rng_from_seed(1);
    c.bench_function("micro/alias_sample", |b| {
        b.iter(|| black_box(table.sample(&mut rng)));
    });

    // Top-20 of a catalogue-sized score vector.
    let scores: Vec<(u32, f32)> = (0..2_332u32).map(|i| (i, (i as f32 * 0.7).sin())).collect();
    c.bench_function("micro/top20_of_2332", |b| {
        b.iter(|| black_box(top_k_of(scores.iter().copied(), 20)));
    });

    // CSR construction from 100k pairs (pseudo-random via the alias
    // table, which rm-bench can reach without a direct rand dependency).
    let user_table = ZipfWeights::new(0.3).alias_table(5_000);
    let book_table = ZipfWeights::new(0.3).alias_table(2_332);
    let mut rng2 = rng_from_seed(2);
    let pairs: Vec<(u32, u32)> = (0..100_000)
        .map(|_| {
            (
                user_table.sample(&mut rng2) as u32,
                book_table.sample(&mut rng2) as u32,
            )
        })
        .collect();
    c.bench_function("micro/csr_from_100k_pairs", |b| {
        b.iter(|| {
            black_box(rm_sparse::CsrMatrix::from_pairs(
                5_000,
                2_332,
                black_box(&pairs),
            ))
        });
    });

    // Metadata-summary encoding.
    let encoder = SemanticEncoder::new(EncoderConfig::default());
    let summary = "Elsa Morante Thriller Thriller Mystery una famiglia a roma durante la guerra";
    c.bench_function("micro/encode_summary", |b| {
        b.iter(|| black_box(encoder.encode(black_box(summary))));
    });

    // Exact k-NN over a catalogue-sized store.
    {
        use rm_embed::EmbeddingStore;
        let texts: Vec<String> = (0..2_332)
            .map(|i| {
                format!(
                    "autore{} genere{} parola{} tema{}",
                    i % 700,
                    i % 14,
                    i,
                    i % 97
                )
            })
            .collect();
        let store = EmbeddingStore::encode_all(&encoder, &texts);
        c.bench_function("micro/bruteforce_knn", |b| {
            b.iter(|| black_box(store.nearest(17, 20)));
        });
    }

    // One WARP epoch on a small community matrix.
    let train = {
        let pairs: Vec<(rm_dataset::ids::UserIdx, rm_dataset::ids::BookIdx)> = (0..500u32)
            .flat_map(|u| {
                (0..20u32).map(move |i| {
                    (
                        rm_dataset::ids::UserIdx(u),
                        rm_dataset::ids::BookIdx((u % 10) * 100 + i),
                    )
                })
            })
            .collect();
        Interactions::from_pairs(500, 1_000, &pairs)
    };
    let mut group = c.benchmark_group("micro");
    group.sample_size(10);
    group.bench_function("warp_epoch_10k_interactions", |b| {
        b.iter_batched(
            || {
                Bpr::new(BprConfig {
                    factors: 20,
                    epochs: 1,
                    ..BprConfig::default()
                })
            },
            |mut bpr| {
                bpr.fit(&train);
                black_box(bpr)
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
