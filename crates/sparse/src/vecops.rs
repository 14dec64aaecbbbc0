//! Vector kernels shared by the factorisation and embedding code.
//!
//! All reductions here are *lane-unrolled*: instead of one serial f32
//! accumulator (whose loop-carried add latency LLVM may not reassociate,
//! leaving the CPU idle most of every cycle), each kernel keeps [`LANES`]
//! independent partial sums that the backend can vectorise and pipeline.
//! On the single-core container this repo targets, that turns the dot
//! product from FP-latency-bound into FP-throughput-bound.
//!
//! # Reduction-order contract
//!
//! f32 addition is not associative, so the summation order is part of the
//! kernel's observable behaviour. Every reduction in this module follows
//! one fixed, documented order (see [`dot_block`]):
//!
//! 1. elements are consumed in blocks of [`LANES`] = 8; element `i` of each
//!    block accumulates into lane `i % 8`;
//! 2. the eight lane sums are folded by successive halving — lane `i`
//!    combines with lane `i + 4`, the four partials fold `i` with `i + 2`,
//!    the last pair adds left-to-right:
//!    `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))`.
//!    This is the tree a 4-wide SIMD horizontal reduction produces: lanes
//!    0–3 and 4–7 can live in two full-width registers through the loop,
//!    the first fold step is one vertical add of the two, and the few
//!    shuffles run once per call, after the loop (with several queries
//!    this needs the barrier described in [`dot_block`]'s body);
//! 3. the scalar tail (`len % 8` trailing elements) is added serially, in
//!    index order, onto the tree result.
//!
//! The order depends only on the slice length — never on how many vectors
//! share a kernel call — so [`dot`], the single-query rows-blocked
//! [`crate::DenseMatrix::matvec_into`], and the multi-query
//! [`crate::DenseMatrix::matvec_block_into`] all produce *bit-identical*
//! scores for the same (row, query) pair. Results are deterministic across
//! runs and platforms, but differ from the old single-accumulator chain in
//! the last ulps; [`dot_ref`] preserves that chain as the reference the
//! equivalence proptests compare against (relative 1e-5).

/// Number of independent accumulator lanes per reduction.
pub const LANES: usize = 8;

/// Scalar reference dot product — the pre-unrolling single-accumulator
/// chain, kept for equivalence testing and benchmark baselines. Do not use
/// on hot paths.
///
/// # Panics
///
/// Panics (debug) if lengths differ; in release the shorter length governs.
#[inline]
#[must_use]
pub fn dot_ref(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// `N` dot products sharing one pass over `a`: `out[q] = a · bs[q]`.
///
/// This is the one reduction kernel everything else is written in terms
/// of. Each query keeps [`LANES`] independent accumulators; the reduction
/// order (see the module docs) depends only on `a.len()`, so the result
/// for query `q` is bit-identical to `dot(a, bs[q])` regardless of `N` —
/// which is what lets blocked matvecs answer exactly like single queries.
///
/// Sharing the pass matters for matvec-shaped workloads: the row load from
/// memory is paid once and amortised over `N` accumulator chains. In an
/// optimised x86-64 build the `N` = 4 loop is `movups` + `mulps` + `addps`
/// on eight full-width accumulators (two per query), two registers for
/// the shared row block and two for products: twelve of the sixteen SSE
/// registers, with nothing spilled. A single query is bound by the add
/// latency of its accumulator chains; four queries run eight independent
/// chains and share the row loads, so `N` = 4 costs about 1.6× a single
/// query per call (`BENCH_kernels.json`).
///
/// # Panics
///
/// Panics if any `bs[q]` is shorter than `a` (debug asserts exact
/// equality).
#[inline]
#[must_use]
pub fn dot_block<const N: usize>(a: &[f32], bs: [&[f32]; N]) -> [f32; N] {
    let n = a.len();
    // Re-slice to the shared length so the optimiser can drop per-element
    // bounds checks in the inner loop.
    let bs: [&[f32]; N] = std::array::from_fn(|q| {
        debug_assert_eq!(a.len(), bs[q].len());
        &bs[q][..n]
    });
    let mut lanes = [[0.0f32; LANES]; N];
    let blocks = n / LANES;
    for blk in 0..blocks {
        let base = blk * LANES;
        let av = &a[base..base + LANES];
        for q in 0..N {
            let bv = &bs[q][base..base + LANES];
            for l in 0..LANES {
                lanes[q][l] += av[l] * bv[l];
            }
        }
    }
    // With several queries, LLVM's SLP vectoriser otherwise plans the loop
    // and the fold below together: it packs lane sums of *different*
    // queries into one register for the fold's sake, which puts lane
    // shuffles and accumulator spills inside the hot loop. `black_box`
    // hides the fold from it, so each query's lanes 0–3 and 4–7 stay two
    // full-width accumulators (eight registers at N = 4). The order is
    // untouched: those halves are exactly what the fold adds first. A
    // single query skips the barrier: its loop is bound by add latency,
    // not by the lowering, and the barrier would add a store and reload
    // to every call.
    let lanes = if N > 1 {
        std::hint::black_box(lanes)
    } else {
        lanes
    };
    let mut out = [0.0f32; N];
    let tail = blocks * LANES;
    for q in 0..N {
        let l = lanes[q];
        // Fixed halving tree, then the serial tail — the documented order.
        let h4 = [l[0] + l[4], l[1] + l[5], l[2] + l[6], l[3] + l[7]];
        let h2 = [h4[0] + h4[2], h4[1] + h4[3]];
        let mut s = h2[0] + h2[1];
        for i in tail..n {
            s += a[i] * bs[q][i];
        }
        out[q] = s;
    }
    out
}

/// Dot product (lane-unrolled; see the module's reduction-order contract).
///
/// # Panics
///
/// Panics if `b` is shorter than `a` (debug asserts exact equality).
#[inline]
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let [s] = dot_block(a, [b]);
    s
}

/// `y += alpha * x`, unrolled in [`LANES`]-wide blocks.
///
/// Element-wise (no reduction), so results are bit-identical to the naive
/// loop; the unroll only widens the store pipeline.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let blocks = n / LANES;
    for blk in 0..blocks {
        let base = blk * LANES;
        let xv = &x[base..base + LANES];
        let yv = &mut y[base..base + LANES];
        for l in 0..LANES {
            yv[l] += alpha * xv[l];
        }
    }
    for i in blocks * LANES..n {
        y[i] += alpha * x[i];
    }
}

/// `x *= alpha`.
#[inline]
pub fn scale(alpha: f32, x: &mut [f32]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Euclidean norm (lane-unrolled via [`dot`]).
#[inline]
#[must_use]
pub fn norm2(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Normalises `x` to unit L2 norm in place; a zero vector is left unchanged
/// and `false` is returned.
#[inline]
pub fn normalize(x: &mut [f32]) -> bool {
    let n = norm2(x);
    if n > 0.0 && n.is_finite() {
        scale(1.0 / n, x);
        true
    } else {
        false
    }
}

/// Cosine similarity; `0.0` when either vector is zero.
///
/// Fused: one pass accumulates `a·b`, `a·a`, and `b·b` together, each with
/// its own [`LANES`] accumulators in the contract's reduction order.
#[inline]
#[must_use]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut ab = [0.0f32; LANES];
    let mut aa = [0.0f32; LANES];
    let mut bb = [0.0f32; LANES];
    let blocks = n / LANES;
    for blk in 0..blocks {
        let base = blk * LANES;
        let av = &a[base..base + LANES];
        let bv = &b[base..base + LANES];
        for l in 0..LANES {
            ab[l] += av[l] * bv[l];
            aa[l] += av[l] * av[l];
            bb[l] += bv[l] * bv[l];
        }
    }
    let tree = |l: [f32; LANES]| {
        let h4 = [l[0] + l[4], l[1] + l[5], l[2] + l[6], l[3] + l[7]];
        (h4[0] + h4[2]) + (h4[1] + h4[3])
    };
    let (mut sab, mut saa, mut sbb) = (tree(ab), tree(aa), tree(bb));
    for i in blocks * LANES..n {
        sab += a[i] * b[i];
        saa += a[i] * a[i];
        sbb += b[i] * b[i];
    }
    let (na, nb) = (saa.sqrt(), sbb.sqrt());
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        sab / (na * nb)
    }
}

// --- quantized kernels -----------------------------------------------------
//
// The i8/f16 kernels below score rows of the quantized artifacts
// (`rm_core::quant`) without dequantizing them into scratch buffers. They
// take raw byte slices — the zero-copy section views of a loaded
// `quant.rmodel` — and interpret them in place:
//
// * i8 rows are two's-complement bytes; products accumulate in eight
//   independent **i32 lanes**. Integer addition is associative, so unlike
//   the f32 kernels the i8 reduction is *exact*: blocked, lane-unrolled,
//   and serial evaluations are all bit-identical by arithmetic, not by
//   contract. The lane tree below still mirrors [`dot_block`]'s halving
//   order so the code shape (and the autovectorizer's lowering) match the
//   float kernels.
// * f16 rows are little-endian IEEE 754 binary16 pairs, widened to f32 per
//   element; the f32 accumulation follows the module's reduction-order
//   contract exactly (LANES-wide blocks, fixed halving tree, serial tail),
//   so results depend only on the row length.
//
// Overflow bound: |i8·i8| ≤ 127² = 16129, so an i32 lane stays exact for
// up to 2¹⁶ elements per row (debug-asserted) — far above any factor or
// embedding dimension in this workspace.

/// Maximum i8 row length the i32 accumulators are guaranteed exact for.
pub const MAX_I8_DOT_LEN: usize = 1 << 16;

/// Scalar reference i8 dot product: serial i32 accumulation over
/// two's-complement bytes. Equals [`dot_i8`] exactly (integer addition is
/// associative); kept as the obviously-correct baseline the equivalence
/// proptests compare against.
///
/// # Panics
///
/// Panics (debug) if lengths differ or exceed [`MAX_I8_DOT_LEN`]; in
/// release the shorter length governs.
#[inline]
#[must_use]
pub fn dot_i8_ref(a: &[u8], b: &[u8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(a.len() <= MAX_I8_DOT_LEN);
    let n = a.len().min(b.len());
    let mut s = 0i32;
    for i in 0..n {
        s += i32::from(a[i] as i8) * i32::from(b[i] as i8);
    }
    s
}

/// Fused i8 dot product over raw quantized rows (two's-complement bytes),
/// eight i32 accumulator lanes folded by the documented halving tree.
/// Bit-identical to [`dot_i8_ref`] for every input — integer addition
/// makes the lane split exact, the unroll only buys throughput.
///
/// # Panics
///
/// Panics (debug) if lengths differ or exceed [`MAX_I8_DOT_LEN`]; in
/// release the shorter length governs.
#[inline]
#[must_use]
pub fn dot_i8(a: &[u8], b: &[u8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(a.len() <= MAX_I8_DOT_LEN);
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut lanes = [0i32; LANES];
    let blocks = n / LANES;
    for blk in 0..blocks {
        let base = blk * LANES;
        let av = &a[base..base + LANES];
        let bv = &b[base..base + LANES];
        for l in 0..LANES {
            lanes[l] += i32::from(av[l] as i8) * i32::from(bv[l] as i8);
        }
    }
    let h4 = [
        lanes[0] + lanes[4],
        lanes[1] + lanes[5],
        lanes[2] + lanes[6],
        lanes[3] + lanes[7],
    ];
    let mut s = (h4[0] + h4[2]) + (h4[1] + h4[3]);
    for i in blocks * LANES..n {
        s += i32::from(a[i] as i8) * i32::from(b[i] as i8);
    }
    s
}

/// Scaled i8 dot: the fused integer kernel widened **once** at the end,
/// `f32(Σ aᵢ·bᵢ) · (sa · sb)`. The integer sum stays below 2²⁵ for rows
/// within [`MAX_I8_DOT_LEN`] ÷ 2, so the single widening is exact and the
/// whole product is deterministic to the bit regardless of blocking.
#[inline]
#[must_use]
pub fn dot_i8_scaled(a: &[u8], sa: f32, b: &[u8], sb: f32) -> f32 {
    (dot_i8(a, b) as f32) * (sa * sb)
}

/// Converts an IEEE 754 binary16 bit pattern to f32 (exact — every f16
/// value, including subnormals and infinities, is representable in f32).
#[inline]
#[must_use]
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = u32::from(h & 0x03ff);
    let bits = match exp {
        0 => {
            if man == 0 {
                sign // signed zero
            } else {
                // Subnormal: value = man · 2⁻²⁴; renormalise around the
                // top set bit k so the f32 mantissa carries man/2ᵏ ∈ [1,2).
                let k = 31 - man.leading_zeros();
                sign | ((k + 103) << 23) | ((man << (23 - k)) & 0x007f_ffff)
            }
        }
        31 => sign | 0x7f80_0000 | (man << 13), // inf / NaN (payload kept)
        e => sign | ((u32::from(e) + 112) << 23) | (man << 13),
    };
    f32::from_bits(bits)
}

/// Converts an f32 to the nearest IEEE 754 binary16 bit pattern
/// (round-to-nearest-even; overflow saturates to ±inf, NaN stays NaN).
#[inline]
#[must_use]
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 255 {
        // Inf / NaN: a quiet bit keeps NaN payloads from collapsing to inf.
        return sign | 0x7c00 | (u16::from(man != 0) << 9);
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow → inf
    }
    if unbiased >= -14 {
        // Normal half: keep 10 mantissa bits, round on the dropped 13.
        let half_exp = ((unbiased + 15) as u32) << 10;
        let half_man = man >> 13;
        let rest = man & 0x1fff;
        let mut h = u32::from(sign) | half_exp | half_man;
        if rest > 0x1000 || (rest == 0x1000 && half_man & 1 == 1) {
            h += 1; // mantissa carry rolls into the exponent correctly
        }
        return h as u16;
    }
    if unbiased >= -25 {
        // Subnormal half: shift the full (implicit-bit) mantissa down to
        // the 2⁻²⁴ grid, round to nearest even.
        let man = man | 0x0080_0000;
        let shift = (-unbiased - 1) as u32;
        let half_man = man >> shift;
        let halfway = 1u32 << (shift - 1);
        let rest = man & ((1u32 << shift) - 1);
        let mut h = u32::from(sign) | half_man;
        if rest > halfway || (rest == halfway && half_man & 1 == 1) {
            h += 1;
        }
        return h as u16;
    }
    sign // underflow to signed zero
}

/// Reads f16 value `i` of a little-endian byte row, widened to f32.
#[inline]
fn f16_at(bytes: &[u8], i: usize) -> f32 {
    f16_to_f32(u16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]))
}

/// Scalar reference f16 dot product: serial single-accumulator f32 chain
/// over widened binary16 values, the baseline [`dot_f16`]'s equivalence
/// proptests compare against (relative 1e-5, like [`dot_ref`]).
///
/// # Panics
///
/// Panics (debug) if byte lengths differ or are odd; in release the
/// shorter even length governs.
#[inline]
#[must_use]
pub fn dot_f16_ref(a: &[u8], b: &[u8]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len() % 2, 0);
    let n = a.len().min(b.len()) / 2;
    let mut s = 0.0f32;
    for i in 0..n {
        s += f16_at(a, i) * f16_at(b, i);
    }
    s
}

/// Fused f16 dot product over little-endian binary16 byte rows: each value
/// widens to f32 in place (no dequantized scratch row) and accumulates in
/// the module's contractual reduction order — [`LANES`]-wide blocks, the
/// fixed halving tree, serial tail — so the result depends only on the row
/// length, exactly like [`dot`].
///
/// # Panics
///
/// Panics (debug) if byte lengths differ or are odd; in release the
/// shorter even length governs.
#[inline]
#[must_use]
pub fn dot_f16(a: &[u8], b: &[u8]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len() % 2, 0);
    let n = a.len().min(b.len()) / 2;
    let mut lanes = [0.0f32; LANES];
    let blocks = n / LANES;
    for blk in 0..blocks {
        let base = blk * LANES;
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += f16_at(a, base + l) * f16_at(b, base + l);
        }
    }
    let h4 = [
        lanes[0] + lanes[4],
        lanes[1] + lanes[5],
        lanes[2] + lanes[6],
        lanes[3] + lanes[7],
    ];
    let mut s = (h4[0] + h4[2]) + (h4[1] + h4[3]);
    for i in blocks * LANES..n {
        s += f16_at(a, i) * f16_at(b, i);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_axpy_scale() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        let mut y = b;
        axpy(2.0, &a, &mut y);
        assert_eq!(y, [6.0, 9.0, 12.0]);
        scale(0.5, &mut y);
        assert_eq!(y, [3.0, 4.5, 6.0]);
    }

    #[test]
    fn normalize_unit_and_zero() {
        let mut v = [3.0f32, 4.0];
        assert!(normalize(&mut v));
        assert!((norm2(&v) - 1.0).abs() < 1e-6);
        let mut z = [0.0f32, 0.0];
        assert!(!normalize(&mut z));
        assert_eq!(z, [0.0, 0.0]);
    }

    #[test]
    fn cosine_known_values() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    /// Deterministic pseudo-random test vector (golden-ratio hash — keeps
    /// the suite independent of any RNG crate).
    fn test_vec(len: usize, salt: u64) -> Vec<f32> {
        (0..len as u64)
            .map(|i| {
                let h = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 40) as f32) / ((1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    /// Relative-tolerance comparison scaled to the magnitude of the sum of
    /// absolute products (near-cancelling sums make the raw relative error
    /// of the total unboundedly large for *any* summation order).
    fn close_rel(got: f32, want: f32, scale: f32) {
        let tol = 1e-5 * scale.max(1.0);
        assert!(
            (got - want).abs() <= tol,
            "got {got}, want {want}, tol {tol}"
        );
    }

    #[test]
    fn dot_matches_ref_all_lengths_to_300() {
        // Every tail length 0..LANES appears many times in 0..=300.
        for len in 0..=300usize {
            let a = test_vec(len, 1);
            let b = test_vec(len, 2);
            let scale: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            close_rel(dot(&a, &b), dot_ref(&a, &b), scale);
        }
    }

    /// The documented reduction order written out as plain scalar code:
    /// eight lane sums, the fixed halving fold, then the serial tail.
    /// Independent of `dot_block`, so a fold change in the kernel cannot
    /// pass by changing both sides of a comparison.
    fn dot_model(a: &[f32], b: &[f32]) -> f32 {
        let tail = a.len() / LANES * LANES;
        let mut l = [0.0f32; LANES];
        for i in 0..tail {
            l[i % LANES] += a[i] * b[i];
        }
        let mut s = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
        for i in tail..a.len() {
            s += a[i] * b[i];
        }
        s
    }

    #[test]
    fn dot_block_queries_bit_identical_to_single() {
        // The contract that keeps blocked matvec == single matvec: each
        // query's result must not depend on how many queries share the
        // kernel call.
        for len in [0usize, 1, 7, 8, 9, 20, 64, 100, 256, 300] {
            let a = test_vec(len, 3);
            let qs: Vec<Vec<f32>> = (0..4).map(|q| test_vec(len, 10 + q)).collect();
            let block = dot_block(&a, [&qs[0], &qs[1], &qs[2], &qs[3]]);
            for (q, qv) in qs.iter().enumerate() {
                assert_eq!(block[q], dot(&a, qv), "len {len} query {q}");
            }
        }
        // Both must also follow the documented order bit for bit, at every
        // block width and every tail length.
        fn check<const N: usize>(a: &[f32], qs: &[Vec<f32>]) {
            let got = dot_block::<N>(a, std::array::from_fn(|q| qs[q].as_slice()));
            for (q, g) in got.iter().enumerate() {
                let want = dot_model(a, &qs[q]).to_bits();
                assert_eq!(g.to_bits(), want, "len {} N {N} query {q}", a.len());
            }
        }
        for len in 0..=300usize {
            let a = test_vec(len, 3);
            let qs: Vec<Vec<f32>> = (0..4).map(|q| test_vec(len, 10 + q)).collect();
            for qv in &qs {
                assert_eq!(
                    dot(&a, qv).to_bits(),
                    dot_model(&a, qv).to_bits(),
                    "len {len}"
                );
            }
            check::<1>(&a, &qs);
            check::<2>(&a, &qs);
            check::<3>(&a, &qs);
            check::<4>(&a, &qs);
        }
    }

    #[test]
    fn dot_is_commutative_bitwise() {
        // Blocked matvecs rely on a·b == b·a exactly (f32 multiply is
        // commutative and the reduction order depends only on length).
        for len in [5usize, 8, 31, 256] {
            let a = test_vec(len, 4);
            let b = test_vec(len, 5);
            assert_eq!(dot(&a, &b), dot(&b, &a));
        }
    }

    /// Deterministic pseudo-random i8 row (raw two's-complement bytes).
    fn test_vec_i8(len: usize, salt: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| {
                let h = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h >> 40) as u8
            })
            .collect()
    }

    /// Deterministic pseudo-random f16 row (little-endian bytes) drawn from
    /// the f32 test vector so values are representative, not bit noise.
    fn test_vec_f16(len: usize, salt: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len * 2);
        for x in test_vec(len, salt) {
            out.extend_from_slice(&f32_to_f16(x).to_le_bytes());
        }
        out
    }

    #[test]
    fn dot_i8_matches_ref_all_lengths_to_300() {
        for len in 0..=300usize {
            let a = test_vec_i8(len, 21);
            let b = test_vec_i8(len, 22);
            // Integer addition is associative: exact equality, no tolerance.
            assert_eq!(dot_i8(&a, &b), dot_i8_ref(&a, &b), "len {len}");
        }
    }

    #[test]
    fn dot_i8_known_values_and_sign() {
        // 2·3 + (−4)·5 = −14, mixing positive and negative bytes.
        let a = [2i8 as u8, (-4i8) as u8];
        let b = [3i8 as u8, 5u8];
        assert_eq!(dot_i8(&a, &b), -14);
        assert_eq!(dot_i8_ref(&a, &b), -14);
        // Saturating extremes stay exact.
        let worst_a = vec![(-127i8) as u8; 64];
        let worst_b = vec![127u8; 64];
        assert_eq!(dot_i8(&worst_a, &worst_b), -127 * 127 * 64);
    }

    #[test]
    fn dot_i8_scaled_widen_once() {
        let a = test_vec_i8(40, 31);
        let b = test_vec_i8(40, 32);
        let (sa, sb) = (0.0125f32, 0.02f32);
        let want = (dot_i8_ref(&a, &b) as f32) * (sa * sb);
        assert_eq!(dot_i8_scaled(&a, sa, &b, sb), want);
    }

    #[test]
    fn f16_round_trips_every_finite_value() {
        for bits in 0..=u16::MAX {
            let exp = (bits >> 10) & 0x1f;
            let man = bits & 0x3ff;
            if exp == 31 && man != 0 {
                // NaN: payload is not preserved bit-for-bit, only NaN-ness.
                assert!(f16_to_f32(bits).is_nan(), "bits {bits:#06x}");
                continue;
            }
            let back = f32_to_f16(f16_to_f32(bits));
            assert_eq!(back, bits, "bits {bits:#06x} -> {}", f16_to_f32(bits));
        }
    }

    #[test]
    fn f16_conversion_edge_cases() {
        assert_eq!(f16_to_f32(0x0000), 0.0);
        assert!(f16_to_f32(0x8000).is_sign_negative());
        assert_eq!(f16_to_f32(0x3c00), 1.0);
        assert_eq!(f16_to_f32(0x7c00), f32::INFINITY);
        assert_eq!(f16_to_f32(0xfc00), f32::NEG_INFINITY);
        // Smallest subnormal and largest normal.
        assert_eq!(f16_to_f32(0x0001), 2.0f32.powi(-24));
        assert_eq!(f16_to_f32(0x7bff), 65504.0);
        // Overflow saturates, NaN survives, underflow signs its zero.
        assert_eq!(f32_to_f16(1e6), 0x7c00);
        assert_eq!(f32_to_f16(-1e6), 0xfc00);
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        assert_eq!(f32_to_f16(-1e-9), 0x8000);
        // Round-to-nearest-even at the halfway point: 1 + 2^-11 ties back
        // to 1.0 (even), 1 + 3·2^-11 rounds up to 1 + 2^-9 over 1 + 2^-10.
        assert_eq!(f32_to_f16(1.0 + 2.0f32.powi(-11)), 0x3c00);
        assert_eq!(f32_to_f16(1.0 + 3.0 * 2.0f32.powi(-11)), 0x3c02);
    }

    #[test]
    fn dot_f16_matches_ref_all_lengths_to_300() {
        for len in 0..=300usize {
            let a = test_vec_f16(len, 41);
            let b = test_vec_f16(len, 42);
            let scale: f32 = (0..len)
                .map(|i| (f16_at(&a, i) * f16_at(&b, i)).abs())
                .sum();
            close_rel(dot_f16(&a, &b), dot_f16_ref(&a, &b), scale);
        }
    }

    #[test]
    fn dot_f16_follows_the_f32_reduction_order() {
        // Widening each f16 to f32 and calling `dot` must reproduce the
        // fused kernel bit-for-bit: same values, same contractual order.
        for len in [0usize, 1, 7, 8, 9, 31, 64, 100, 300] {
            let a = test_vec_f16(len, 51);
            let b = test_vec_f16(len, 52);
            let aw: Vec<f32> = (0..len).map(|i| f16_at(&a, i)).collect();
            let bw: Vec<f32> = (0..len).map(|i| f16_at(&b, i)).collect();
            assert_eq!(dot_f16(&a, &b), dot(&aw, &bw), "len {len}");
        }
    }

    proptest! {
        #[test]
        fn dot_i8_equiv_ref_proptest(
            len in 0usize..=300,
            salt_a in 0u64..1000,
            salt_b in 1000u64..2000,
        ) {
            let a = test_vec_i8(len, salt_a);
            let b = test_vec_i8(len, salt_b);
            prop_assert_eq!(dot_i8(&a, &b), dot_i8_ref(&a, &b));
        }

        #[test]
        fn dot_f16_equiv_ref_proptest(
            len in 0usize..=300,
            salt_a in 0u64..1000,
            salt_b in 1000u64..2000,
        ) {
            let a = test_vec_f16(len, salt_a);
            let b = test_vec_f16(len, salt_b);
            let scale: f32 = (0..len)
                .map(|i| (f16_at(&a, i) * f16_at(&b, i)).abs())
                .sum();
            let (got, want) = (dot_f16(&a, &b), dot_f16_ref(&a, &b));
            prop_assert!((got - want).abs() <= 1e-5 * scale.max(1.0),
                "len {} got {} want {}", len, got, want);
        }

        #[test]
        fn f16_widening_error_is_bounded(x in -1000.0f32..1000.0) {
            // Relative error of one f32 -> f16 -> f32 trip is at most 2^-11
            // for normal halves (|x| >= 2^-14).
            let back = f16_to_f32(f32_to_f16(x));
            if x.abs() >= 2.0f32.powi(-14) {
                prop_assert!((back - x).abs() <= x.abs() * 2.0f32.powi(-11),
                    "x {} back {}", x, back);
            } else {
                prop_assert!((back - x).abs() <= 2.0f32.powi(-25));
            }
        }

        #[test]
        fn dot_equiv_ref_proptest(
            len in 0usize..=300,
            salt_a in 0u64..1000,
            salt_b in 1000u64..2000,
        ) {
            let a = test_vec(len, salt_a);
            let b = test_vec(len, salt_b);
            let scale: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
            let (got, want) = (dot(&a, &b), dot_ref(&a, &b));
            prop_assert!((got - want).abs() <= 1e-5 * scale.max(1.0),
                "len {} got {} want {}", len, got, want);
        }

        #[test]
        fn norm2_equiv_ref_proptest(v in proptest::collection::vec(-10.0f32..10.0, 0..300)) {
            let want = dot_ref(&v, &v).sqrt();
            let got = norm2(&v);
            // Same-sign summands: the relative error bound is tight.
            prop_assert!((got - want).abs() <= 1e-5 * want.max(1.0));
        }

        #[test]
        fn axpy_bitwise_matches_naive(
            v in proptest::collection::vec(-10.0f32..10.0, 0..300),
            alpha in -2.0f32..2.0,
        ) {
            let x = v.clone();
            let mut y = test_vec(v.len(), 77);
            let mut y_ref = y.clone();
            axpy(alpha, &x, &mut y);
            for (yi, &xi) in y_ref.iter_mut().zip(&x) {
                *yi += alpha * xi;
            }
            prop_assert_eq!(y, y_ref);
        }

        #[test]
        fn cosine_bounded(a in proptest::collection::vec(-10.0f32..10.0, 4), b in proptest::collection::vec(-10.0f32..10.0, 4)) {
            let c = cosine(&a, &b);
            prop_assert!((-1.0 - 1e-5..=1.0 + 1e-5).contains(&c));
        }

        #[test]
        fn cosine_scale_invariant(v in proptest::collection::vec(-5.0f32..5.0, 8), s in 0.1f32..10.0) {
            let scaled: Vec<f32> = v.iter().map(|&x| x * s).collect();
            let c1 = cosine(&v, &v);
            let c2 = cosine(&v, &scaled);
            prop_assert!((c1 - c2).abs() < 1e-4);
        }

        #[test]
        fn cosine_matches_composed_kernels(
            len in 1usize..300,
            salt_a in 0u64..500,
            salt_b in 500u64..1000,
        ) {
            // The fused kernel vs dot/norm2 composed the old way.
            let a = test_vec(len, salt_a);
            let b = test_vec(len, salt_b);
            let (na, nb) = (dot_ref(&a, &a).sqrt(), dot_ref(&b, &b).sqrt());
            let want = if na == 0.0 || nb == 0.0 { 0.0 } else { dot_ref(&a, &b) / (na * nb) };
            prop_assert!((cosine(&a, &b) - want).abs() < 1e-4);
        }

        #[test]
        fn normalized_dot_equals_cosine(a in proptest::collection::vec(-5.0f32..5.0, 6), b in proptest::collection::vec(-5.0f32..5.0, 6)) {
            let mut an = a.clone();
            let mut bn = b.clone();
            if normalize(&mut an) && normalize(&mut bn) {
                prop_assert!((dot(&an, &bn) - cosine(&a, &b)).abs() < 1e-4);
            }
        }
    }
}
