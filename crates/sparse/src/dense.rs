//! Row-major dense `f32` matrices for latent factors.
//!
//! BPR stores `V ∈ R^(U×L)` and the transposed item factors `Pᵀ ∈ R^(B×L)` as
//! `DenseMatrix`; SGD updates touch one row of each per step, so rows are the
//! unit of access. L is small (5–64), so rows fit comfortably in cache lines
//! and the lane-unrolled kernels in [`crate::vecops`] are the right tool;
//! multi-query catalogue scans additionally block queries four at a time
//! ([`DenseMatrix::matvec_block_into`]) so each row load from memory feeds
//! four accumulator sets.

use rand::Rng;
use rand::RngExt;

/// A row-major dense matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// All-zeros matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds each entry from `f(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Gaussian init `N(0, scale²)` — the zero-mean normal prior the BPR
    /// formulation places on the factors (Section 4, Eq. 3).
    #[must_use]
    pub fn gaussian<R: Rng + ?Sized>(rows: usize, cols: usize, scale: f32, rng: &mut R) -> Self {
        Self::from_fn(rows, cols, |_, _| {
            rm_util::sample::standard_normal(rng) as f32 * scale
        })
    }

    /// Uniform init in `[-scale, scale]`.
    #[must_use]
    pub fn uniform<R: Rng + ?Sized>(rows: usize, cols: usize, scale: f32, rng: &mut R) -> Self {
        Self::from_fn(rows, cols, |_, _| (rng.random::<f32>() * 2.0 - 1.0) * scale)
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a slice.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Two distinct rows, one mutable each — the shape of a BPR SGD step
    /// (update user row and item row together).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn two_rows_mut(&mut self, a: usize, b: usize) -> (&mut [f32], &mut [f32]) {
        assert_ne!(a, b, "two_rows_mut requires distinct rows");
        let cols = self.cols;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * cols);
            (&mut lo[a * cols..(a + 1) * cols], &mut hi[..cols])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * cols);
            let (bslice, aslice) = (&mut lo[b * cols..(b + 1) * cols], &mut hi[..cols]);
            (aslice, bslice)
        }
    }

    /// The raw backing buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Frobenius norm squared — the `‖V‖²` regularisation term.
    #[must_use]
    pub fn frob_norm_sq(&self) -> f64 {
        self.data.iter().map(|&v| f64::from(v) * f64::from(v)).sum()
    }

    /// Matrix–vector product `self · x` (len(x) == cols).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[must_use]
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.rows);
        self.matvec_into(x, &mut out);
        out
    }

    /// [`DenseMatrix::matvec`] writing into `out` (cleared and refilled),
    /// so batch callers can reuse one allocation across calls.
    ///
    /// One lane-unrolled [`crate::vecops::dot`] per row: with a single
    /// query there is no row load to share, and the one-query kernel keeps
    /// its eight lanes in four two-lane accumulators, bound by add latency.
    /// Callers with several queries should use
    /// [`DenseMatrix::matvec_block_into`], which scores four per pass for
    /// about 1.6× the cost of one. Row results are bit-identical to
    /// [`DenseMatrix::matvec_block_into`]'s because the kernel's reduction
    /// order depends only on the row length.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec_into(&self, x: &[f32], out: &mut Vec<f32>) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        out.clear();
        out.reserve(self.rows);
        for r in 0..self.rows {
            out.push(crate::vecops::dot(self.row(r), x));
        }
    }

    /// `N` matrix–vector products in one pass over the matrix: the shared
    /// register-blocked matvec behind rm-core's batch scorers (BPR over its
    /// item factors, Closest Items over the embedding store, both through
    /// one blocked loop), which the rm-serve engine's exact sources call.
    ///
    /// Queries are processed in register blocks of four: each row is loaded
    /// from memory once and multiplied into four independent
    /// [`crate::vecops::dot_block`] accumulator sets, which the optimised
    /// build keeps in full-width registers (one call of four costs about
    /// 1.6× one query's [`DenseMatrix::matvec_into`]). A remainder of one
    /// to three queries runs one [`DenseMatrix::matvec_into`] each. Every
    /// query's scores are bit-identical to [`DenseMatrix::matvec_into`] of
    /// that query alone — the kernel's reduction order is width-independent
    /// — so batch answers equal single-query answers exactly.
    ///
    /// `outs` entries are cleared and refilled; callers reuse them across
    /// batches.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != outs.len()` or any query's length differs
    /// from `self.cols()`.
    pub fn matvec_block_into(&self, xs: &[&[f32]], outs: &mut [Vec<f32>]) {
        assert_eq!(xs.len(), outs.len(), "query/output count mismatch");
        for x in xs {
            assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        }
        for o in outs.iter_mut() {
            o.clear();
            o.reserve(self.rows);
        }
        let mut q = 0;
        while q + 4 <= xs.len() {
            let quad = [xs[q], xs[q + 1], xs[q + 2], xs[q + 3]];
            for r in 0..self.rows {
                let s = crate::vecops::dot_block(self.row(r), quad);
                for (o, &v) in outs[q..q + 4].iter_mut().zip(&s) {
                    o.push(v);
                }
            }
            q += 4;
        }
        for qi in q..xs.len() {
            self.matvec_into(xs[qi], &mut outs[qi]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_util::rng::rng_from_seed;

    #[test]
    fn zeros_and_from_fn() {
        let z = DenseMatrix::zeros(2, 3);
        assert_eq!(z.as_slice(), &[0.0; 6]);
        let m = DenseMatrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.row(1), &[7.0, 0.0]);
        assert_eq!(m.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn two_rows_mut_both_orders() {
        let mut m = DenseMatrix::from_fn(3, 2, |r, _| r as f32);
        {
            let (a, b) = m.two_rows_mut(0, 2);
            assert_eq!(a, &[0.0, 0.0]);
            assert_eq!(b, &[2.0, 2.0]);
            a[0] = -1.0;
            b[1] = -2.0;
        }
        {
            let (a, b) = m.two_rows_mut(2, 0);
            assert_eq!(a[1], -2.0);
            assert_eq!(b[0], -1.0);
        }
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn two_rows_mut_same_row_panics() {
        let mut m = DenseMatrix::zeros(2, 2);
        let _ = m.two_rows_mut(1, 1);
    }

    #[test]
    fn gaussian_statistics() {
        let mut rng = rng_from_seed(11);
        let m = DenseMatrix::gaussian(100, 100, 0.1, &mut rng);
        let mean: f32 = m.as_slice().iter().sum::<f32>() / 10_000.0;
        let var: f32 = m
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 10_000.0;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 0.01).abs() < 0.002, "var {var}");
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = rng_from_seed(12);
        let m = DenseMatrix::uniform(10, 10, 0.5, &mut rng);
        assert!(m.as_slice().iter().all(|v| v.abs() <= 0.5));
        assert!(m.as_slice().iter().any(|&v| v < 0.0));
        assert!(m.as_slice().iter().any(|&v| v > 0.0));
    }

    #[test]
    fn frob_norm() {
        let m = DenseMatrix::from_vec(1, 3, vec![1.0, 2.0, 2.0]);
        assert!((m.frob_norm_sq() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn matvec_basic() {
        let m = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn matvec_block_bitwise_matches_single_queries() {
        // Every query width 1..=9 (full quads plus each remainder shape)
        // must be bit-identical to the one-query path: this is the
        // contract batched recommendation relies on.
        let mut rng = rng_from_seed(5);
        let m = DenseMatrix::gaussian(97, 20, 1.0, &mut rng);
        let qs = DenseMatrix::gaussian(9, 20, 1.0, &mut rng);
        for n in 1..=qs.rows() {
            let xs: Vec<&[f32]> = (0..n).map(|i| qs.row(i)).collect();
            let mut outs = vec![Vec::new(); n];
            m.matvec_block_into(&xs, &mut outs);
            for (i, out) in outs.iter().enumerate() {
                assert_eq!(out, &m.matvec(qs.row(i)), "width {n} query {i}");
            }
        }
    }

    #[test]
    fn matvec_into_reuses_buffers() {
        let mut rng = rng_from_seed(6);
        let m = DenseMatrix::gaussian(33, 8, 1.0, &mut rng);
        let q = DenseMatrix::gaussian(1, 8, 1.0, &mut rng);
        let mut out = Vec::new();
        m.matvec_into(q.row(0), &mut out);
        let ptr = out.as_ptr();
        m.matvec_into(q.row(0), &mut out);
        assert_eq!(ptr, out.as_ptr(), "matvec_into must not reallocate");
    }

    #[test]
    #[should_panic(expected = "query/output count mismatch")]
    fn matvec_block_rejects_shape_mismatch() {
        let m = DenseMatrix::zeros(2, 2);
        let q = [0.0f32, 0.0];
        let mut outs = vec![Vec::new(); 2];
        m.matvec_block_into(&[&q], &mut outs);
    }
}
