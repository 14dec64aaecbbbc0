//! Compressed sparse row matrices over `u32` column indices.
//!
//! The recommenders only need the *pattern* of the user–item matrix (implicit
//! feedback is binary), plus per-entry weights in a couple of places
//! (most-read counts). `CsrMatrix` therefore stores an optional value array:
//! pattern-only matrices skip it entirely, halving memory and avoiding a
//! useless `1.0` broadcast.

use std::collections::HashMap;

/// CSR matrix with `u32` columns and optional `f32` values.
///
/// Invariants (checked on construction, relied on everywhere):
/// * `indptr.len() == rows + 1`, `indptr[0] == 0`, non-decreasing;
/// * column indices within each row are strictly increasing (sorted,
///   deduplicated) and `< cols`;
/// * `values` is either empty (pattern matrix) or `values.len() == nnz`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a **pattern** matrix from (row, col) pairs.
    ///
    /// Pairs may be unsorted and contain duplicates; duplicates collapse to a
    /// single entry (the matrix is binary).
    ///
    /// # Panics
    ///
    /// Panics if any pair is out of bounds.
    #[must_use]
    pub fn from_pairs(rows: usize, cols: usize, pairs: &[(u32, u32)]) -> Self {
        let triplets: Vec<(u32, u32, f32)> = pairs.iter().map(|&(r, c)| (r, c, 1.0)).collect();
        let mut m = Self::from_triplets(rows, cols, &triplets, |_, _| 1.0);
        m.values.clear();
        m.values.shrink_to_fit();
        m
    }

    /// Builds a valued matrix from (row, col, value) triplets, folding
    /// duplicates with `combine(existing, new)`.
    ///
    /// # Panics
    ///
    /// Panics if any triplet is out of bounds.
    #[must_use]
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(u32, u32, f32)],
        combine: impl Fn(f32, f32) -> f32,
    ) -> Self {
        // Two-pass counting sort by row, then per-row sort + dedup by column.
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!((r as usize) < rows, "row {r} out of bounds ({rows} rows)");
            assert!((c as usize) < cols, "col {c} out of bounds ({cols} cols)");
            counts[r as usize + 1] += 1;
        }
        for i in 1..=rows {
            counts[i] += counts[i - 1];
        }
        let mut by_row: Vec<(u32, f32)> = vec![(0, 0.0); triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            let slot = cursor[r as usize];
            by_row[slot] = (c, v);
            cursor[r as usize] += 1;
        }

        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::with_capacity(triplets.len());
        let mut values: Vec<f32> = Vec::with_capacity(triplets.len());
        for r in 0..rows {
            let seg = &mut by_row[counts[r]..counts[r + 1]];
            seg.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < seg.len() {
                let (c, mut v) = seg[i];
                let mut j = i + 1;
                while j < seg.len() && seg[j].0 == c {
                    v = combine(v, seg[j].1);
                    j += 1;
                }
                indices.push(c);
                values.push(v);
                i = j;
            }
            indptr.push(indices.len());
        }

        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Builds directly from validated CSR arrays (pattern form when `values`
    /// is empty).
    ///
    /// # Panics
    ///
    /// Panics if the arrays violate the CSR invariants.
    #[must_use]
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(
            *indptr.last().unwrap(),
            indices.len(),
            "indptr must end at nnz"
        );
        assert!(
            values.is_empty() || values.len() == indices.len(),
            "values must be empty or match nnz"
        );
        for w in indptr.windows(2) {
            assert!(w[0] <= w[1], "indptr must be non-decreasing");
            let row = &indices[w[0]..w[1]];
            for p in row.windows(2) {
                assert!(p[0] < p[1], "row columns must be strictly increasing");
            }
            if let Some(&last) = row.last() {
                assert!((last as usize) < cols, "column out of bounds");
            }
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
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

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Column indices of row `r` (sorted ascending).
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &[u32] {
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Values of row `r`; `None` on a pattern matrix.
    #[inline]
    #[must_use]
    pub fn row_values(&self, r: usize) -> Option<&[f32]> {
        if self.values.is_empty() {
            None
        } else {
            Some(&self.values[self.indptr[r]..self.indptr[r + 1]])
        }
    }

    /// Number of entries in row `r`.
    #[inline]
    #[must_use]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Membership test via binary search within the row.
    #[inline]
    #[must_use]
    pub fn contains(&self, r: usize, c: u32) -> bool {
        self.row(r).binary_search(&c).is_ok()
    }

    /// Value at (r, c): the stored value, `1.0` for a present pattern entry,
    /// `0.0` when absent.
    #[must_use]
    pub fn get(&self, r: usize, c: u32) -> f32 {
        match self.row(r).binary_search(&c) {
            Ok(i) => {
                if self.values.is_empty() {
                    1.0
                } else {
                    self.values[self.indptr[r] + i]
                }
            }
            Err(_) => 0.0,
        }
    }

    /// Per-column entry counts (e.g. readings per book from a user×book
    /// pattern matrix).
    #[must_use]
    pub fn col_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.cols];
        for &c in &self.indices {
            counts[c as usize] += 1;
        }
        counts
    }

    /// Per-row entry counts.
    #[must_use]
    pub fn row_counts(&self) -> Vec<u64> {
        (0..self.rows).map(|r| self.row_nnz(r) as u64).collect()
    }

    /// Transposed copy (values carried over when present).
    #[must_use]
    pub fn transpose(&self) -> Self {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 1..=self.cols {
            counts[i] += counts[i - 1];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = if self.values.is_empty() {
            Vec::new()
        } else {
            vec![0.0f32; self.nnz()]
        };
        let mut cursor = counts;
        for r in 0..self.rows {
            for i in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[i] as usize;
                let slot = cursor[c];
                indices[slot] = r as u32;
                if !self.values.is_empty() {
                    values[slot] = self.values[i];
                }
                cursor[c] += 1;
            }
        }
        // Rows come out sorted because we sweep source rows in order.
        Self {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Restricts the matrix to a subset of rows, renumbering them densely in
    /// the order given. Columns are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if any requested row is out of bounds.
    #[must_use]
    pub fn select_rows(&self, keep: &[u32]) -> Self {
        let mut indptr = Vec::with_capacity(keep.len() + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for &r in keep {
            let r = r as usize;
            assert!(r < self.rows, "row {r} out of bounds");
            indices.extend_from_slice(self.row(r));
            if let Some(v) = self.row_values(r) {
                values.extend_from_slice(v);
            }
            indptr.push(indices.len());
        }
        Self {
            rows: keep.len(),
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Dense map from (row, col) to value — test/debug helper, O(nnz).
    #[must_use]
    pub fn to_map(&self) -> HashMap<(u32, u32), f32> {
        let mut out = HashMap::with_capacity(self.nnz());
        for r in 0..self.rows {
            let vals = self.row_values(r);
            for (i, &c) in self.row(r).iter().enumerate() {
                let v = vals.map_or(1.0, |vs| vs[i]);
                out.insert((r as u32, c), v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let m = CsrMatrix::from_pairs(3, 5, &[(2, 4), (0, 3), (0, 1), (0, 3), (2, 0)]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 5);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(0), &[1, 3]);
        assert_eq!(m.row(1), &[] as &[u32]);
        assert_eq!(m.row(2), &[0, 4]);
    }

    #[test]
    fn pattern_get_and_contains() {
        let m = CsrMatrix::from_pairs(2, 4, &[(0, 2), (1, 0)]);
        assert!(m.contains(0, 2));
        assert!(!m.contains(0, 0));
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(0, 3), 0.0);
        assert!(m.row_values(0).is_none());
    }

    #[test]
    fn triplets_combine_duplicates() {
        let m =
            CsrMatrix::from_triplets(2, 3, &[(0, 1, 2.0), (0, 1, 3.0), (1, 2, 1.0)], |a, b| a + b);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(1, 2), 1.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn col_and_row_counts() {
        let m = CsrMatrix::from_pairs(3, 3, &[(0, 0), (1, 0), (2, 0), (2, 1)]);
        assert_eq!(m.col_counts(), vec![3, 1, 0]);
        assert_eq!(m.row_counts(), vec![1, 1, 2]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = CsrMatrix::from_triplets(3, 4, &[(0, 1, 1.5), (2, 3, -2.0), (1, 0, 4.0)], |a, _| a);
        let t = m.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.get(1, 0), 1.5);
        assert_eq!(t.get(3, 2), -2.0);
        assert_eq!(t.transpose().to_map(), m.to_map());
    }

    #[test]
    fn select_rows_renumbers() {
        let m = CsrMatrix::from_pairs(4, 3, &[(0, 0), (1, 1), (2, 2), (3, 0)]);
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0), &[0]);
        assert_eq!(s.row(1), &[1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_pair_panics() {
        let _ = CsrMatrix::from_pairs(2, 2, &[(0, 2)]);
    }

    #[test]
    fn from_parts_validates() {
        let m = CsrMatrix::from_parts(2, 3, vec![0, 1, 3], vec![2, 0, 1], vec![]);
        assert_eq!(m.row(1), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_rejects_unsorted_row() {
        let _ = CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![]);
    }

    #[test]
    fn empty_matrix_ok() {
        let m = CsrMatrix::from_pairs(0, 0, &[]);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.col_counts(), Vec::<u64>::new());
    }

    proptest! {
        #[test]
        fn pairs_roundtrip_membership(
            pairs in proptest::collection::vec((0u32..20, 0u32..30), 0..200)
        ) {
            let m = CsrMatrix::from_pairs(20, 30, &pairs);
            let set: std::collections::HashSet<(u32, u32)> = pairs.iter().copied().collect();
            prop_assert_eq!(m.nnz(), set.len());
            for &(r, c) in &set {
                prop_assert!(m.contains(r as usize, c));
            }
            // Rows sorted strictly ascending.
            for r in 0..20 {
                for w in m.row(r).windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }
        }

        #[test]
        fn transpose_is_involution(
            pairs in proptest::collection::vec((0u32..15, 0u32..15), 0..150)
        ) {
            let m = CsrMatrix::from_pairs(15, 15, &pairs);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn counts_sum_to_nnz(
            pairs in proptest::collection::vec((0u32..10, 0u32..10), 0..100)
        ) {
            let m = CsrMatrix::from_pairs(10, 10, &pairs);
            prop_assert_eq!(m.col_counts().iter().sum::<u64>() as usize, m.nnz());
            prop_assert_eq!(m.row_counts().iter().sum::<u64>() as usize, m.nnz());
        }
    }
}
