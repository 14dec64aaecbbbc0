//! Embedding store: the catalogue's encoded metadata summaries plus batch
//! similarity scans.
//!
//! All rows are unit vectors (or zero for empty texts), so cosine similarity
//! reduces to a dot product and a full catalogue scan for one query is a
//! single matrix–vector product — fast enough that approximate indexes are
//! unnecessary at the paper's catalogue size (2 332 books).

use crate::encoder::{EncoderScratch, SemanticEncoder};
use rm_sparse::vecops;
use rm_sparse::DenseMatrix;

/// Dense store of item embeddings, one row per item.
#[derive(Debug, Clone)]
pub struct EmbeddingStore {
    matrix: DenseMatrix,
}

impl EmbeddingStore {
    /// Encodes `texts` with `encoder` into a store, writing each embedding
    /// straight into its matrix row and reusing one [`EncoderScratch`]
    /// across the catalogue — steady-state encoding allocates nothing
    /// per text.
    #[must_use]
    pub fn encode_all<S: AsRef<str>>(encoder: &SemanticEncoder, texts: &[S]) -> Self {
        let dim = encoder.dim();
        let mut data = vec![0.0f32; texts.len() * dim];
        let mut scratch = EncoderScratch::default();
        for (t, row) in texts.iter().zip(data.chunks_exact_mut(dim)) {
            encoder.encode_into_with(t.as_ref(), &mut scratch, row);
        }
        Self {
            matrix: DenseMatrix::from_vec(texts.len(), dim, data),
        }
    }

    /// Wraps pre-computed embeddings. Rows are L2-normalised in place
    /// (zero rows stay zero).
    #[must_use]
    pub fn from_matrix(mut matrix: DenseMatrix) -> Self {
        for r in 0..matrix.rows() {
            vecops::normalize(matrix.row_mut(r));
        }
        Self { matrix }
    }

    /// Wraps rows that are *already* unit (or zero) vectors — e.g. decoded
    /// from a persisted artifact — without renormalising, so restored
    /// embeddings are bit-identical to the stored ones. Debug builds
    /// assert [`EmbeddingStore::is_unit_row`] of every row.
    #[must_use]
    pub fn from_unit_matrix(matrix: DenseMatrix) -> Self {
        let dim = matrix.cols();
        debug_assert!(
            dim == 0 || matrix.as_slice().chunks_exact(dim).all(Self::is_unit_row),
            "a row is neither a unit nor a zero vector"
        );
        Self { matrix }
    }

    /// Whether `row` is a zero vector or a unit vector (squared norm
    /// within 1e-3 of 1): the rows [`EmbeddingStore::from_unit_matrix`]
    /// takes.
    #[must_use]
    pub fn is_unit_row(row: &[f32]) -> bool {
        let norm_sq = vecops::dot(row, row);
        norm_sq == 0.0 || (norm_sq - 1.0).abs() < 1e-3
    }

    /// Number of stored items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.matrix.rows()
    }

    /// True when the store holds no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.matrix.rows() == 0
    }

    /// Embedding dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.matrix.cols()
    }

    /// Embedding of item `i`.
    #[must_use]
    pub fn embedding(&self, i: usize) -> &[f32] {
        self.matrix.row(i)
    }

    /// Cosine similarity between items `i` and `j` (dot of unit rows).
    #[must_use]
    pub fn similarity(&self, i: usize, j: usize) -> f32 {
        vecops::dot(self.matrix.row(i), self.matrix.row(j))
    }

    /// Similarity of `query` against every stored item.
    ///
    /// `query` need not be normalised; pass a unit vector (e.g. another
    /// stored row or a normalised centroid) to get true cosines.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim`.
    #[must_use]
    pub fn similarities(&self, query: &[f32]) -> Vec<f32> {
        self.matrix.matvec(query)
    }

    /// [`EmbeddingStore::similarities`] writing into `out` (cleared and
    /// refilled), so batch callers can reuse one allocation.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim`.
    pub fn similarities_into(&self, query: &[f32], out: &mut Vec<f32>) {
        self.matrix.matvec_into(query, out);
    }

    /// [`EmbeddingStore::similarities_into`] for several queries in one
    /// pass over the store: `outs[q]` is cleared and refilled with the
    /// similarities of `queries[q]`. Queries share each row load four at a
    /// time ([`DenseMatrix::matvec_block_into`]), and every score is
    /// bit-identical to the single-query scan's.
    ///
    /// # Panics
    ///
    /// Panics if `queries.len() != outs.len()` or any query's length
    /// differs from `dim`.
    pub fn similarities_block_into(&self, queries: &[&[f32]], outs: &mut [Vec<f32>]) {
        self.matrix.matvec_block_into(queries, outs);
    }

    /// Mean of the embeddings at `indices`, L2-normalised.
    ///
    /// Because rows are unit vectors, the dot of a candidate with this
    /// normalised centroid ranks candidates identically to the *average
    /// cosine similarity* to the set (Eq. 1 of the paper) up to the shared
    /// positive factor `‖Σ e_i‖ / |N_u|` — the fast path Closest Items uses.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty.
    #[must_use]
    pub fn centroid(&self, indices: &[u32]) -> Vec<f32> {
        let mut c = Vec::new();
        self.mean_embedding_into(indices, &mut c);
        vecops::normalize(&mut c);
        c
    }

    /// Unnormalised mean of the embeddings at `indices` — exactly
    /// `(Σ e_i) / |N_u|`, so a dot with it equals the paper's Eq. 1 average
    /// similarity for unit candidate vectors.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty.
    #[must_use]
    pub fn mean_embedding(&self, indices: &[u32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.mean_embedding_into(indices, &mut out);
        out
    }

    /// [`EmbeddingStore::mean_embedding`] writing into `out` (cleared and
    /// refilled). Accumulates rows in place — no row-pointer list, no
    /// per-call result vector — so per-user query building on the serve
    /// and eval paths is allocation-free once `out` has capacity `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty.
    pub fn mean_embedding_into(&self, indices: &[u32], out: &mut Vec<f32>) {
        assert!(!indices.is_empty(), "mean of empty set");
        out.clear();
        out.resize(self.dim(), 0.0);
        for &i in indices {
            vecops::axpy(1.0, self.matrix.row(i as usize), out);
        }
        vecops::scale(1.0 / indices.len() as f32, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EncoderConfig;

    fn store() -> EmbeddingStore {
        let enc = SemanticEncoder::new(EncoderConfig::default());
        EmbeddingStore::encode_all(
            &enc,
            &[
                "umberto eco giallo storico medioevo",
                "umberto eco romanzo storico pendolo",
                "manga robot spaziale battaglia",
                "manga robot mecha pilota",
                "",
            ],
        )
    }

    #[test]
    fn dimensions() {
        let s = store();
        assert_eq!(s.len(), 5);
        assert_eq!(s.dim(), 256);
        assert!(!s.is_empty());
    }

    #[test]
    fn self_similarity_is_one() {
        let s = store();
        for i in 0..4 {
            assert!((s.similarity(i, i) - 1.0).abs() < 1e-5);
        }
        // Zero (empty-text) row has zero self-similarity.
        assert_eq!(s.similarity(4, 4), 0.0);
    }

    #[test]
    fn related_items_closer_than_unrelated() {
        let s = store();
        assert!(s.similarity(0, 1) > s.similarity(0, 2));
        assert!(s.similarity(2, 3) > s.similarity(1, 3));
    }

    #[test]
    fn similarities_match_pairwise() {
        let s = store();
        let sims = s.similarities(s.embedding(1));
        for (j, &sim) in sims.iter().enumerate() {
            assert!((sim - s.similarity(1, j)).abs() < 1e-6);
        }
    }

    #[test]
    fn centroid_is_unit_and_between() {
        let s = store();
        let c = s.centroid(&[0, 1]);
        assert!((rm_sparse::vecops::norm2(&c) - 1.0).abs() < 1e-5);
        let sim0 = rm_sparse::vecops::dot(&c, s.embedding(0));
        let sim2 = rm_sparse::vecops::dot(&c, s.embedding(2));
        assert!(sim0 > sim2);
    }

    #[test]
    fn mean_embedding_ranks_like_average_similarity() {
        let s = store();
        let seen = [0u32, 1];
        let mean = s.mean_embedding(&seen);
        // Brute-force Eq. 1 for candidates 2 and 3.
        let avg = |b: usize| {
            seen.iter()
                .map(|&i| s.similarity(b, i as usize))
                .sum::<f32>()
                / seen.len() as f32
        };
        let dot2 = rm_sparse::vecops::dot(&mean, s.embedding(2));
        let dot3 = rm_sparse::vecops::dot(&mean, s.embedding(3));
        assert!((dot2 - avg(2)).abs() < 1e-5);
        assert!((dot3 - avg(3)).abs() < 1e-5);
    }

    #[test]
    fn mean_embedding_into_matches_and_reuses_buffer() {
        let s = store();
        let mut buf = Vec::new();
        s.mean_embedding_into(&[0, 1, 2], &mut buf);
        assert_eq!(buf, s.mean_embedding(&[0, 1, 2]));
        let ptr = buf.as_ptr();
        s.mean_embedding_into(&[2, 3], &mut buf);
        assert_eq!(buf, s.mean_embedding(&[2, 3]));
        assert_eq!(ptr, buf.as_ptr(), "query buffer must be reused");
    }

    #[test]
    fn from_matrix_normalises_rows() {
        let m = DenseMatrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        let s = EmbeddingStore::from_matrix(m);
        assert!((rm_sparse::vecops::norm2(s.embedding(0)) - 1.0).abs() < 1e-6);
        assert_eq!(s.embedding(1), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn centroid_of_empty_panics() {
        let _ = store().centroid(&[]);
    }
}
