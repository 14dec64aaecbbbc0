//! Quantized zero-copy model artifacts (ROADMAP item 3(a)).
//!
//! The serve-time memory budget is dominated by three dense matrices: the
//! BPR user and item factor matrices and the content-embedding matrix. At
//! the paper×100 scale (millions of users, hundreds of thousands of
//! books) the f32 originals no longer fit the single-core container, so
//! this module stores them quantized:
//!
//! * **i8 mode** — symmetric per-row quantization. Each row `x` is stored
//!   as `round(x / s)` clamped to `[-127, 127]` with one f32 scale
//!   `s = max|x| / 127` per row; a zero row gets scale 0. Scores between
//!   two quantized rows use the fused integer kernel
//!   [`rm_sparse::vecops::dot_i8_scaled`], which accumulates in i32 and
//!   widens to f32 exactly once. ~3.9× smaller than f32 (1 byte/element
//!   plus 4 bytes/row of scales).
//! * **f16 mode** — IEEE binary16 storage, no scales; rows are decoded
//!   element-wise by [`rm_sparse::vecops::dot_f16`], which follows the
//!   crate-wide f32 reduction-order contract. Exactly 2× smaller.
//!
//! # Artifact layout (tag 0x05, payload version 1)
//!
//! The payload is one contiguous buffer: a bounds-checked header followed
//! by an aligned data area. All integers are little-endian u32.
//!
//! ```text
//! version | mode | n_sections | record×n | ...data area...
//! record: kind | elem | rows | cols | scales_off | scales_len | data_off | data_len
//! ```
//!
//! Section kinds are `user-factors (0) < item-factors (1) <
//! embeddings (2)` and must appear in strictly increasing kind order.
//! Offsets are relative to the payload start, and the layout is
//! **canonical**: the decoder independently recomputes every offset and
//! length (sections packed in order, scales then codes, each start
//! rounded up to a 64-byte boundary, zero padding between) and rejects
//! any record that disagrees. A forged or overlapping offset therefore
//! cannot alias two sections or escape the buffer — it simply fails to
//! decode, before any view is formed.
//!
//! Loading is zero-copy in the sense that matters without `unsafe`: the
//! payload is held as a single owned byte buffer and every row access is
//! a `&[u8]` slice into it — no per-row allocation, no up-front f32
//! inflation. Only the per-row scales (≤0.4% of the artifact) are decoded
//! to an owned `Vec<f32>` at load time, because f32 reads from a byte
//! buffer would otherwise need per-access decoding or alignment games.
//!
//! # Accuracy
//!
//! Quantization is lossy; the committed gate (`quant-bench --smoke
//! --gate`) trains the Table-1 BPR model, scores it through
//! [`QuantRecommender`], and bounds the URR/NRR drift vs the f32 model at
//! ≤5e-3. Per-element i8 error is at most `s/2` (half a quantization
//! step), so dot-product error grows with `√dim`, far inside that bound
//! for the paper's dimensionalities.

use crate::bpr::BprModel;
use crate::persist::{push_u32, read_u32, DecodeError, PersistModel};
use crate::{rank_by_scores_into, Recommender};
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;
use rm_embed::EmbeddingStore;
use rm_sparse::vecops;
use rm_sparse::DenseMatrix;

/// Data-area alignment: every scales / codes block starts on a 64-byte
/// (cache-line) boundary within the payload.
const ALIGN: usize = 64;

/// Payload format version.
const VERSION: usize = 1;

fn align_up(x: usize) -> usize {
    (x + (ALIGN - 1)) & !(ALIGN - 1)
}

/// Storage element type of a quantized artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Symmetric per-row-scale i8 codes (1 byte/element + 4 bytes/row).
    I8,
    /// IEEE binary16 (2 bytes/element, no scales).
    F16,
}

impl QuantMode {
    /// Stable display / CLI label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::I8 => "i8",
            Self::F16 => "f16",
        }
    }

    /// Parses a CLI label (`i8` / `f16`). `off` is handled by callers.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "i8" => Some(Self::I8),
            "f16" => Some(Self::F16),
            _ => None,
        }
    }

    /// Bytes per stored element.
    #[must_use]
    pub fn elem_bytes(self) -> usize {
        match self {
            Self::I8 => 1,
            Self::F16 => 2,
        }
    }

    fn code(self) -> usize {
        match self {
            Self::I8 => 0,
            Self::F16 => 1,
        }
    }

    fn from_code(c: usize) -> Option<Self> {
        match c {
            0 => Some(Self::I8),
            1 => Some(Self::F16),
            _ => None,
        }
    }
}

/// Which matrix a section holds. The numeric value is the on-disk kind
/// code *and* the mandatory section order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// BPR user factor matrix.
    UserFactors,
    /// BPR item factor matrix.
    ItemFactors,
    /// Content-embedding matrix (unit rows).
    Embeddings,
}

impl SectionKind {
    fn code(self) -> usize {
        match self {
            Self::UserFactors => 0,
            Self::ItemFactors => 1,
            Self::Embeddings => 2,
        }
    }

    fn from_code(c: usize) -> Option<Self> {
        match c {
            0 => Some(Self::UserFactors),
            1 => Some(Self::ItemFactors),
            2 => Some(Self::Embeddings),
            _ => None,
        }
    }

    /// Stable display label (operator notes, manifests).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::UserFactors => "user-factors",
            Self::ItemFactors => "item-factors",
            Self::Embeddings => "embeddings",
        }
    }
}

/// Parsed metadata of one section (scales decoded, codes left in place).
#[derive(Debug, Clone, PartialEq)]
struct Section {
    kind: SectionKind,
    rows: usize,
    cols: usize,
    /// Per-row scales (i8 mode only; empty for f16).
    scales: Vec<f32>,
    data_off: usize,
    data_len: usize,
}

/// A quantized model artifact: one owned payload buffer plus validated
/// section metadata. Row access borrows the buffer; nothing is inflated
/// back to f32 at load time.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantArtifact {
    mode: QuantMode,
    buf: Vec<u8>,
    sections: Vec<Section>,
}

/// Quantizes one f32 row into `codes` (appended) and returns its scale.
fn quantize_row_i8(row: &[f32], codes: &mut Vec<u8>) -> f32 {
    let max = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max == 0.0 || !max.is_finite() {
        codes.extend(std::iter::repeat_n(0u8, row.len()));
        return 0.0;
    }
    let scale = max / 127.0;
    for &v in row {
        let c = (v / scale).round().clamp(-127.0, 127.0) as i32;
        codes.push((c as i8) as u8);
    }
    scale
}

impl QuantArtifact {
    /// Quantizes a trained model (and optionally its embedding store)
    /// into a canonical artifact.
    ///
    /// # Panics
    ///
    /// Panics if any matrix is wider than
    /// [`rm_sparse::vecops::MAX_I8_DOT_LEN`] (the i8 kernel's overflow
    /// bound) — far beyond any trainable dimensionality here.
    #[must_use]
    pub fn quantize(
        mode: QuantMode,
        model: &BprModel,
        embeddings: Option<&EmbeddingStore>,
    ) -> Self {
        let mut parts: Vec<(SectionKind, &DenseMatrix)> = vec![
            (SectionKind::UserFactors, &model.user_factors),
            (SectionKind::ItemFactors, &model.item_factors),
        ];
        let emb_matrix;
        if let Some(store) = embeddings {
            emb_matrix =
                DenseMatrix::from_fn(store.len(), store.dim(), |r, c| store.embedding(r)[c]);
            parts.push((SectionKind::Embeddings, &emb_matrix));
        }
        Self::quantize_parts(mode, &parts)
    }

    /// Quantizes an explicit list of `(kind, matrix)` parts. Parts must
    /// be in strictly increasing kind order and non-empty.
    ///
    /// # Panics
    ///
    /// Panics on an empty / misordered part list or a matrix wider than
    /// [`rm_sparse::vecops::MAX_I8_DOT_LEN`].
    #[must_use]
    pub fn quantize_parts(mode: QuantMode, parts: &[(SectionKind, &DenseMatrix)]) -> Self {
        assert!(!parts.is_empty(), "at least one section required");
        for w in parts.windows(2) {
            assert!(
                w[0].0.code() < w[1].0.code(),
                "sections must be in increasing kind order"
            );
        }
        let mut sections = Vec::with_capacity(parts.len());
        for &(kind, m) in parts {
            assert!(
                m.cols() <= vecops::MAX_I8_DOT_LEN,
                "matrix wider than the i8 kernel overflow bound"
            );
            let mut scales = Vec::new();
            let mut codes = Vec::with_capacity(m.rows() * m.cols() * mode.elem_bytes());
            for r in 0..m.rows() {
                match mode {
                    QuantMode::I8 => scales.push(quantize_row_i8(m.row(r), &mut codes)),
                    QuantMode::F16 => {
                        for &v in m.row(r) {
                            codes.extend_from_slice(&vecops::f32_to_f16(v).to_le_bytes());
                        }
                    }
                }
            }
            sections.push((kind, m.rows(), m.cols(), scales, codes));
        }
        let buf = render_payload(mode, &sections);
        // Re-parse what we just rendered: the encoder and decoder cannot
        // drift apart, and construction exercises the full validator.
        Self::decode_payload(&buf).expect("canonical payload decodes")
    }

    /// The storage mode of every section.
    #[must_use]
    pub fn mode(&self) -> QuantMode {
        self.mode
    }

    /// Total payload size in bytes (header + scales + codes + padding).
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.buf.len()
    }

    /// A zero-copy view of the section of the given kind, if present.
    #[must_use]
    pub fn section(&self, kind: SectionKind) -> Option<QuantMatrix<'_>> {
        let s = self.sections.iter().find(|s| s.kind == kind)?;
        Some(QuantMatrix {
            mode: self.mode,
            rows: s.rows,
            cols: s.cols,
            scales: &s.scales,
            data: &self.buf[s.data_off..s.data_off + s.data_len],
        })
    }

    /// View of the user-factor section, if present.
    #[must_use]
    pub fn user_factors(&self) -> Option<QuantMatrix<'_>> {
        self.section(SectionKind::UserFactors)
    }

    /// View of the item-factor section, if present.
    #[must_use]
    pub fn item_factors(&self) -> Option<QuantMatrix<'_>> {
        self.section(SectionKind::ItemFactors)
    }

    /// View of the embedding section, if present.
    #[must_use]
    pub fn embeddings(&self) -> Option<QuantMatrix<'_>> {
        self.section(SectionKind::Embeddings)
    }
}

/// One quantized section awaiting rendering:
/// `(kind, rows, cols, per-row scales, code bytes)`.
type PendingSection = (SectionKind, usize, usize, Vec<f32>, Vec<u8>);

/// Renders the canonical payload: header, records with recomputed
/// offsets, then the aligned data area.
fn render_payload(mode: QuantMode, sections: &[PendingSection]) -> Vec<u8> {
    let header_len = 12 + 32 * sections.len();
    // First pass: compute canonical offsets.
    let mut offsets = Vec::with_capacity(sections.len());
    let mut off = header_len;
    for (_, _, _, scales, codes) in sections {
        let (scales_off, scales_len) = if scales.is_empty() {
            (0, 0)
        } else {
            let o = align_up(off);
            off = o + 4 * scales.len();
            (o, 4 * scales.len())
        };
        let data_off = align_up(off);
        off = data_off + codes.len();
        offsets.push((scales_off, scales_len, data_off, codes.len()));
    }
    let total = off;
    let mut out = Vec::with_capacity(total);
    push_u32(&mut out, VERSION);
    push_u32(&mut out, mode.code());
    push_u32(&mut out, sections.len());
    for ((kind, rows, cols, _, _), &(so, sl, d_off, dl)) in sections.iter().zip(&offsets) {
        push_u32(&mut out, kind.code());
        push_u32(&mut out, mode.code());
        push_u32(&mut out, *rows);
        push_u32(&mut out, *cols);
        push_u32(&mut out, so);
        push_u32(&mut out, sl);
        push_u32(&mut out, d_off);
        push_u32(&mut out, dl);
    }
    for ((_, _, _, scales, codes), &(so, _, d_off, _)) in sections.iter().zip(&offsets) {
        if !scales.is_empty() {
            out.resize(so, 0);
            for &s in scales {
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
        out.resize(d_off, 0);
        out.extend_from_slice(codes);
    }
    debug_assert_eq!(out.len(), total);
    out
}

impl PersistModel for QuantArtifact {
    const TAG: u8 = 0x05;
    const KIND: &'static str = "quant";

    fn encode_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.buf);
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, DecodeError> {
        if payload.len() < 12 {
            return Err(DecodeError::Truncated);
        }
        if read_u32(payload, 0) != VERSION {
            return Err(DecodeError::LengthMismatch);
        }
        let mode = QuantMode::from_code(read_u32(payload, 4)).ok_or(DecodeError::LengthMismatch)?;
        let n_sections = read_u32(payload, 8);
        // At most one section per kind; a huge count is a forgery.
        if n_sections == 0 || n_sections > 3 {
            return Err(DecodeError::LengthMismatch);
        }
        let header_len = 12 + 32 * n_sections;
        if payload.len() < header_len {
            return Err(DecodeError::Truncated);
        }
        let mut sections = Vec::with_capacity(n_sections);
        let mut off = header_len;
        let mut prev_kind: Option<usize> = None;
        for i in 0..n_sections {
            let at = 12 + 32 * i;
            let kind_code = read_u32(payload, at);
            let kind = SectionKind::from_code(kind_code).ok_or(DecodeError::LengthMismatch)?;
            if prev_kind.is_some_and(|p| p >= kind_code) {
                return Err(DecodeError::LengthMismatch);
            }
            prev_kind = Some(kind_code);
            if read_u32(payload, at + 4) != mode.code() {
                return Err(DecodeError::LengthMismatch);
            }
            let rows = read_u32(payload, at + 8);
            let cols = read_u32(payload, at + 12);
            if cols > vecops::MAX_I8_DOT_LEN {
                return Err(DecodeError::LengthMismatch);
            }
            let data_len = rows
                .checked_mul(cols)
                .and_then(|n| n.checked_mul(mode.elem_bytes()))
                .ok_or(DecodeError::LengthMismatch)?;
            // Recompute the canonical offsets; declared values must match
            // exactly, so forged offsets cannot alias or escape.
            let (scales_off, scales_len) = match mode {
                QuantMode::I8 => {
                    let o = align_up(off);
                    off = o + 4 * rows;
                    (o, 4 * rows)
                }
                QuantMode::F16 => (0, 0),
            };
            let data_off = align_up(off);
            off = data_off + data_len;
            if read_u32(payload, at + 16) != scales_off
                || read_u32(payload, at + 20) != scales_len
                || read_u32(payload, at + 24) != data_off
                || read_u32(payload, at + 28) != data_len
            {
                return Err(DecodeError::LengthMismatch);
            }
            if off > payload.len() {
                return Err(DecodeError::Truncated);
            }
            let mut scales = Vec::with_capacity(rows * usize::from(mode == QuantMode::I8));
            if mode == QuantMode::I8 {
                for r in 0..rows {
                    let b = &payload[scales_off + 4 * r..scales_off + 4 * r + 4];
                    let s = f32::from_le_bytes(b.try_into().expect("4 bytes"));
                    if !s.is_finite() || s < 0.0 {
                        return Err(DecodeError::LengthMismatch);
                    }
                    scales.push(s);
                }
            }
            sections.push(Section {
                kind,
                rows,
                cols,
                scales,
                data_off,
                data_len,
            });
        }
        if off != payload.len() {
            return Err(DecodeError::LengthMismatch);
        }
        Ok(Self {
            mode,
            buf: payload.to_vec(),
            sections,
        })
    }
}

/// Zero-copy view of one quantized matrix section: row accessors borrow
/// the artifact's byte buffer directly.
#[derive(Debug, Clone, Copy)]
pub struct QuantMatrix<'a> {
    mode: QuantMode,
    rows: usize,
    cols: usize,
    scales: &'a [f32],
    data: &'a [u8],
}

impl<'a> QuantMatrix<'a> {
    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (elements per row).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage mode.
    #[must_use]
    pub fn mode(&self) -> QuantMode {
        self.mode
    }

    /// The quantized row `r` as a borrowed code slice plus its scale.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> QuantRow<'a> {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        let w = self.cols * self.mode.elem_bytes();
        QuantRow {
            mode: self.mode,
            bytes: &self.data[r * w..(r + 1) * w],
            scale: if self.mode == QuantMode::I8 {
                self.scales[r]
            } else {
                1.0
            },
        }
    }

    /// Scores every row against `q`, writing `rows()` values into `out`
    /// (cleared first). The quantized analogue of
    /// [`rm_sparse::DenseMatrix::matvec_into`].
    ///
    /// The mode dispatch and row slicing are hoisted out of the row loop
    /// (`chunks_exact` instead of per-row [`QuantMatrix::row`] views), and
    /// common byte widths dispatch to a const-width copy of the loop so
    /// the kernel's inner reduction fully unrolls — with a runtime width
    /// the i8 matvec *loses* to the f32 one despite moving 4× fewer
    /// bytes; const-folded it wins. Scores are bit-identical across all
    /// paths: integer accumulation is exact and the f16 reduction order
    /// depends only on row length.
    pub fn matvec_into(&self, q: &QuantRow<'_>, out: &mut Vec<f32>) {
        debug_assert_eq!(self.mode, q.mode, "mixed-mode matvec");
        out.clear();
        out.reserve(self.rows);
        // Covers every factor/embedding width this workspace ships (BPR
        // dims 16–128, embedding dims up to 256, ×2 for f16); anything
        // else takes the runtime-width loop below.
        match self.cols * self.mode.elem_bytes() {
            16 => self.matvec_fixed::<16>(q, out),
            20 => self.matvec_fixed::<20>(q, out),
            32 => self.matvec_fixed::<32>(q, out),
            40 => self.matvec_fixed::<40>(q, out),
            64 => self.matvec_fixed::<64>(q, out),
            128 => self.matvec_fixed::<128>(q, out),
            256 => self.matvec_fixed::<256>(q, out),
            512 => self.matvec_fixed::<512>(q, out),
            w => {
                let rows = self.data.chunks_exact(w).take(self.rows);
                match self.mode {
                    QuantMode::I8 => {
                        out.extend(
                            rows.zip(self.scales)
                                .map(|(row, &s)| vecops::dot_i8_scaled(row, s, q.bytes, q.scale)),
                        );
                    }
                    QuantMode::F16 => {
                        out.extend(rows.map(|row| vecops::dot_f16(row, q.bytes)));
                    }
                }
            }
        }
    }

    /// [`QuantMatrix::matvec_into`]'s row loop monomorphized for a
    /// compile-time row width `W`, so the fused kernels unroll fully.
    fn matvec_fixed<const W: usize>(&self, q: &QuantRow<'_>, out: &mut Vec<f32>) {
        let rows = self.data.chunks_exact(W).take(self.rows);
        let qb = &q.bytes[..W];
        match self.mode {
            QuantMode::I8 => {
                out.extend(
                    rows.zip(self.scales)
                        .map(|(row, &s)| vecops::dot_i8_scaled(row, s, qb, q.scale)),
                );
            }
            QuantMode::F16 => {
                out.extend(rows.map(|row| vecops::dot_f16(row, qb)));
            }
        }
    }

    /// Dequantizes row `r` into `out` (cleared first) — the exact f32
    /// values a quantized score sees, for fallback comparison and tests.
    pub fn dequantize_row_into(&self, r: usize, out: &mut Vec<f32>) {
        self.row(r).dequantize_into(out);
    }
}

/// One quantized vector: borrowed code bytes plus a scale (1.0 for f16,
/// where the scale is a no-op).
#[derive(Debug, Clone, Copy)]
pub struct QuantRow<'a> {
    mode: QuantMode,
    bytes: &'a [u8],
    scale: f32,
}

impl QuantRow<'_> {
    /// The raw code bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        self.bytes
    }

    /// The per-row scale (1.0 in f16 mode).
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Fused quantized dot product with another row of the same mode.
    ///
    /// # Panics
    ///
    /// Panics (debug) on mode or length mismatch, like the underlying
    /// kernels.
    #[must_use]
    pub fn dot(&self, other: &QuantRow<'_>) -> f32 {
        debug_assert_eq!(self.mode, other.mode, "mixed-mode dot");
        match self.mode {
            QuantMode::I8 => {
                vecops::dot_i8_scaled(self.bytes, self.scale, other.bytes, other.scale)
            }
            QuantMode::F16 => vecops::dot_f16(self.bytes, other.bytes),
        }
    }

    /// Dequantizes into `out` (cleared first).
    pub fn dequantize_into(&self, out: &mut Vec<f32>) {
        out.clear();
        match self.mode {
            QuantMode::I8 => {
                out.extend(self.bytes.iter().map(|&b| f32::from(b as i8) * self.scale));
            }
            QuantMode::F16 => {
                out.extend(self.bytes.chunks_exact(2).map(|c| {
                    vecops::f16_to_f32(u16::from_le_bytes(c.try_into().expect("2 bytes")))
                }));
            }
        }
    }
}

/// An owned quantized query vector, for scoring an f32 query (a fold-in
/// user, a mean embedding) against a [`QuantMatrix`] without inflating
/// the matrix: quantize the query once, then run the fused kernel per
/// row.
#[derive(Debug, Clone)]
pub struct QuantQuery {
    mode: QuantMode,
    bytes: Vec<u8>,
    scale: f32,
}

impl QuantQuery {
    /// Quantizes `q` with the same per-row rule the artifact uses.
    #[must_use]
    pub fn quantize(mode: QuantMode, q: &[f32]) -> Self {
        let mut bytes = Vec::with_capacity(q.len() * mode.elem_bytes());
        let scale = match mode {
            QuantMode::I8 => quantize_row_i8(q, &mut bytes),
            QuantMode::F16 => {
                for &v in q {
                    bytes.extend_from_slice(&vecops::f32_to_f16(v).to_le_bytes());
                }
                1.0
            }
        };
        Self { mode, bytes, scale }
    }

    /// Borrows the query as a [`QuantRow`] for the dot kernels.
    #[must_use]
    pub fn as_row(&self) -> QuantRow<'_> {
        QuantRow {
            mode: self.mode,
            bytes: &self.bytes,
            scale: self.scale,
        }
    }
}

/// A [`Recommender`] adapter scoring entirely from quantized rows: the
/// accuracy-gate harness ranks through this against the f32 model to
/// measure KPI drift, and serve tests use it as the ground truth for the
/// engine's quantized rank stage.
pub struct QuantRecommender<'a> {
    // Both section views are resolved once here so the scoring methods
    // stay panic-free: `new` is the only place a missing section can
    // abort, and it runs at setup time, never per request.
    users: QuantMatrix<'a>,
    items: QuantMatrix<'a>,
    train: &'a Interactions,
    name: String,
}

impl<'a> QuantRecommender<'a> {
    /// Wraps an artifact that has both factor sections.
    ///
    /// # Panics
    ///
    /// Panics if either factor section is missing or its row count does
    /// not match the interaction matrix.
    #[must_use]
    pub fn new(artifact: &'a QuantArtifact, train: &'a Interactions) -> Self {
        Self::from_rows(
            artifact.user_factors().expect("user-factors section"),
            artifact.item_factors().expect("item-factors section"),
            train,
        )
    }

    /// Wraps resolved factor sections, such as row views validated at
    /// install.
    ///
    /// # Panics
    ///
    /// Panics if a section's row count does not match the interactions.
    #[must_use]
    pub fn from_rows(
        users: QuantMatrix<'a>,
        items: QuantMatrix<'a>,
        train: &'a Interactions,
    ) -> Self {
        assert_eq!(users.rows(), train.n_users(), "user rows");
        assert_eq!(items.rows(), train.n_books(), "item rows");
        Self {
            users,
            items,
            train,
            name: format!("bpr-quant-{}", users.mode().label()),
        }
    }
}

impl Recommender for QuantRecommender<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, _train: &Interactions) {
        // Already fitted: the artifact is a quantized trained model.
    }

    fn score(&self, user: UserIdx, book: BookIdx) -> f32 {
        self.users
            .row(user.0 as usize)
            .dot(&self.items.row(book.0 as usize))
    }

    fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32> {
        let mut scores = Vec::new();
        self.items
            .matvec_into(&self.users.row(user.0 as usize), &mut scores);
        let mut top = rm_util::TopK::new(1);
        let mut out = Vec::new();
        rank_by_scores_into(
            self.items.rows(),
            self.train.seen(user),
            k,
            |b| scores[b as usize],
            &mut top,
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_util::rng::rng_from_seed;

    fn model(users: usize, books: usize, dim: usize, seed: u64) -> BprModel {
        let mut rng = rng_from_seed(seed);
        BprModel {
            user_factors: DenseMatrix::gaussian(users, dim, 0.4, &mut rng),
            item_factors: DenseMatrix::gaussian(books, dim, 0.4, &mut rng),
        }
    }

    fn store(rows: usize, dim: usize, seed: u64) -> EmbeddingStore {
        let mut rng = rng_from_seed(seed);
        EmbeddingStore::from_matrix(DenseMatrix::gaussian(rows, dim, 1.0, &mut rng))
    }

    #[test]
    fn i8_round_trip_preserves_sections_and_dims() {
        let m = model(7, 11, 6, 3);
        let st = store(11, 5, 4);
        let a = QuantArtifact::quantize(QuantMode::I8, &m, Some(&st));
        let back = QuantArtifact::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(back, a);
        let u = back.user_factors().unwrap();
        assert_eq!((u.rows(), u.cols()), (7, 6));
        let i = back.item_factors().unwrap();
        assert_eq!((i.rows(), i.cols()), (11, 6));
        let e = back.embeddings().unwrap();
        assert_eq!((e.rows(), e.cols()), (11, 5));
    }

    #[test]
    fn f16_round_trip_and_optional_embeddings() {
        let m = model(4, 6, 3, 9);
        let a = QuantArtifact::quantize(QuantMode::F16, &m, None);
        let back = QuantArtifact::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(back, a);
        assert!(back.embeddings().is_none());
        assert_eq!(back.mode(), QuantMode::F16);
    }

    #[test]
    fn encoding_is_deterministic() {
        let m = model(5, 8, 4, 7);
        let st = store(8, 6, 8);
        let a = QuantArtifact::quantize(QuantMode::I8, &m, Some(&st)).to_bytes();
        let b = QuantArtifact::quantize(QuantMode::I8, &m, Some(&st)).to_bytes();
        assert_eq!(a, b);
    }

    #[test]
    fn i8_per_element_error_is_within_half_a_step() {
        let m = model(6, 9, 12, 21);
        let a = QuantArtifact::quantize(QuantMode::I8, &m, None);
        let items = a.item_factors().unwrap();
        let mut deq = Vec::new();
        for r in 0..items.rows() {
            let row = items.row(r);
            row.dequantize_into(&mut deq);
            for (orig, got) in m.item_factors.row(r).iter().zip(&deq) {
                assert!(
                    (orig - got).abs() <= row.scale() * 0.5 + 1e-7,
                    "row {r}: {orig} vs {got} (scale {})",
                    row.scale()
                );
            }
        }
    }

    #[test]
    fn zero_row_quantizes_to_zero_scale() {
        let m = BprModel {
            user_factors: DenseMatrix::zeros(2, 4),
            item_factors: DenseMatrix::from_vec(1, 4, vec![1.0, -2.0, 0.5, 0.0]),
        };
        let a = QuantArtifact::quantize(QuantMode::I8, &m, None);
        let u = a.user_factors().unwrap();
        assert_eq!(u.row(0).scale(), 0.0);
        assert_eq!(u.row(0).dot(&a.item_factors().unwrap().row(0)), 0.0);
        // The extreme element maps to the full-scale code exactly.
        let i = a.item_factors().unwrap();
        let mut deq = Vec::new();
        i.dequantize_row_into(0, &mut deq);
        assert!((deq[1] - (-2.0)).abs() < 1e-6);
    }

    #[test]
    fn quantized_dot_tracks_f32_dot() {
        let m = model(10, 20, 16, 5);
        for &mode in &[QuantMode::I8, QuantMode::F16] {
            let a = QuantArtifact::quantize(mode, &m, None);
            let (u, i) = (a.user_factors().unwrap(), a.item_factors().unwrap());
            for r in 0..u.rows() {
                for b in 0..i.rows() {
                    let exact = vecops::dot(m.user_factors.row(r), m.item_factors.row(b));
                    let quant = u.row(r).dot(&i.row(b));
                    // dim 16, values ~N(0, 0.4): half-step error per
                    // element bounds the dot error well inside 0.05.
                    assert!(
                        (exact - quant).abs() < 0.05,
                        "{} r{r} b{b}: {exact} vs {quant}",
                        mode.label()
                    );
                }
            }
        }
    }

    #[test]
    fn query_quantized_matvec_matches_row_dots() {
        let m = model(3, 12, 8, 13);
        for &mode in &[QuantMode::I8, QuantMode::F16] {
            let a = QuantArtifact::quantize(mode, &m, None);
            let items = a.item_factors().unwrap();
            let q = QuantQuery::quantize(mode, m.user_factors.row(1));
            let mut scores = Vec::new();
            items.matvec_into(&q.as_row(), &mut scores);
            assert_eq!(scores.len(), 12);
            for (b, &s) in scores.iter().enumerate() {
                assert_eq!(s, items.row(b).dot(&q.as_row()), "row {b}");
                let exact = vecops::dot(m.user_factors.row(1), m.item_factors.row(b));
                assert!((s - exact).abs() < 0.05, "row {b}: {s} vs {exact}");
            }
        }
    }

    #[test]
    fn recommender_adapter_ranks_like_dequantized_scores() {
        use crate::Recommender;
        let m = model(4, 9, 6, 31);
        let train = Interactions::from_pairs(
            4,
            9,
            &[
                (UserIdx(0), BookIdx(2)),
                (UserIdx(1), BookIdx(0)),
                (UserIdx(1), BookIdx(5)),
            ],
        );
        let a = QuantArtifact::quantize(QuantMode::I8, &m, None);
        let rec = QuantRecommender::new(&a, &train);
        assert_eq!(rec.name(), "bpr-quant-i8");
        for u in 0..4u32 {
            let got = rec.recommend(UserIdx(u), 3);
            assert_eq!(got.len(), 3);
            for &b in train.seen(UserIdx(u)) {
                assert!(!got.contains(&b), "seen book {b} recommended");
            }
            // Ranking agrees with brute-force over the adapter's scores.
            let brute = crate::rank_by_scores(9, train.seen(UserIdx(u)), 3, |b| {
                rec.score(UserIdx(u), BookIdx(b))
            });
            assert_eq!(got, brute, "user {u}");
        }
    }

    #[test]
    fn truncation_detected_at_every_boundary() {
        let m = model(3, 5, 4, 17);
        let a = QuantArtifact::quantize(QuantMode::I8, &m, Some(&store(5, 3, 18)));
        let bytes = a.to_bytes();
        for cut in [
            9,  // mid-header
            20, // mid-record
            bytes.len() / 2,
            bytes.len() - 9, // checksum clipped
        ] {
            assert!(
                QuantArtifact::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn corruption_and_wrong_tag_detected() {
        let m = model(3, 5, 4, 19);
        let a = QuantArtifact::quantize(QuantMode::F16, &m, None);
        let mut bytes = a.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert_eq!(
            QuantArtifact::from_bytes(&bytes),
            Err(DecodeError::BadChecksum)
        );
        let bpr_bytes = m.to_bytes();
        assert_eq!(
            QuantArtifact::from_bytes(&bpr_bytes),
            Err(DecodeError::WrongModel {
                expected: QuantArtifact::TAG,
                found: BprModel::TAG
            })
        );
    }

    /// Tampers with payload bytes and re-signs the container checksum, so
    /// only the structural validator stands between the forgery and a
    /// formed view — mirroring the PR 8 ann.rmodel forged-partition test.
    fn resign(bytes: &mut [u8]) {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let body_end = bytes.len() - 8;
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &b in &bytes[..body_end] {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        bytes[body_end..].copy_from_slice(&h.to_le_bytes());
    }

    #[test]
    fn forged_section_offsets_rejected() {
        let m = model(4, 6, 4, 23);
        let a = QuantArtifact::quantize(QuantMode::I8, &m, None);
        let base = a.to_bytes();
        // Payload starts at byte 9; record 0 starts at payload offset 12.
        let rec0 = 9 + 12;
        // (field offset within record, delta) — forge each offset/length
        // field and the dimension fields that feed the canonical layout.
        for (field, delta) in [
            (16usize, 64u32), // scales_off pushed forward
            (20, 4),          // scales_len inflated
            (24, 64),         // data_off aliased into the next section
            (28, 1),          // data_len off by one
            (8, 1),           // rows inflated without moving data
        ] {
            let mut bytes = base.clone();
            let at = rec0 + field;
            let v = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) + delta;
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
            resign(&mut bytes);
            assert!(
                QuantArtifact::from_bytes(&bytes).is_err(),
                "forged field at record offset {field} decoded"
            );
        }
    }

    #[test]
    fn forged_header_rejected() {
        let m = model(2, 3, 4, 29);
        let a = QuantArtifact::quantize(QuantMode::F16, &m, None);
        let base = a.to_bytes();
        // (payload offset, new value): bad version, bad mode, zero and
        // oversized section counts, duplicate/unknown section kind.
        for (off, v) in [
            (0usize, 9u32), // version
            (4, 7),         // mode
            (8, 0),         // n_sections = 0
            (8, 200),       // n_sections huge
            (12, 1),        // first kind = item-factors, second also 1
            (12, 9),        // unknown kind
        ] {
            let mut bytes = base.clone();
            bytes[9 + off..9 + off + 4].copy_from_slice(&v.to_le_bytes());
            resign(&mut bytes);
            assert!(
                QuantArtifact::from_bytes(&bytes).is_err(),
                "forged header word at {off} decoded"
            );
        }
    }

    #[test]
    fn nan_scale_rejected() {
        let m = model(2, 3, 4, 37);
        let a = QuantArtifact::quantize(QuantMode::I8, &m, None);
        let mut bytes = a.to_bytes();
        // First scale lives at the first 64-aligned payload offset past
        // the header (2 sections → header 76 → scales at 128).
        let scales_off = 9 + 128;
        bytes[scales_off..scales_off + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        resign(&mut bytes);
        assert!(QuantArtifact::from_bytes(&bytes).is_err());
    }

    #[test]
    fn sections_are_cache_line_aligned() {
        let m = model(3, 5, 4, 41);
        let a = QuantArtifact::quantize(QuantMode::I8, &m, Some(&store(5, 3, 42)));
        for s in &a.sections {
            assert_eq!(s.data_off % ALIGN, 0, "{:?}", s.kind);
        }
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..512)
        ) {
            let _ = QuantArtifact::from_bytes(&bytes);
        }

        #[test]
        fn arbitrary_payloads_never_panic(
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..512)
        ) {
            // Drive the payload validator directly (bypassing the
            // checksum, which would otherwise reject nearly everything).
            let _ = QuantArtifact::decode_payload(&payload);
        }

        #[test]
        fn round_trip_arbitrary_dims(
            users in 1usize..10,
            books in 1usize..10,
            dim in 1usize..8,
            seed in 0u64..200,
            mode_bit in 0u8..2,
        ) {
            let mode = if mode_bit == 0 { QuantMode::I8 } else { QuantMode::F16 };
            let m = model(users, books, dim, seed);
            let a = QuantArtifact::quantize(mode, &m, None);
            let back = QuantArtifact::from_bytes(&a.to_bytes()).unwrap();
            proptest::prop_assert_eq!(back, a);
        }
    }
}
