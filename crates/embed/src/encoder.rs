//! The feature-hashed semantic encoder (SBERT substitute).
//!
//! A text is reduced to a weighted bag of features — word tokens plus
//! boundary-marked character n-grams — each feature hashed to one coordinate
//! of a `dim`-dimensional vector with a pseudo-random sign. This is a signed
//! random projection of the sparse TF-IDF vector: by the
//! Johnson–Lindenstrauss argument, cosine between two projected vectors
//! approximates cosine between the underlying TF-IDF bags, with error
//! shrinking as `dim` grows. Encoding is training-free and deterministic
//! given the configuration's hash seed; the optional IDF model is the only
//! fitted state.

use crate::idf::IdfModel;
use crate::tokenize::{fold_char, is_stopword, tokens};

/// Configuration of a [`SemanticEncoder`].
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderConfig {
    /// Output dimensionality. 256 balances JL distortion (< ~0.1 cosine
    /// error at catalogue scale) against the O(catalog × dim) similarity
    /// scans in Closest Items.
    pub dim: usize,
    /// Character n-gram range `(lo, hi)`; `None` disables n-gram features.
    pub char_ngrams: Option<(usize, usize)>,
    /// Relative weight of the n-gram features of a token versus the token
    /// itself. Small values keep word identity dominant while still linking
    /// inflected forms.
    pub ngram_weight: f32,
    /// Drop Italian stop words before weighting.
    pub drop_stopwords: bool,
    /// Use sublinear term frequency `1 + ln(tf)` instead of raw counts.
    pub sublinear_tf: bool,
    /// Seed of the hashing trick; changing it re-randomises the projection.
    pub hash_seed: u64,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            dim: 256,
            char_ngrams: Some((3, 4)),
            ngram_weight: 0.5,
            drop_stopwords: true,
            sublinear_tf: true,
            hash_seed: 0x5EED_EE0D_F00D_CAFE,
        }
    }
}

/// Reusable per-text temporaries for [`SemanticEncoder::encode_into_with`].
///
/// Encoding a text needs a folded copy of its characters, token spans,
/// term counts, and an n-gram window buffer. Holding them here lets a
/// batch encoder (e.g. `EmbeddingStore::encode_all`) hoist one scratch
/// over the whole catalogue: after the first few texts the buffers stop
/// growing and encoding allocates nothing per item.
#[derive(Debug, Clone, Default)]
pub struct EncoderScratch {
    /// Accent-folded token characters, concatenated.
    folded: String,
    /// Byte spans of each surviving token in `folded`.
    spans: Vec<(u32, u32)>,
    /// `(representative span index, count)` per unique token, in
    /// lexicographic token order — the deterministic accumulation order.
    counted: Vec<(u32, u32)>,
    /// Boundary-wrapped token (`^token$`) for n-gram windows.
    wrapped: String,
    /// Char-boundary byte offsets of `wrapped` (plus the end offset).
    offsets: Vec<u32>,
}

impl EncoderScratch {
    /// Folds `text` into tokens (spans over `folded`), dropping stop
    /// words when asked — the buffer-reusing equivalent of
    /// [`crate::tokenize::tokens`].
    fn tokenize(&mut self, text: &str, drop_stopwords: bool) {
        self.folded.clear();
        self.spans.clear();
        let mut start = 0u32;
        for c in text.chars() {
            match fold_char(c) {
                Some(f) => self.folded.push(f),
                None => {
                    if self.folded.len() as u32 > start {
                        self.spans.push((start, self.folded.len() as u32));
                    }
                    start = self.folded.len() as u32;
                }
            }
        }
        if self.folded.len() as u32 > start {
            self.spans.push((start, self.folded.len() as u32));
        }
        if drop_stopwords {
            let folded = &self.folded;
            self.spans
                .retain(|&(a, b)| !is_stopword(&folded[a as usize..b as usize]));
        }
    }

    /// Sorts the token spans lexicographically and run-length counts
    /// them into `counted` — the allocation-free replacement for the
    /// old per-call `HashMap` + sort.
    fn count_terms(&mut self) {
        self.counted.clear();
        let folded = &self.folded;
        self.spans.sort_unstable_by(|&(a1, b1), &(a2, b2)| {
            folded[a1 as usize..b1 as usize].cmp(&folded[a2 as usize..b2 as usize])
        });
        let mut i = 0;
        while i < self.spans.len() {
            let (a, b) = self.spans[i];
            let tok = &folded[a as usize..b as usize];
            let mut j = i + 1;
            while j < self.spans.len() {
                let (c, d) = self.spans[j];
                if &folded[c as usize..d as usize] != tok {
                    break;
                }
                j += 1;
            }
            self.counted.push((i as u32, (j - i) as u32));
            i = j;
        }
    }
}

/// Deterministic text → unit-vector encoder.
#[derive(Debug, Clone, Default)]
pub struct SemanticEncoder {
    config: EncoderConfig,
    idf: Option<IdfModel>,
}

impl SemanticEncoder {
    /// Creates an encoder with no IDF weighting (all terms weigh equally).
    #[must_use]
    pub fn new(config: EncoderConfig) -> Self {
        assert!(config.dim > 0, "encoder dimension must be positive");
        if let Some((lo, hi)) = config.char_ngrams {
            assert!(lo >= 2 && lo <= hi, "invalid n-gram range");
        }
        Self { config, idf: None }
    }

    /// Creates an encoder and fits its IDF model over a document corpus.
    #[must_use]
    pub fn fit<S: AsRef<str>>(config: EncoderConfig, corpus: &[S]) -> Self {
        let mut enc = Self::new(config);
        let tokenised: Vec<Vec<String>> = corpus
            .iter()
            .map(|doc| enc.normalised_tokens(doc.as_ref()))
            .collect();
        enc.idf = Some(IdfModel::fit(
            tokenised.iter().map(|doc| doc.iter().map(String::as_str)),
        ));
        enc
    }

    /// The configured output dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    fn normalised_tokens(&self, text: &str) -> Vec<String> {
        let mut toks = tokens(text);
        if self.config.drop_stopwords {
            toks.retain(|t| !is_stopword(t));
        }
        toks
    }

    fn idf_weight(&self, token: &str) -> f32 {
        self.idf.as_ref().map_or(1.0, |m| m.idf(token))
    }

    /// Encodes a text into a unit vector. An empty / all-stopword text
    /// yields the zero vector.
    #[must_use]
    pub fn encode(&self, text: &str) -> Vec<f32> {
        let mut out = vec![0.0f32; self.config.dim];
        self.encode_into(text, &mut out);
        out
    }

    /// [`SemanticEncoder::encode`] writing into a caller-provided buffer
    /// (zeroed first), so batch encoders fill their matrix rows directly
    /// instead of allocating a vector per text.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim()`.
    pub fn encode_into(&self, text: &str, out: &mut [f32]) {
        self.encode_into_with(text, &mut EncoderScratch::default(), out);
    }

    /// [`SemanticEncoder::encode_into`] with a caller-held
    /// [`EncoderScratch`]: all per-text temporaries live in `scratch`,
    /// so a batch loop allocates only while the buffers grow to the
    /// longest text. Output is bit-identical to the other entry points
    /// — accumulation runs over unique tokens in lexicographic order,
    /// the same deterministic order the per-call path used.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim()`.
    pub fn encode_into_with(&self, text: &str, scratch: &mut EncoderScratch, out: &mut [f32]) {
        assert_eq!(out.len(), self.config.dim, "encode buffer dimension");
        out.fill(0.0);
        scratch.tokenize(text, self.config.drop_stopwords);
        if scratch.spans.is_empty() {
            return;
        }
        scratch.count_terms();

        for ci in 0..scratch.counted.len() {
            let (si, count) = scratch.counted[ci];
            let (a, b) = scratch.spans[si as usize];
            let tok = &scratch.folded[a as usize..b as usize];
            let tf_w = if self.config.sublinear_tf {
                1.0 + (count as f32).ln()
            } else {
                count as f32
            };
            let w = tf_w * self.idf_weight(tok);
            self.splat(tok.as_bytes(), w, out);
            let Some((lo, hi)) = self.config.char_ngrams else {
                continue;
            };
            scratch.wrapped.clear();
            scratch.wrapped.push('^');
            scratch
                .wrapped
                .push_str(&scratch.folded[a as usize..b as usize]);
            scratch.wrapped.push('$');
            scratch.offsets.clear();
            scratch
                .offsets
                .extend(scratch.wrapped.char_indices().map(|(i, _)| i as u32));
            scratch.offsets.push(scratch.wrapped.len() as u32);
            let nchars = scratch.offsets.len() - 1;
            if nchars <= lo {
                // The whole wrapped token is the single n-gram.
                let gw = w * self.config.ngram_weight;
                self.splat(scratch.wrapped.as_bytes(), gw, out);
                continue;
            }
            // 1/sqrt(n) scaling keeps the *L2 mass* of a token's n-gram
            // block at `w * ngram_weight` regardless of token length
            // (grams are near-orthogonal under hashing), so long words
            // don't get extra weight.
            let n_grams: usize = (lo..=hi.min(nchars)).map(|n| nchars - n + 1).sum();
            let gw = w * self.config.ngram_weight / (n_grams as f32).sqrt();
            for n in lo..=hi.min(nchars) {
                for s in 0..=(nchars - n) {
                    let gram = &scratch.wrapped.as_bytes()
                        [scratch.offsets[s] as usize..scratch.offsets[s + n] as usize];
                    self.splat(gram, gw, out);
                }
            }
        }

        rm_sparse::vecops::normalize(out);
    }

    /// Cosine similarity of two texts under this encoder.
    #[must_use]
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        rm_sparse::vecops::cosine(&self.encode(a), &self.encode(b))
    }

    /// Adds feature `bytes` with weight `w` into the accumulator.
    #[inline]
    fn splat(&self, bytes: &[u8], w: f32, acc: &mut [f32]) {
        let h = hash_feature(self.config.hash_seed, bytes);
        let idx = (h % self.config.dim as u64) as usize;
        // Sign from a high bit uncorrelated with the index bits.
        let sign = if h & (1 << 62) == 0 { 1.0 } else { -1.0 };
        acc[idx] += sign * w;
    }
}

/// Seeded FNV-1a over the feature bytes, finished with a SplitMix64-style
/// avalanche so low bits (used for the index) and high bits (used for the
/// sign) are both well mixed.
#[inline]
#[must_use]
fn hash_feature(seed: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc() -> SemanticEncoder {
        SemanticEncoder::new(EncoderConfig::default())
    }

    #[test]
    fn encoding_is_deterministic_and_unit() {
        let e = enc();
        let v1 = e.encode("Il nome della rosa");
        let v2 = e.encode("Il nome della rosa");
        assert_eq!(v1, v2);
        let norm = rm_sparse::vecops::norm2(&v1);
        assert!((norm - 1.0).abs() < 1e-5, "norm {norm}");
    }

    #[test]
    fn encode_into_matches_encode_and_clears_stale_data() {
        let e = enc();
        let mut buf = vec![f32::NAN; e.dim()];
        e.encode_into("il nome della rosa", &mut buf);
        assert_eq!(buf, e.encode("il nome della rosa"));
        // A previously-used buffer must be fully overwritten, even by an
        // all-stopword text that encodes to zero.
        e.encode_into("il la di e", &mut buf);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "encode buffer dimension")]
    fn encode_into_rejects_wrong_dim() {
        let e = enc();
        let mut buf = vec![0.0f32; e.dim() + 1];
        e.encode_into("x", &mut buf);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = enc();
        assert!(e.encode("").iter().all(|&v| v == 0.0));
        assert!(e.encode("il la di e").iter().all(|&v| v == 0.0)); // all stopwords
    }

    #[test]
    fn identical_texts_similarity_one() {
        let e = enc();
        let s = e.similarity("delitto e castigo", "delitto e castigo");
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn shared_vocabulary_beats_disjoint() {
        let e = enc();
        let shared = e.similarity("umberto eco giallo storico", "umberto eco romanzo storico");
        let disjoint = e.similarity(
            "umberto eco giallo storico",
            "manga avventura spaziale robot",
        );
        assert!(
            shared > disjoint + 0.2,
            "shared {shared} vs disjoint {disjoint}"
        );
    }

    #[test]
    fn word_order_is_ignored() {
        let e = enc();
        let s = e.similarity("rossi fantasy magia", "magia fantasy rossi");
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn idf_downweights_common_terms() {
        // "romanzo" appears in every doc, "duneide" in one. With IDF the
        // pair sharing only "romanzo" must score below the pair sharing
        // only "duneide".
        let corpus: Vec<String> = (0..50)
            .map(|i| format!("romanzo storia autore{i}"))
            .chain(std::iter::once("romanzo duneide".to_owned()))
            .collect();
        let e = SemanticEncoder::fit(EncoderConfig::default(), &corpus);
        let common_only = e.similarity("romanzo alfa", "romanzo beta");
        let rare_only = e.similarity("duneide alfa", "duneide beta");
        assert!(
            rare_only > common_only,
            "rare {rare_only} vs common {common_only}"
        );
    }

    #[test]
    fn ngrams_link_inflected_forms() {
        let cfg = EncoderConfig::default();
        let e = SemanticEncoder::new(cfg);
        let inflected = e.similarity("vampiro", "vampiri");
        let unrelated = e.similarity("vampiro", "giardino");
        assert!(
            inflected > unrelated + 0.05,
            "inflected {inflected} vs unrelated {unrelated}"
        );
    }

    #[test]
    fn different_seeds_give_different_projections() {
        let a = SemanticEncoder::new(EncoderConfig {
            hash_seed: 1,
            ..EncoderConfig::default()
        });
        let b = SemanticEncoder::new(EncoderConfig {
            hash_seed: 2,
            ..EncoderConfig::default()
        });
        assert_ne!(
            a.encode("la storia infinita"),
            b.encode("la storia infinita")
        );
    }

    #[test]
    fn accents_fold_before_hashing() {
        let e = enc();
        let s = e.similarity("perché città", "perche citta");
        assert!((s - 1.0).abs() < 1e-5);
    }

    proptest::proptest! {
        #[test]
        fn encoding_never_panics_and_is_unit_or_zero(text in "[a-zA-Z0-9 àèìòù.,!-]{0,120}") {
            let e = enc();
            let v = e.encode(&text);
            proptest::prop_assert_eq!(v.len(), e.dim());
            let norm = rm_sparse::vecops::norm2(&v);
            proptest::prop_assert!(
                norm.abs() < 1e-6 || (norm - 1.0).abs() < 1e-4,
                "norm {}", norm
            );
        }

        #[test]
        fn self_similarity_is_one_or_zero(text in "[a-z ]{1,60}") {
            let e = enc();
            let s = e.similarity(&text, &text);
            proptest::prop_assert!(s.abs() < 1e-6 || (s - 1.0).abs() < 1e-4);
        }

        #[test]
        fn similarity_is_symmetric(a in "[a-z ]{1,40}", b in "[a-z ]{1,40}") {
            let e = enc();
            let ab = e.similarity(&a, &b);
            let ba = e.similarity(&b, &a);
            proptest::prop_assert!((ab - ba).abs() < 1e-6);
        }
    }

    /// The old per-call encoder (HashMap term counts + `char_ngrams`
    /// string allocation), kept as a reference: the scratch-based path
    /// must reproduce it bit for bit.
    fn encode_reference(e: &SemanticEncoder, text: &str) -> Vec<f32> {
        use crate::tokenize::char_ngrams;
        let mut out = vec![0.0f32; e.dim()];
        let toks = e.normalised_tokens(text);
        if toks.is_empty() {
            return out;
        }
        let mut tf: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        for t in &toks {
            *tf.entry(t.as_str()).or_insert(0) += 1;
        }
        let mut tf: Vec<(&str, u32)> = tf.into_iter().collect();
        tf.sort_unstable_by_key(|&(tok, _)| tok);
        for &(tok, count) in &tf {
            let tf_w = if e.config.sublinear_tf {
                1.0 + (count as f32).ln()
            } else {
                count as f32
            };
            let w = tf_w * e.idf_weight(tok);
            e.splat(tok.as_bytes(), w, &mut out);
            if let Some((lo, hi)) = e.config.char_ngrams {
                let grams = char_ngrams(tok, lo, hi);
                let gw = w * e.config.ngram_weight / (grams.len() as f32).sqrt();
                for g in &grams {
                    e.splat(g.as_bytes(), gw, &mut out);
                }
            }
        }
        rm_sparse::vecops::normalize(&mut out);
        out
    }

    #[test]
    fn scratch_path_is_bit_identical_to_reference() {
        let e = enc();
        let mut scratch = EncoderScratch::default();
        let mut buf = vec![0.0f32; e.dim()];
        for text in [
            "Il nome della rosa",
            "perché città perché",
            "a b a b a ripetizione",
            "",
            "il la di e",
            "Ōoku: le stanze proibite — 大奥",
        ] {
            e.encode_into_with(text, &mut scratch, &mut buf);
            assert_eq!(buf, encode_reference(&e, text), "text {text:?}");
        }
    }

    #[test]
    fn scratch_buffers_are_pointer_stable_after_warmup() {
        let e = enc();
        let mut scratch = EncoderScratch::default();
        let mut buf = vec![0.0f32; e.dim()];
        // Warm up on the longest text; later texts must reuse every
        // buffer in place — encode_all over a catalogue allocates
        // nothing per item once warmed.
        let longest = "il gattopardo e la storia infinita della biblioteca sconfinata";
        e.encode_into_with(longest, &mut scratch, &mut buf);
        let fingerprint = (
            scratch.folded.as_ptr(),
            scratch.spans.as_ptr(),
            scratch.counted.as_ptr(),
            scratch.wrapped.as_ptr(),
            scratch.offsets.as_ptr(),
        );
        for text in ["delitto e castigo", "rosa", "perché no", longest] {
            e.encode_into_with(text, &mut scratch, &mut buf);
            let now = (
                scratch.folded.as_ptr(),
                scratch.spans.as_ptr(),
                scratch.counted.as_ptr(),
                scratch.wrapped.as_ptr(),
                scratch.offsets.as_ptr(),
            );
            assert_eq!(now, fingerprint, "scratch reallocated on {text:?}");
        }
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn zero_dim_rejected() {
        let _ = SemanticEncoder::new(EncoderConfig {
            dim: 0,
            ..EncoderConfig::default()
        });
    }
}
