//! Exact sparse TF-IDF encoding — the reference the hashed encoder
//! approximates.
//!
//! [`crate::SemanticEncoder`] projects the TF-IDF bag into a fixed-width
//! dense vector via feature hashing; DESIGN.md claims the resulting cosine
//! distortion is small at the default dimension. This module provides the
//! ground truth to *measure* that claim: a vocabulary-backed sparse
//! encoder whose cosine is exact, plus [`mean_cosine_distortion`], which
//! quantifies the hashed approximation error over a corpus (asserted in
//! tests).
//!
//! The exact encoder deliberately mirrors the hashed one's pipeline
//! (tokenisation, stop words, sublinear TF, smooth IDF, n-gram weighting)
//! so the only difference under measurement is the projection itself.

use crate::encoder::{EncoderConfig, SemanticEncoder};
use crate::idf::IdfModel;
use crate::tokenize::{char_ngrams, is_stopword, tokens};
use std::collections::{BTreeMap, HashMap};

/// A sparse L2-normalised vector over a shared term vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec {
    /// Term ids, strictly ascending.
    pub indices: Vec<u32>,
    /// Matching weights.
    pub values: Vec<f32>,
}

impl SparseVec {
    /// Number of non-zero terms.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Dot product of two sparse vectors (merge join).
    #[must_use]
    pub fn dot(&self, other: &Self) -> f32 {
        let mut sum = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.indices.len() && j < other.indices.len() {
            match self.indices[i].cmp(&other.indices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += self.values[i] * other.values[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Cosine similarity (vectors are stored normalised, so this is `dot`;
    /// kept for symmetry with the dense API).
    #[must_use]
    pub fn cosine(&self, other: &Self) -> f32 {
        self.dot(other)
    }
}

/// Vocabulary-backed exact TF-IDF encoder.
#[derive(Debug, Clone)]
pub struct ExactEncoder {
    config: EncoderConfig,
    idf: IdfModel,
    vocab: HashMap<String, u32>,
}

impl ExactEncoder {
    /// Fits vocabulary and IDF over a corpus, mirroring
    /// [`SemanticEncoder::fit`]'s preprocessing.
    #[must_use]
    pub fn fit<S: AsRef<str>>(config: EncoderConfig, corpus: &[S]) -> Self {
        let tokenised: Vec<Vec<String>> = corpus
            .iter()
            .map(|doc| Self::normalised_tokens(&config, doc.as_ref()))
            .collect();
        let idf = IdfModel::fit(tokenised.iter().map(|doc| doc.iter().map(String::as_str)));
        let mut vocab = HashMap::new();
        let mut next = 0u32;
        for doc in &tokenised {
            for tok in doc {
                for feature in Self::features_of(&config, tok) {
                    vocab.entry(feature).or_insert_with(|| {
                        let id = next;
                        next += 1;
                        id
                    });
                }
            }
        }
        Self { config, idf, vocab }
    }

    fn normalised_tokens(config: &EncoderConfig, text: &str) -> Vec<String> {
        let mut toks = tokens(text);
        if config.drop_stopwords {
            toks.retain(|t| !is_stopword(t));
        }
        toks
    }

    /// All features a token contributes: itself plus its n-grams
    /// (namespaced so a gram never collides with a whole word).
    fn features_of(config: &EncoderConfig, token: &str) -> Vec<String> {
        let mut out = vec![format!("w:{token}")];
        if let Some((lo, hi)) = config.char_ngrams {
            out.extend(
                char_ngrams(token, lo, hi)
                    .into_iter()
                    .map(|g| format!("g:{g}")),
            );
        }
        out
    }

    /// Vocabulary size.
    #[must_use]
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Encodes a text into a normalised sparse vector. Features unseen at
    /// fit time are dropped (the hashed encoder keeps them; over a fitted
    /// catalogue the two see identical features).
    #[must_use]
    pub fn encode(&self, text: &str) -> SparseVec {
        let toks = Self::normalised_tokens(&self.config, text);
        let mut tf: HashMap<&str, u32> = HashMap::new();
        for t in &toks {
            *tf.entry(t.as_str()).or_insert(0) += 1;
        }
        // Deterministic accumulation order: shared n-gram features receive
        // float contributions from several tokens, and HashMap iteration
        // order varies per process (same invariant as the hashed encoder).
        let mut tf: Vec<(&str, u32)> = tf.into_iter().collect();
        tf.sort_unstable_by_key(|&(tok, _)| tok);
        // BTreeMap so the drain below is already sorted by feature id —
        // deterministic output order with no post-hoc sort.
        let mut acc: BTreeMap<u32, f32> = BTreeMap::new();
        for &(tok, count) in &tf {
            let tf_w = if self.config.sublinear_tf {
                1.0 + (count as f32).ln()
            } else {
                count as f32
            };
            let w = tf_w * self.idf.idf(tok);
            let features = Self::features_of(&self.config, tok);
            for (fi, feature) in features.iter().enumerate() {
                let Some(&id) = self.vocab.get(feature) else {
                    continue;
                };
                let weight = if fi == 0 {
                    w
                } else {
                    // Same n-gram block scaling as the hashed encoder.
                    w * self.config.ngram_weight / ((features.len() - 1) as f32).sqrt()
                };
                *acc.entry(id).or_insert(0.0) += weight;
            }
        }
        let mut pairs: Vec<(u32, f32)> = acc.into_iter().collect();
        let norm: f32 = pairs.iter().map(|&(_, v)| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            for (_, v) in &mut pairs {
                *v /= norm;
            }
        }
        let (indices, values) = pairs.into_iter().unzip();
        SparseVec { indices, values }
    }

    /// Exact cosine between two texts.
    #[must_use]
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        self.encode(a).cosine(&self.encode(b))
    }
}

/// Mean absolute cosine error of the hashed encoder against the exact one
/// over all pairs of the first `sample` corpus texts. Both encoders must
/// have been fitted on the same corpus with the same config (bar `dim`).
#[must_use]
pub fn mean_cosine_distortion<S: AsRef<str>>(
    hashed: &SemanticEncoder,
    exact: &ExactEncoder,
    texts: &[S],
    sample: usize,
) -> f64 {
    let texts: Vec<&str> = texts.iter().take(sample).map(AsRef::as_ref).collect();
    let dense: Vec<Vec<f32>> = texts.iter().map(|t| hashed.encode(t)).collect();
    let sparse: Vec<SparseVec> = texts.iter().map(|t| exact.encode(t)).collect();
    let mut total = 0.0f64;
    let mut pairs = 0usize;
    for i in 0..texts.len() {
        for j in (i + 1)..texts.len() {
            let approx = rm_sparse::vecops::cosine(&dense[i], &dense[j]);
            let truth = sparse[i].cosine(&sparse[j]);
            total += f64::from((approx - truth).abs());
            pairs += 1;
        }
    }
    if pairs == 0 {
        0.0
    } else {
        total / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        (0..60)
            .map(|i| match i % 3 {
                0 => format!("giallo mistero detective indagine caso{i} marco neri"),
                1 => format!("drago magia incantesimo regno torre{i} luisa blu"),
                _ => format!("guerra memoria secolo famiglia diario{i} anna verdi"),
            })
            .collect()
    }

    #[test]
    fn sparse_dot_merge_join() {
        let a = SparseVec {
            indices: vec![1, 3, 7],
            values: vec![0.5, 0.5, 0.5],
        };
        let b = SparseVec {
            indices: vec![3, 7, 9],
            values: vec![1.0, 2.0, 3.0],
        };
        assert!((a.dot(&b) - (0.5 + 1.0)).abs() < 1e-6);
        let empty = SparseVec {
            indices: vec![],
            values: vec![],
        };
        assert_eq!(a.dot(&empty), 0.0);
    }

    #[test]
    fn exact_encoder_self_similarity_is_one() {
        let c = corpus();
        let e = ExactEncoder::fit(EncoderConfig::default(), &c);
        assert!((e.similarity(&c[0], &c[0]) - 1.0).abs() < 1e-5);
        assert!(e.vocab_size() > 100);
    }

    #[test]
    fn exact_orders_same_topic_above_cross_topic() {
        let c = corpus();
        let e = ExactEncoder::fit(EncoderConfig::default(), &c);
        let same = e.similarity(&c[0], &c[3]); // both giallo
        let cross = e.similarity(&c[0], &c[1]); // giallo vs drago
        assert!(same > cross + 0.2, "same {same} vs cross {cross}");
    }

    #[test]
    fn distortion_shrinks_with_dimension() {
        let c = corpus();
        let exact = ExactEncoder::fit(EncoderConfig::default(), &c);
        let distortion_at = |dim: usize| {
            let hashed = SemanticEncoder::fit(
                EncoderConfig {
                    dim,
                    ..EncoderConfig::default()
                },
                &c,
            );
            mean_cosine_distortion(&hashed, &exact, &c, 30)
        };
        let d32 = distortion_at(32);
        let d256 = distortion_at(256);
        let d2048 = distortion_at(2048);
        assert!(d256 < d32, "d256 {d256} vs d32 {d32}");
        assert!(d2048 < d256, "d2048 {d2048} vs d256 {d256}");
        // The DESIGN.md claim: small distortion at the default dimension.
        assert!(d256 < 0.1, "default-dim distortion too high: {d256}");
    }

    #[test]
    fn hashed_and_exact_agree_on_ranking() {
        // The orderings the recommenders rely on must survive hashing:
        // same-topic neighbours rank above cross-topic ones under both.
        let c = corpus();
        let exact = ExactEncoder::fit(EncoderConfig::default(), &c);
        let hashed = SemanticEncoder::fit(EncoderConfig::default(), &c);
        let mut agree = 0;
        let total = 20;
        for q in 0..total {
            let same = (q + 3) % c.len();
            let cross = (q + 1) % c.len();
            let exact_pref = exact.similarity(&c[q], &c[same]) > exact.similarity(&c[q], &c[cross]);
            let hashed_pref =
                hashed.similarity(&c[q], &c[same]) > hashed.similarity(&c[q], &c[cross]);
            if exact_pref == hashed_pref {
                agree += 1;
            }
        }
        assert!(agree >= total - 2, "ranking agreement {agree}/{total}");
    }
}
