//! Deterministic text-embedding substrate — the workspace's substitute for
//! the pre-trained multilingual SBERT model the paper uses.
//!
//! The Closest Items recommender (Section 4) needs one capability from its
//! encoder: metadata summaries that share vocabulary (authors, genres,
//! keywords, plot terms) must land close in cosine space, and unrelated
//! summaries must not. This crate provides that with a fully deterministic,
//! training-free pipeline:
//!
//! 1. [`tokenize`] — Unicode-aware lowercasing, accent folding (the corpus
//!    is Italian), word tokens plus boundary-marked character n-grams for
//!    robustness to inflection;
//! 2. [`idf`] — smooth inverse-document-frequency weighting fitted on the
//!    book catalogue, so ubiquitous terms ("il", "la", author particles)
//!    stop dominating similarity;
//! 3. [`encoder`] — a feature-hashed signed random projection of the TF-IDF
//!    bag into a fixed-dimension unit vector (Johnson–Lindenstrauss style:
//!    cosine in the projected space approximates cosine between the sparse
//!    TF-IDF vectors);
//! 4. [`store`] — an embedding store with batch similarity and exact
//!    brute-force k-NN over the catalogue;
//! 5. [`ivf`] — the deterministic IVF index behind the serve pipeline's
//!    sub-linear candidate sources: seeded k-means coarse quantizer,
//!    cosine retrieval over embeddings and MIPS retrieval over BPR item
//!    factors via the augmented-dimension reduction;
//! 6. [`exact`] — a vocabulary-backed exact TF-IDF encoder, the reference
//!    against which the hashed projection's cosine distortion is measured
//!    (tests assert the DESIGN.md distortion claim).
//!
//! The substitution is documented in `DESIGN.md` §2: the paper's Fig. 5
//! ablation draws its signal from token overlap between metadata fields,
//! which this encoder preserves; deep paraphrase understanding is not
//! exercised by any experiment.

pub mod encoder;
pub mod exact;
pub mod idf;
pub mod ivf;
pub mod store;
pub mod tokenize;

pub use encoder::{EncoderConfig, EncoderScratch, SemanticEncoder};
pub use ivf::{AnnArtifact, IvfConfig, IvfIndex, IvfScratch};
pub use store::EmbeddingStore;
