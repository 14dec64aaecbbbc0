//! Binary persistence of trained models.
//!
//! A deployed recommendation service (the Reading&Machine VR kiosk) trains
//! offline and serves online; this module provides the handoff format — a
//! small self-describing little-endian codec with a magic header, a
//! per-model tag byte, and a trailing checksum, no external serialisation
//! dependencies.
//!
//! Container layout (version 2): `magic "RMODEL\0\x02" (8) | tag (1) |
//! model payload | fnv64 of all preceding bytes`. Each persistable model
//! implements [`PersistModel`] — a payload codec plus a unique tag — and
//! inherits [`PersistModel::to_bytes`] / [`PersistModel::from_bytes`],
//! which handle the container (magic, tag dispatch, checksum) uniformly.
//!
//! Version-1 files (`"RMBPR\0\0\x01"`, BPR only, no tag byte) are still
//! decoded by [`BprModel::from_bytes`] and [`decode`]; the seed codec
//! never wrote any other model kind.

use crate::bpr::BprModel;
use crate::most_read::MostReadItems;
use rm_embed::{AnnArtifact, EmbeddingStore, IvfIndex};
use rm_sparse::DenseMatrix;
use std::collections::BTreeMap;

/// Container magic: "RMODEL\0\x02" (version 2, tagged).
const MAGIC: [u8; 8] = *b"RMODEL\0\x02";

/// Version-1 magic: "RMBPR\0\0\x01" (BPR factors only, untagged).
const LEGACY_BPR_MAGIC: [u8; 8] = *b"RMBPR\0\0\x01";

/// Errors arising when decoding a serialised model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than the fixed header.
    Truncated,
    /// Magic bytes mismatch (not a model file / wrong version).
    BadMagic,
    /// The file holds a different model kind than requested.
    WrongModel {
        /// The tag the caller asked for.
        expected: u8,
        /// The tag found in the file.
        found: u8,
    },
    /// Declared dimensions don't match the payload length.
    LengthMismatch,
    /// Checksum mismatch (corrupted payload).
    BadChecksum,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "input truncated"),
            Self::BadMagic => write!(f, "bad magic (not a model file, or unsupported version)"),
            Self::WrongModel { expected, found } => {
                write!(
                    f,
                    "model tag mismatch (expected {expected:#04x}, found {found:#04x})"
                )
            }
            Self::LengthMismatch => write!(f, "payload length does not match declared dimensions"),
            Self::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn fnv64(bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A model with a binary artifact codec.
///
/// Implementations define only the payload layout; the container (magic,
/// tag byte, trailing checksum) is handled by the provided
/// [`PersistModel::to_bytes`] / [`PersistModel::from_bytes`], so every
/// artifact on disk is self-describing and corruption-evident the same
/// way.
pub trait PersistModel: Sized {
    /// Unique model-kind tag stored after the magic.
    const TAG: u8;

    /// Human-readable model kind (manifest entries, error context).
    const KIND: &'static str;

    /// Appends the model payload (everything between tag and checksum).
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Decodes the payload produced by
    /// [`PersistModel::encode_payload`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the payload is malformed.
    fn decode_payload(payload: &[u8]) -> Result<Self, DecodeError>;

    /// Serialises the model into a tagged, checksummed container.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 1 + 8);
        out.extend_from_slice(&MAGIC);
        out.push(Self::TAG);
        self.encode_payload(&mut out);
        let checksum = fnv64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Deserialises a model from a tagged container.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the input is truncated, has the
    /// wrong magic, carries a different model's tag, declares dimensions
    /// inconsistent with the payload, or fails the checksum.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        Self::decode_payload(container_payload(bytes, Self::TAG)?)
    }
}

/// Validates the container (magic, checksum, then tag) and returns the
/// payload slice. The checksum is verified *before* the tag so a flipped
/// tag byte reports corruption, not a model-kind mismatch.
fn container_payload(bytes: &[u8], expected_tag: u8) -> Result<&[u8], DecodeError> {
    if bytes.len() < 8 + 1 + 8 {
        return Err(DecodeError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let body_end = bytes.len() - 8;
    let declared = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    if fnv64(&bytes[..body_end]) != declared {
        return Err(DecodeError::BadChecksum);
    }
    if bytes[8] != expected_tag {
        return Err(DecodeError::WrongModel {
            expected: expected_tag,
            found: bytes[8],
        });
    }
    Ok(&bytes[9..body_end])
}

/// The model tag stored in a container, without decoding the payload.
/// `None` when the input is not a version-2 container.
#[must_use]
pub fn peek_tag(bytes: &[u8]) -> Option<u8> {
    (bytes.len() >= 8 + 1 + 8 && bytes[..8] == MAGIC).then(|| bytes[8])
}

pub(crate) fn push_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&u32::try_from(v).expect("dimension fits u32").to_le_bytes());
}

pub(crate) fn read_u32(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize
}

/// Reads a `f32` little-endian payload of exactly `n` values.
fn read_f32s(bytes: &[u8], n: usize) -> Result<Vec<f32>, DecodeError> {
    if bytes.len() != 4 * n {
        return Err(DecodeError::LengthMismatch);
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

impl PersistModel for BprModel {
    const TAG: u8 = 0x01;
    const KIND: &'static str = "bpr";

    /// `users u32 | books u32 | factors u32 | user_factors f32×(users·L) |
    /// item_factors f32×(books·L)` — identical to the version-1 body, so
    /// the legacy path shares this decoder.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        let factors = self.user_factors.cols();
        assert_eq!(factors, self.item_factors.cols(), "factor dims disagree");
        push_u32(out, self.user_factors.rows());
        push_u32(out, self.item_factors.rows());
        push_u32(out, factors);
        for &v in self.user_factors.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for &v in self.item_factors.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, DecodeError> {
        if payload.len() < 12 {
            return Err(DecodeError::Truncated);
        }
        let users = read_u32(payload, 0);
        let books = read_u32(payload, 4);
        let factors = read_u32(payload, 8);
        let n = (users + books)
            .checked_mul(factors)
            .ok_or(DecodeError::LengthMismatch)?;
        let floats = read_f32s(&payload[12..], n)?;
        let (user_data, item_data) = floats.split_at(users * factors);
        Ok(Self {
            user_factors: DenseMatrix::from_vec(users, factors, user_data.to_vec()),
            item_factors: DenseMatrix::from_vec(books, factors, item_data.to_vec()),
        })
    }

    /// Accepts both the version-2 container and version-1
    /// (`"RMBPR\0\0\x01"`) files written by the seed codec.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() >= 8 && bytes[..8] == LEGACY_BPR_MAGIC {
            return decode_legacy_bpr(bytes);
        }
        Self::decode_payload(container_payload(bytes, Self::TAG)?)
    }
}

/// Version-1 layout: `magic (8) | users u32 | books u32 | factors u32 |
/// f32 payload | fnv64` — the body matches the version-2 BPR payload.
fn decode_legacy_bpr(bytes: &[u8]) -> Result<BprModel, DecodeError> {
    if bytes.len() < 8 + 12 + 8 {
        return Err(DecodeError::Truncated);
    }
    let body_end = bytes.len() - 8;
    let declared = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    if fnv64(&bytes[..body_end]) != declared {
        return Err(DecodeError::BadChecksum);
    }
    BprModel::decode_payload(&bytes[8..body_end])
}

impl PersistModel for MostReadItems {
    const TAG: u8 = 0x02;
    const KIND: &'static str = "most-read";

    /// `books u32 | counts u64×books`. The popularity order is derived,
    /// not stored: the decoder rebuilds it from the counts.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        let counts = self.counts();
        push_u32(out, counts.len());
        for &c in counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, DecodeError> {
        if payload.len() < 4 {
            return Err(DecodeError::Truncated);
        }
        let books = read_u32(payload, 0);
        let body = &payload[4..];
        if body.len() != 8 * books {
            return Err(DecodeError::LengthMismatch);
        }
        let counts: Vec<u64> = body
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        Ok(Self::from_counts(counts))
    }
}

impl PersistModel for EmbeddingStore {
    const TAG: u8 = 0x03;
    const KIND: &'static str = "embeddings";

    /// `rows u32 | dim u32 | embeddings f32×(rows·dim)`. Rows are the
    /// already-normalised unit vectors; the decoder restores them verbatim
    /// so a round trip is bit-exact.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        push_u32(out, self.len());
        push_u32(out, self.dim());
        for i in 0..self.len() {
            for &v in self.embedding(i) {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, DecodeError> {
        if payload.len() < 8 {
            return Err(DecodeError::Truncated);
        }
        let rows = read_u32(payload, 0);
        let dim = read_u32(payload, 4);
        let n = rows.checked_mul(dim).ok_or(DecodeError::LengthMismatch)?;
        let data = read_f32s(&payload[8..], n)?;
        Ok(Self::from_unit_matrix(DenseMatrix::from_vec(
            rows, dim, data,
        )))
    }
}

/// Bounds-checked sequential reader for variable-length payloads (the
/// ANN artifact's list-of-lists layout can't be validated with a single
/// up-front length equation the way the matrix payloads can).
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn u32(&mut self) -> Result<usize, DecodeError> {
        if self.bytes.len() - self.at < 4 {
            return Err(DecodeError::Truncated);
        }
        let v = read_u32(self.bytes, self.at);
        self.at += 4;
        Ok(v)
    }

    /// Reads `n` little-endian `f32`s, checking the remaining length
    /// *before* allocating so a garbage count can't request gigabytes.
    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, DecodeError> {
        let need = n.checked_mul(4).ok_or(DecodeError::LengthMismatch)?;
        if self.bytes.len() - self.at < need {
            return Err(DecodeError::Truncated);
        }
        let out = self.bytes[self.at..self.at + need]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        self.at += need;
        Ok(out)
    }
}

/// One IVF index: `nlist u32 | dim u32 | n_items u32 | n_lists u32 |
/// centroids f32×(nlist·dim) | per list (centroid u32 | len u32 |
/// items u32×len)`. Lists serialise in `BTreeMap` order, so equal
/// indexes produce equal bytes.
fn encode_ivf(idx: &IvfIndex, out: &mut Vec<u8>) {
    push_u32(out, idx.nlist());
    push_u32(out, idx.dim());
    push_u32(out, idx.n_items() as usize);
    push_u32(out, idx.n_lists());
    for &v in idx.centroids().as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for (&c, items) in idx.lists() {
        push_u32(out, c as usize);
        push_u32(out, items.len());
        for &i in items {
            push_u32(out, i as usize);
        }
    }
}

fn decode_ivf(cur: &mut Cursor<'_>) -> Result<IvfIndex, DecodeError> {
    let nlist = cur.u32()?;
    let dim = cur.u32()?;
    let n_items = cur.u32()? as u32;
    let n_lists = cur.u32()?;
    let n = nlist.checked_mul(dim).ok_or(DecodeError::LengthMismatch)?;
    let centroids = DenseMatrix::from_vec(nlist, dim, cur.f32s(n)?);
    let mut lists: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for _ in 0..n_lists {
        let c = cur.u32()? as u32;
        let len = cur.u32()?;
        let mut items = Vec::new();
        for _ in 0..len {
            items.push(cur.u32()? as u32);
        }
        if lists.insert(c, items).is_some() {
            return Err(DecodeError::LengthMismatch);
        }
    }
    // from_parts re-validates the partition invariant (every item id in
    // range and listed exactly once), so a tampered-but-checksummed
    // payload still decodes to an error, never a broken index.
    IvfIndex::from_parts(centroids, lists, n_items).ok_or(DecodeError::LengthMismatch)
}

impl PersistModel for AnnArtifact {
    const TAG: u8 = 0x04;
    const KIND: &'static str = "ann";

    /// `flags u32 (bit 0 = content index present, bit 1 = cf index
    /// present) | [content index] | [cf index]`, each index encoded by
    /// `encode_ivf`.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        let flags = usize::from(self.content.is_some()) | (usize::from(self.cf.is_some()) << 1);
        push_u32(out, flags);
        for idx in [self.content.as_ref(), self.cf.as_ref()]
            .into_iter()
            .flatten()
        {
            encode_ivf(idx, out);
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut cur = Cursor {
            bytes: payload,
            at: 0,
        };
        let flags = cur.u32()?;
        if flags & !0b11 != 0 {
            return Err(DecodeError::LengthMismatch);
        }
        let content = if flags & 0b01 != 0 {
            Some(decode_ivf(&mut cur)?)
        } else {
            None
        };
        let cf = if flags & 0b10 != 0 {
            Some(decode_ivf(&mut cur)?)
        } else {
            None
        };
        if cur.at != payload.len() {
            return Err(DecodeError::LengthMismatch);
        }
        Ok(Self { content, cf })
    }
}

/// Serialises a BPR model (alias for [`PersistModel::to_bytes`], kept for
/// the original BPR-only API).
#[must_use]
pub fn encode(model: &BprModel) -> Vec<u8> {
    model.to_bytes()
}

/// Deserialises a BPR model from either codec version (alias for
/// [`PersistModel::from_bytes`], kept for the original BPR-only API).
///
/// # Errors
///
/// Returns a [`DecodeError`] when the input is truncated, has the wrong
/// magic, inconsistent dimensions, or a bad checksum.
pub fn decode(bytes: &[u8]) -> Result<BprModel, DecodeError> {
    BprModel::from_bytes(bytes)
}

/// Writes `bytes` to `path` atomically: the data goes to a `.tmp`
/// sibling first, is fsync'd, and is renamed over the destination, so a
/// crash mid-publication leaves either the old artifact or the new one —
/// never a torn file. The parent directory is fsync'd after the rename
/// (best-effort: some filesystems refuse directory handles) so the
/// rename itself survives a power loss.
///
/// # Errors
///
/// Returns the underlying [`std::io::Error`] when the temporary file
/// cannot be created, written, synced, or renamed.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_util::rng::rng_from_seed;

    fn model() -> BprModel {
        let mut rng = rng_from_seed(3);
        BprModel {
            user_factors: DenseMatrix::gaussian(7, 4, 0.3, &mut rng),
            item_factors: DenseMatrix::gaussian(11, 4, 0.3, &mut rng),
        }
    }

    /// Re-creates a version-1 file byte stream (what the seed codec
    /// wrote): legacy magic, untagged body, fnv64 checksum.
    fn encode_legacy(model: &BprModel) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&LEGACY_BPR_MAGIC);
        model.encode_payload(&mut out);
        let checksum = fnv64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn round_trip_is_exact() {
        let m = model();
        let bytes = encode(&m);
        let back = decode(&bytes).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn legacy_files_still_decode() {
        let m = model();
        let v1 = encode_legacy(&m);
        assert_eq!(decode(&v1).unwrap(), m);
        // And legacy corruption is still detected.
        let mut bad = v1.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        assert_eq!(decode(&bad), Err(DecodeError::BadChecksum));
        assert_eq!(decode(&v1[..v1.len() - 1]), Err(DecodeError::BadChecksum));
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(&model());
        assert_eq!(decode(&bytes[..10]), Err(DecodeError::Truncated));
        assert_eq!(
            decode(&bytes[..bytes.len() - 1]),
            Err(DecodeError::BadChecksum)
        );
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = encode(&model());
        bytes[0] ^= 0xFF;
        assert_eq!(decode(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = encode(&model());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert_eq!(decode(&bytes), Err(DecodeError::BadChecksum));
    }

    #[test]
    fn dimension_tampering_detected() {
        let mut bytes = encode(&model());
        // Inflate the user count (first payload u32, after magic + tag).
        bytes[9] = bytes[9].wrapping_add(1);
        assert!(matches!(
            decode(&bytes),
            Err(DecodeError::LengthMismatch | DecodeError::BadChecksum)
        ));
    }

    #[test]
    fn wrong_tag_detected() {
        let m = fitted_most_read();
        let bytes = m.to_bytes();
        // Same container, different model type.
        let err = BprModel::from_bytes(&bytes).unwrap_err();
        assert_eq!(
            err,
            DecodeError::WrongModel {
                expected: BprModel::TAG,
                found: MostReadItems::TAG
            }
        );
        assert!(err.to_string().contains("tag mismatch"));
    }

    #[test]
    fn peek_tag_identifies_kind() {
        assert_eq!(peek_tag(&encode(&model())), Some(BprModel::TAG));
        assert_eq!(
            peek_tag(&fitted_most_read().to_bytes()),
            Some(MostReadItems::TAG)
        );
        assert_eq!(peek_tag(b"short"), None);
        assert_eq!(peek_tag(&encode_legacy(&model())), None);
    }

    #[test]
    fn empty_model_round_trips() {
        let m = BprModel {
            user_factors: DenseMatrix::zeros(0, 3),
            item_factors: DenseMatrix::zeros(0, 3),
        };
        let back = decode(&encode(&m)).unwrap();
        assert_eq!(back.user_factors.rows(), 0);
        assert_eq!(back.item_factors.cols(), 3);
    }

    fn fitted_most_read() -> MostReadItems {
        use crate::Recommender;
        use rm_dataset::ids::{BookIdx, UserIdx};
        use rm_dataset::interactions::Interactions;
        let train = Interactions::from_pairs(
            3,
            5,
            &[
                (UserIdx(0), BookIdx(0)),
                (UserIdx(1), BookIdx(0)),
                (UserIdx(2), BookIdx(3)),
            ],
        );
        let mut m = MostReadItems::new();
        m.fit(&train);
        m
    }

    #[test]
    fn most_read_round_trip_preserves_order_and_counts() {
        use rm_dataset::ids::BookIdx;
        let m = fitted_most_read();
        let back = MostReadItems::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back.counts(), m.counts());
        assert_eq!(back.count(BookIdx(0)), 2);
        assert_eq!(back.popularity_order(), m.popularity_order());
    }

    #[test]
    fn embedding_store_round_trip_is_exact() {
        let mut rng = rng_from_seed(9);
        let store = EmbeddingStore::from_matrix(DenseMatrix::gaussian(6, 5, 1.0, &mut rng));
        let back = EmbeddingStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(back.len(), store.len());
        assert_eq!(back.dim(), store.dim());
        for i in 0..store.len() {
            assert_eq!(back.embedding(i), store.embedding(i), "row {i}");
        }
    }

    proptest::proptest! {
        #[test]
        fn round_trip_arbitrary_dims(
            users in 0usize..12,
            books in 0usize..12,
            factors in 1usize..6,
            seed in 0u64..1000,
        ) {
            let mut rng = rng_from_seed(seed);
            let m = BprModel {
                user_factors: DenseMatrix::gaussian(users, factors, 0.5, &mut rng),
                item_factors: DenseMatrix::gaussian(books, factors, 0.5, &mut rng),
            };
            let back = decode(&encode(&m)).unwrap();
            proptest::prop_assert_eq!(m, back);
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..256)) {
            // Decoding garbage must fail cleanly, never panic.
            let _ = decode(&bytes);
            let _ = MostReadItems::from_bytes(&bytes);
            let _ = EmbeddingStore::from_bytes(&bytes);
            let _ = AnnArtifact::from_bytes(&bytes);
        }

        #[test]
        fn bit_flips_never_round_trip_silently(
            seed in 0u64..500,
            flip_bit in 0usize..64,
        ) {
            // Flipping any single bit must either fail to decode or (for
            // a flip inside the checksum trailer caught by the checksum)
            // never produce a *different* model silently.
            let mut rng = rng_from_seed(seed);
            let m = BprModel {
                user_factors: DenseMatrix::gaussian(3, 2, 0.5, &mut rng),
                item_factors: DenseMatrix::gaussian(4, 2, 0.5, &mut rng),
            };
            let mut bytes = encode(&m);
            let pos = flip_bit % (bytes.len() * 8);
            bytes[pos / 8] ^= 1 << (pos % 8);
            proptest::prop_assert!(decode(&bytes).is_err(), "bit {pos} survived");
        }
    }

    fn ann_artifact() -> AnnArtifact {
        use rm_embed::{IvfConfig, IvfIndex};
        let mut rng = rng_from_seed(17);
        let store = EmbeddingStore::from_matrix(DenseMatrix::gaussian(40, 6, 1.0, &mut rng));
        let factors = DenseMatrix::gaussian(40, 4, 0.5, &mut rng);
        let cfg = IvfConfig {
            nlist: 5,
            iters: 3,
            seed: 2,
            train_sample: 0,
        };
        AnnArtifact {
            content: Some(IvfIndex::build(&store, &cfg)),
            cf: Some(IvfIndex::build_mips(&factors, &cfg)),
        }
    }

    #[test]
    fn ann_artifact_round_trip_is_exact() {
        let a = ann_artifact();
        let back = AnnArtifact::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(back, a);
        // Either half may be absent.
        let content_only = AnnArtifact {
            cf: None,
            ..a.clone()
        };
        assert_eq!(
            AnnArtifact::from_bytes(&content_only.to_bytes()).unwrap(),
            content_only
        );
        let empty = AnnArtifact {
            content: None,
            cf: None,
        };
        assert_eq!(AnnArtifact::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn ann_artifact_encoding_is_deterministic() {
        assert_eq!(ann_artifact().to_bytes(), ann_artifact().to_bytes());
    }

    #[test]
    fn ann_artifact_wrong_tag_detected() {
        let err = AnnArtifact::from_bytes(&encode(&model())).unwrap_err();
        assert_eq!(
            err,
            DecodeError::WrongModel {
                expected: AnnArtifact::TAG,
                found: BprModel::TAG
            }
        );
    }

    #[test]
    fn ann_artifact_corruption_detected() {
        let mut bytes = ann_artifact().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert_eq!(
            AnnArtifact::from_bytes(&bytes),
            Err(DecodeError::BadChecksum)
        );
    }

    #[test]
    fn ann_artifact_forged_partition_detected() {
        // A payload that *passes* the checksum but violates the
        // partition invariant must still fail: bump the final item id
        // (making it a duplicate of an id in another list, or out of
        // range) and re-sign the container.
        let mut bytes = ann_artifact().to_bytes();
        let body_end = bytes.len() - 8;
        let at = body_end - 4;
        let v = u32::from_le_bytes(bytes[at..body_end].try_into().unwrap()) + 1;
        bytes[at..body_end].copy_from_slice(&v.to_le_bytes());
        let checksum = fnv64(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            AnnArtifact::from_bytes(&bytes),
            Err(DecodeError::LengthMismatch)
        );
    }

    #[test]
    fn display_messages() {
        assert!(DecodeError::BadMagic.to_string().contains("magic"));
        assert!(DecodeError::BadChecksum.to_string().contains("checksum"));
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("rm-persist-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.rmodel");

        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer payload");

        // No .tmp sibling survives a successful publication.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_into_missing_dir_fails_cleanly() {
        let path = std::path::Path::new("/nonexistent/rm-persist-nowhere/m.rmodel");
        assert!(write_atomic(path, b"x").is_err());
    }
}
