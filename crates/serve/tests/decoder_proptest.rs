//! Property: every decoder the artifact registry reads fails cleanly,
//! never panics, on bytes it never wrote — the five model tags
//! (0x01–0x05) and the manifest.
//!
//! Arbitrary bytes rarely get past a container's magic and checksum, so
//! each tag's payload decoder also runs on its own, over arbitrary bytes
//! and over small plausible headers: payloads made mostly of counts below
//! four and of floats a factor or embedding row could hold, so their
//! declared dimensions often match the body and decoding reaches the
//! checks past the length equation. Each such payload is also decoded
//! inside a checksum-valid container, which must change nothing. Two
//! checksum-valid artifacts whose declared dimensions overflow a byte
//! count are named regression cases, decoded directly and through a
//! registry load.

use proptest::collection::vec;
use proptest::num;
use proptest::{prop_assert_eq, proptest};
use rm_core::bpr::BprModel;
use rm_core::most_read::MostReadItems;
use rm_core::persist::{DecodeError, PersistModel};
use rm_core::quant::QuantArtifact;
use rm_dataset::summary::SummaryFields;
use rm_embed::{AnnArtifact, EmbeddingStore};
use rm_serve::registry::{
    ArtifactRegistry, Manifest, SlotError, BPR_FILE, EMBEDDINGS_FILE, MANIFEST_FILE,
};

mod common;
use common::{fnv64, unique_dir};

type Decode = fn(&[u8]) -> Result<(), DecodeError>;

/// One tag the registry reads: its byte, its payload decoder and its
/// container decoder.
struct Codec {
    tag: u8,
    payload: Decode,
    container: Decode,
}

fn codec<M: PersistModel>() -> Codec {
    Codec {
        tag: M::TAG,
        payload: |payload| M::decode_payload(payload).map(drop),
        container: |bytes| M::from_bytes(bytes).map(drop),
    }
}

/// Every model tag the registry reads, in tag order.
fn codecs() -> [Codec; 5] {
    [
        codec::<BprModel>(),
        codec::<MostReadItems>(),
        codec::<EmbeddingStore>(),
        codec::<AnnArtifact>(),
        codec::<QuantArtifact>(),
    ]
}

/// `payload` in a checksum-valid container under `tag`: what
/// `PersistModel::to_bytes` writes around a payload.
fn container(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut bytes = b"RMODEL\0\x02".to_vec();
    bytes.push(tag);
    bytes.extend_from_slice(payload);
    let sum = fnv64(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Little-endian `u32` words.
fn words(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// A plausible payload: three words in five are a count below four, one
/// a float a factor or embedding row could hold, one any bits; `cut`
/// trailing bytes are dropped, so lengths need not be whole words.
fn plausible((raw, cut): &(Vec<(u8, u32)>, usize)) -> Vec<u8> {
    const FLOATS: [f32; 6] = [0.0, 1.0, -1.0, 0.5, 0.6, 0.8];
    let raw: Vec<u32> = raw
        .iter()
        .map(|&(pick, bits)| match pick {
            0..=2 => bits % 4,
            3 => FLOATS[bits as usize % FLOATS.len()].to_bits(),
            _ => bits,
        })
        .collect();
    let mut bytes = words(&raw);
    bytes.truncate(bytes.len().saturating_sub(*cut));
    bytes
}

proptest! {
    #[test]
    fn every_decoder_survives_arbitrary_bytes(bytes in vec(num::u8::ANY, 0..512)) {
        for codec in codecs() {
            let _ = (codec.container)(&bytes);
            prop_assert_eq!(
                (codec.payload)(&bytes).is_ok(),
                (codec.container)(&container(codec.tag, &bytes)).is_ok()
            );
        }
    }

    #[test]
    fn payload_decoders_survive_small_plausible_headers(
        payloads in vec((vec((0u8..5, num::u32::ANY), 0..24), 0usize..4), 256),
    ) {
        for payload in payloads.iter().map(plausible) {
            for codec in codecs() {
                prop_assert_eq!(
                    (codec.payload)(&payload).is_ok(),
                    (codec.container)(&container(codec.tag, &payload)).is_ok()
                );
            }
        }
    }

    #[test]
    fn manifest_parse_survives_arbitrary_text(
        text in "[ -~\n\té€]{0,120}",
        lines in vec((0usize..4, "[0-9 a-]{0,12}"), 0..5),
    ) {
        // Lines under the header `Manifest::render` writes.
        let keys = ["epoch", "fields", "notes", ""];
        let plausible = lines.iter().fold("rm-serve-manifest 1".to_owned(), |text, (key, value)| {
            format!("{text}\n{} {value}", keys[*key])
        });
        for text in [text, plausible] {
            if let Ok(manifest) = Manifest::parse(&text) {
                prop_assert_eq!(Manifest::parse(&manifest.render()).ok(), Some(manifest));
            }
        }
    }
}

/// A BPR payload of 2^31 users, no books and 2^31 factors, and an
/// embeddings payload of 2^31 rows of dimension 2^31, each with no body:
/// four bytes per declared value wrap to a byte count of 0, which the
/// empty body once matched. Both must be refused as a length mismatch,
/// decoded directly and when a registry loads them.
#[test]
fn huge_declared_dimensions_are_refused() {
    assert_eq!(codecs().map(|codec| codec.tag), [1, 2, 3, 4, 5]);
    let real = MostReadItems::from_counts(vec![3, 1]).to_bytes();
    assert_eq!(container(2, &real[9..real.len() - 8]), real);

    let big = 1 << 31;
    let bpr = container(BprModel::TAG, &words(&[big, 0, big]));
    let embeddings = container(EmbeddingStore::TAG, &words(&[big, big]));
    let refused = Some(DecodeError::LengthMismatch);
    assert_eq!(BprModel::from_bytes(&bpr).err(), refused);
    assert_eq!(EmbeddingStore::from_bytes(&embeddings).err(), refused);

    let registry = ArtifactRegistry::new(unique_dir("huge-dims"));
    std::fs::create_dir_all(registry.dir()).expect("registry dir");
    let manifest = Manifest {
        epoch: 1,
        fields: SummaryFields::BEST,
    };
    for (file, bytes) in [
        (MANIFEST_FILE, manifest.render().into_bytes()),
        (BPR_FILE, bpr),
        (EMBEDDINGS_FILE, embeddings),
    ] {
        std::fs::write(registry.path_of(file), bytes).expect("write artifact");
    }
    let loaded = registry.load().expect("the manifest parses");
    for (slot, error) in [
        ("bpr", loaded.bpr.err()),
        ("embeddings", loaded.embeddings.err()),
    ] {
        let refused = matches!(error, Some(SlotError::Decode(DecodeError::LengthMismatch)));
        assert!(refused, "{slot}: {error:?}");
    }
    let _ = std::fs::remove_dir_all(registry.dir());
}
