//! Pins the absolute wire bytes of every message.
//!
//! The round-trip and re-encode property tests only check that each codec
//! agrees with itself, so they keep passing after a consistent reordering
//! or retyping of a schema. Field order and field types *are* the wire
//! format, though: they fix the sizes in the baked cost table, and through
//! it every simulated PCT. These tests catch any such change.

use neutrino_codec::CodecKind;
use neutrino_messages::costs::{state_sync_cost, CostTable};
use neutrino_messages::state::UeState;
use neutrino_messages::{MessageKind, Wire};

/// FNV-1a (64-bit) over every sample encoding below, computed before the
/// message declarations were last restructured. Never regenerate this to
/// make a refactor pass: a mismatch means the bytes on the wire changed.
const PINNED_DIGEST: u64 = 0xeceecd96ff9ea98b;

/// Sample seeds covered per message kind.
const SEEDS: u64 = 32;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-prefixed, so adjacent encodings cannot alias.
    fn frame(&mut self, bytes: &[u8]) {
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }
}

fn encode_kind(kind: MessageKind, seed: u64, codec: CodecKind) -> Option<Vec<u8>> {
    let c = codec.instance();
    if !c.supports(&kind.schema()) {
        return None;
    }
    let mut buf = Vec::new();
    kind.sample(seed).encode(c.as_ref(), &mut buf).unwrap();
    Some(buf)
}

fn encode_state(seed: u64, codec: CodecKind) -> Option<Vec<u8>> {
    let c = codec.instance();
    if !c.supports(&UeState::schema()) {
        return None;
    }
    let mut buf = Vec::new();
    UeState::sample(seed).encode(c.as_ref(), &mut buf).unwrap();
    Some(buf)
}

#[test]
fn sample_encodings_match_the_pinned_digest() {
    let mut h = Fnv1a::new();
    for codec in CodecKind::ALL {
        h.write(codec.name().as_bytes());
        for &kind in MessageKind::ALL {
            h.write(kind.name().as_bytes());
            for seed in 0..SEEDS {
                if let Some(buf) = encode_kind(kind, seed, codec) {
                    h.frame(&buf);
                }
            }
        }
        h.write(b"UeState");
        for seed in 0..SEEDS {
            if let Some(buf) = encode_state(seed, codec) {
                h.frame(&buf);
            }
        }
    }
    assert_eq!(
        h.0, PINNED_DIGEST,
        "wire bytes changed: digest {:#018x}",
        h.0
    );
}

/// The baked table claims its `wire_bytes` column is the encoded size of
/// `kind.sample(1)`; hold it to that.
#[test]
fn baked_wire_bytes_match_sample_encodings() {
    let baked = CostTable::baked();
    let codecs = [
        CodecKind::Asn1Per,
        CodecKind::Fastbuf,
        CodecKind::FastbufOptimized,
    ];
    assert_eq!(baked.len(), codecs.len() * MessageKind::ALL.len());
    let mut mismatches = Vec::new();
    for codec in codecs {
        for &kind in MessageKind::ALL {
            let row = baked.get(codec, kind).expect("baked row present");
            let len = encode_kind(kind, 1, codec)
                .expect("codec supports kind")
                .len();
            if row.wire_bytes != len {
                mismatches.push(format!("{codec}/{kind}: baked {} vs {len}", row.wire_bytes));
            }
        }
        let len = encode_state(1, codec)
            .expect("codec supports UeState")
            .len();
        assert_eq!(
            state_sync_cost(codec).wire_bytes,
            len,
            "{codec}: state_sync_cost wire_bytes vs UeState::sample(1)"
        );
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
