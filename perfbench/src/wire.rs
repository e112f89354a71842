//! The `wire-roundtrip` workload: `SysMsg` traffic captured from a
//! simulated run, round-tripped through `neutrino-net`'s framing.

use neutrino_codec::CodecKind;
use neutrino_core::SimMsg;
use neutrino_messages::SysMsg;
use neutrino_net::framing::{decode_sysmsg, encode_sysmsg};
use neutrino_netsim::DeliveryTap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant as HostInstant;

/// The two codecs compared in §4.1, with their metric names.
pub const CODECS: [(CodecKind, &str); 2] = [
    (CodecKind::FastbufOptimized, "fastbuf-opt"),
    (CodecKind::Asn1Per, "asn1-per"),
];

/// A delivery tap that keeps a copy of every delivered `SysMsg`.
pub fn capture_tap(into: Arc<Mutex<Vec<SysMsg>>>) -> DeliveryTap<SimMsg> {
    Box::new(move |_, _, msg| {
        if let SimMsg::Sys(sys) = msg {
            into.lock()
                .expect("capture is never poisoned")
                .push(sys.clone());
        }
    })
}

/// Whether `frame` decodes with `codec` to exactly `msg`: the wire gate.
pub fn frame_matches(msg: &SysMsg, codec: CodecKind, frame: &[u8]) -> bool {
    matches!(decode_sysmsg(frame, codec), Ok(decoded) if decoded == *msg)
}

/// Encodes and decodes every frame in both codecs, one codec after the
/// other, and checks `decode(encode(m)) == m` for each: the measured phase
/// of `wire-roundtrip` and its wire gate. Returns the failed round trips
/// and, per codec, the total frame bytes.
pub fn verify(frames: &[SysMsg]) -> (u64, [u64; 2]) {
    let mut failed = 0;
    let mut bytes = [0u64; 2];
    let mut buf = Vec::new();
    for (i, (codec, _)) in CODECS.iter().enumerate() {
        for msg in frames {
            if encode_sysmsg(msg, *codec, &mut buf).is_err() || !frame_matches(msg, *codec, &buf) {
                failed += 1;
            }
            bytes[i] += buf.len() as u64;
        }
    }
    (failed, bytes)
}

/// Per codec, host nanoseconds per frame to encode and to decode, timed
/// as separate passes over `frames`.
pub fn split_ns(frames: &[SysMsg]) -> [(f64, f64); 2] {
    let mut out = [(0.0, 0.0); 2];
    let mut buf = Vec::new();
    for (i, (codec, _)) in CODECS.iter().enumerate() {
        let t = HostInstant::now();
        for m in frames {
            encode_sysmsg(black_box(m), *codec, &mut buf).expect("verified frames encode");
            black_box(&buf);
        }
        let enc = t.elapsed().as_nanos() as f64;
        let encoded: Vec<Vec<u8>> = frames
            .iter()
            .map(|m| {
                encode_sysmsg(m, *codec, &mut buf).expect("verified frames encode");
                buf.clone()
            })
            .collect();
        let t = HostInstant::now();
        for f in &encoded {
            black_box(decode_sysmsg(black_box(f), *codec).expect("verified frames decode"));
        }
        let dec = t.elapsed().as_nanos() as f64;
        let n = frames.len().max(1) as f64;
        out[i] = (enc / n, dec / n);
    }
    out
}
