//! The reference kernel: a fixed piece of work timed just before and just
//! after every measured phase, so that host times can be reported relative
//! to how fast the host runs at that moment.
//!
//! On a shared host, neighbours' load stretches the simulator's host time
//! by up to a third for tens of seconds at a time: cache and memory
//! contention, to which a dependent-arithmetic loop is nearly immune. So
//! the kernel mixes the kinds of work the simulator does: dependent
//! arithmetic, random read-modify-writes in an L2-sized and in a
//! larger-than-L2 buffer, small allocations in an ordered map, and records
//! encoded to and decoded from bytes. A host slowdown stretches it about as
//! much as the run around it. It is the benchmark's own code and calls
//! nothing in the program, so any change to the program moves the ratio in
//! full.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Words in the buffer that fits in L2.
const SMALL_WORDS: usize = 1 << 17;
/// Words in the buffer that does not.
const BIG_WORDS: usize = 1 << 21;
/// Multiply-add steps of the arithmetic chain.
const CHAIN_STEPS: u64 = 10_000_000;
/// Read-modify-writes in the small and in the big buffer.
const SMALL_TOUCHES: usize = 4_000_000;
const BIG_TOUCHES: usize = 1_000_000;
/// Entries inserted into, looked up in and dropped with the ordered map.
const MAP_ENTRIES: u64 = 40_000;
/// Records built, encoded and decoded.
const RECORDS: u64 = 100_000;

/// The kernel and its two buffers, allocated and touched once.
pub struct Reference {
    small: Vec<u64>,
    big: Vec<u64>,
}

impl Reference {
    /// Resident size of the two buffers, MB: `peak_rss_mb` leaves it out.
    pub const BUFFERS_MB: f64 = ((SMALL_WORDS + BIG_WORDS) * 8) as f64 / (1024.0 * 1024.0);

    /// Allocates and touches the buffers.
    pub fn new() -> Reference {
        Reference {
            small: vec![1; SMALL_WORDS],
            big: vec![1; BIG_WORDS],
        }
    }

    /// Host seconds one run of the kernel takes now.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.work());
        t.elapsed().as_secs_f64()
    }

    /// The same work on every call: the access pattern never depends on
    /// the buffers' contents.
    fn work(&mut self) -> u64 {
        chain(CHAIN_STEPS)
            ^ scatter(&mut self.small, SMALL_TOUCHES)
            ^ scatter(&mut self.big, BIG_TOUCHES)
            ^ map_churn(MAP_ENTRIES)
            ^ codec_churn(RECORDS)
            ^ tidy()
    }
}

/// One allocation above glibc's fast-bin sizes: glibc merges the small
/// chunks freed above at the first such request, and without this one that
/// would be the next set-up's first allocation, adding milliseconds to half
/// of `attach-flood`'s 2 ms set-ups.
fn tidy() -> u64 {
    black_box(Vec::<u8>::with_capacity(4096)).capacity() as u64
}

const MUL: u64 = 6_364_136_223_846_793_005;
const ADD: u64 = 1_442_695_040_888_963_407;

fn chain(steps: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..black_box(steps) {
        x = x.wrapping_mul(MUL).wrapping_add(i ^ (x >> 7));
    }
    x
}

fn scatter(buf: &mut [u64], touches: usize) -> u64 {
    let mask = buf.len() - 1;
    let (mut x, mut sum) = (1u64, 0u64);
    for _ in 0..touches {
        x = x.wrapping_mul(MUL).wrapping_add(ADD);
        let i = (x >> 32) as usize & mask;
        sum = sum.wrapping_add(buf[i]);
        buf[i] = sum;
    }
    sum
}

fn map_churn(entries: u64) -> u64 {
    let key = |x: &mut u64| {
        *x = x.wrapping_mul(MUL).wrapping_add(ADD);
        *x >> 20
    };
    let mut map = BTreeMap::new();
    let mut x = 7u64;
    for i in 0..entries {
        map.insert(key(&mut x), vec![i as u8; 48]);
    }
    let mut y = 7u64;
    (0..entries).fold(map.len() as u64, |sum, _| {
        sum.wrapping_add(map.get(&key(&mut y)).map_or(0, |v| v.len() as u64))
    })
}

/// A record with the shape of a small protocol message.
struct Record {
    id: u64,
    seq: u32,
    tag: u8,
    name: Vec<u8>,
    refs: Vec<u64>,
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = buf[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

fn encode(r: &Record, out: &mut Vec<u8>) {
    out.clear();
    put_varint(out, r.id);
    put_varint(out, u64::from(r.seq));
    out.push(r.tag);
    put_varint(out, r.name.len() as u64);
    out.extend_from_slice(&r.name);
    put_varint(out, r.refs.len() as u64);
    for &x in &r.refs {
        put_varint(out, x);
    }
}

fn decode(buf: &[u8]) -> Record {
    let mut pos = 0;
    let id = get_varint(buf, &mut pos);
    let seq = get_varint(buf, &mut pos) as u32;
    let tag = buf[pos];
    pos += 1;
    let n = get_varint(buf, &mut pos) as usize;
    let name = buf[pos..pos + n].to_vec();
    pos += n;
    let refs = (0..get_varint(buf, &mut pos))
        .map(|_| get_varint(buf, &mut pos))
        .collect();
    Record {
        id,
        seq,
        tag,
        name,
        refs,
    }
}

fn codec_churn(records: u64) -> u64 {
    let mut buf = Vec::new();
    let mut x = 3u64;
    (0..records).fold(0u64, |sum, i| {
        x = x.wrapping_mul(MUL).wrapping_add(ADD);
        let r = Record {
            id: x >> (x % 60),
            seq: (x >> 13) as u32,
            tag: (i % 7) as u8,
            name: vec![b'n'; (x % 24) as usize],
            refs: (0..x % 5).map(|j| x >> (j * 9)).collect(),
        };
        encode(&r, &mut buf);
        let d = decode(&buf);
        sum.wrapping_add(d.id ^ u64::from(d.seq) ^ u64::from(d.tag))
            .wrapping_add((d.name.len() + d.refs.len()) as u64)
    })
}
