//! Point-to-point link model: latency/jitter plus an optional seeded
//! fault layer (loss, duplication, bounded reorder, timed partitions).

use crate::engine::NodeId;
use neutrino_common::time::{Duration, Instant};
use std::collections::HashMap;

/// Propagation characteristics of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Base one-way propagation delay.
    pub latency: Duration,
    /// Maximum additional deterministic jitter (uniform in `0..=jitter`).
    pub jitter: Duration,
}

impl LinkSpec {
    /// A link with fixed latency and no jitter.
    pub const fn fixed(latency: Duration) -> Self {
        LinkSpec {
            latency,
            jitter: Duration::ZERO,
        }
    }
}

/// Stochastic fault model of one directed link. Probabilities are drawn
/// from the same stateless splittable-seed hash as jitter (keyed on the
/// link sequence number), so a faulty run replays byte-identically under
/// any worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability in `[0, 1]` that a transmission is silently dropped.
    pub loss: f64,
    /// Probability in `[0, 1]` that a transmission is delivered twice.
    pub duplicate: f64,
    /// Probability in `[0, 1]` that a transmission is held back by up to
    /// [`FaultSpec::reorder_window`] extra delay (overtaken by later sends).
    pub reorder: f64,
    /// Maximum extra delay for reordered (and duplicated) transmissions.
    pub reorder_window: Duration,
}

impl FaultSpec {
    /// A fault-free link: every probability zero.
    pub const NONE: FaultSpec = FaultSpec {
        loss: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        reorder_window: Duration::ZERO,
    };

    /// Whether this spec can never perturb a transmission.
    pub fn is_none(&self) -> bool {
        self.loss <= 0.0 && self.duplicate <= 0.0 && self.reorder <= 0.0
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::NONE
    }
}

/// A timed bidirectional partition: no traffic passes between `a` and `b`
/// (either direction) in `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Partition {
    a: NodeId,
    b: NodeId,
    from: Instant,
    until: Instant,
}

/// The fate of one transmission after the fault layer has spoken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered. `delay` includes jitter and any reorder hold-back;
    /// `duplicate` carries the (independent) delay of a second copy.
    Deliver {
        /// Link delay of the primary copy.
        delay: Duration,
        /// Delay of the duplicated copy, when the duplication draw hit.
        duplicate: Option<Duration>,
        /// Whether the reorder draw hit (the primary delay was inflated).
        reordered: bool,
    },
    /// Dropped by the loss probability.
    Lost,
    /// Dropped because the pair is inside a partition window.
    Partitioned,
}

/// Deterministic multiply-rotate hasher (FxHash-style) for the override
/// maps: `(NodeId, NodeId)` lookups sit on the per-send hot path, where
/// SipHash's per-lookup setup cost dominates. Not DoS-resistant — keys
/// are simulation node ids, not attacker-controlled input — and fully
/// deterministic across runs and platforms (no ambient seeding).
#[derive(Debug, Clone, Copy, Default)]
struct FxBuildHasher;

#[derive(Default)]
struct FxHasher(u64);

const FX_KEY: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(FX_KEY);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
}

impl std::hash::BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;
    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher(0)
    }
}

// Per-draw-type salts keep the loss/dup/reorder streams independent of
// each other and of the jitter stream (salt 0).
const SALT_LOSS: u64 = 0xA24B_AED4_963E_E407;
const SALT_DUP: u64 = 0x9FB2_1C65_1E98_DF25;
const SALT_REORDER: u64 = 0xD6E8_FEB8_6659_FD93;
const SALT_REORDER_DELAY: u64 = 0x3C79_AC49_2BA7_B653;
const SALT_DUP_DELAY: u64 = 0x1D8E_4E27_C47D_124F;

/// The link table: explicit per-pair entries over a default.
#[derive(Debug, Clone)]
pub struct Links {
    default: LinkSpec,
    // Directed overrides; lookups fall back to the default.
    overrides: HashMap<(NodeId, NodeId), LinkSpec, FxBuildHasher>,
    // Mixed into the jitter hash; seed 0 reproduces the unseeded stream.
    seed: u64,
    // Fault layer: default spec, directed overrides, partition windows.
    fault_default: FaultSpec,
    fault_overrides: HashMap<(NodeId, NodeId), FaultSpec, FxBuildHasher>,
    partitions: Vec<Partition>,
}

impl Links {
    /// All pairs use `default` unless overridden.
    pub fn with_default(default: LinkSpec) -> Self {
        Links {
            default,
            overrides: HashMap::default(),
            seed: 0,
            fault_default: FaultSpec::NONE,
            fault_overrides: HashMap::default(),
            partitions: Vec::new(),
        }
    }

    /// Sets the jitter seed: runs with the same seed replay identical
    /// delays; different seeds re-roll every jittered link draw.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Sets a directed override.
    pub fn set(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) {
        self.overrides.insert((from, to), spec);
    }

    /// Sets a symmetric override.
    pub fn set_symmetric(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.set(a, b, spec);
        self.set(b, a, spec);
    }

    /// The spec for a directed pair.
    pub fn get(&self, from: NodeId, to: NodeId) -> LinkSpec {
        // Uniform topologies (single-region figures, the ring bench) keep
        // the override map empty: skip the hash entirely.
        if self.overrides.is_empty() {
            return self.default;
        }
        self.overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default)
    }

    /// Sets the default fault spec applied to every pair without an
    /// override.
    pub fn set_fault_default(&mut self, spec: FaultSpec) {
        self.fault_default = spec;
    }

    /// Sets a directed fault override.
    pub fn set_fault(&mut self, from: NodeId, to: NodeId, spec: FaultSpec) {
        self.fault_overrides.insert((from, to), spec);
    }

    /// Sets a symmetric fault override.
    pub fn set_fault_symmetric(&mut self, a: NodeId, b: NodeId, spec: FaultSpec) {
        self.fault_overrides.insert((a, b), spec);
        self.fault_overrides.insert((b, a), spec);
    }

    /// Adds a bidirectional partition between `a` and `b`: every
    /// transmission in either direction is dropped in `[from, until)`.
    pub fn add_partition(&mut self, a: NodeId, b: NodeId, from: Instant, until: Instant) {
        self.partitions.push(Partition { a, b, from, until });
    }

    /// The fault spec for a directed pair.
    pub fn fault_for(&self, from: NodeId, to: NodeId) -> FaultSpec {
        if self.fault_overrides.is_empty() {
            return self.fault_default;
        }
        self.fault_overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.fault_default)
    }

    /// Whether `(from, to)` is inside a partition window at `now`.
    pub fn partitioned(&self, from: NodeId, to: NodeId, now: Instant) -> bool {
        self.partitions.iter().any(|p| {
            ((p.a == from && p.b == to) || (p.a == to && p.b == from))
                && now >= p.from
                && now < p.until
        })
    }

    /// splitmix64 over the transmission tuple plus a per-draw-type salt:
    /// stateless, splittable, replay-identical streams.
    fn mix(&self, from: NodeId, to: NodeId, sequence: u64, salt: u64) -> u64 {
        let mut x =
            from.raw() ^ to.raw().rotate_left(21) ^ sequence.rotate_left(42) ^ self.seed ^ salt;
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Bernoulli draw at probability `p` for this transmission and salt.
    fn hit(&self, from: NodeId, to: NodeId, sequence: u64, salt: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        // Top 53 bits → uniform in [0, 1).
        let u = (self.mix(from, to, sequence, salt) >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// Uniform draw in `0..=max` nanoseconds for this transmission and salt.
    fn uniform(&self, from: NodeId, to: NodeId, sequence: u64, salt: u64, max: Duration) -> Duration {
        if max == Duration::ZERO {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.mix(from, to, sequence, salt) % (max.as_nanos() + 1))
    }

    /// Samples the delay of one transmission, with deterministic jitter
    /// derived from `(from, to, sequence)` so traces replay identically.
    pub fn sample_delay(&self, from: NodeId, to: NodeId, sequence: u64) -> Duration {
        let spec = self.get(from, to);
        if spec.jitter == Duration::ZERO {
            return spec.latency;
        }
        spec.latency + self.uniform(from, to, sequence, 0, spec.jitter)
    }

    /// Decides the fate of one transmission: partition check, loss draw,
    /// then delay (jitter + optional reorder hold-back) and an optional
    /// duplicate copy. With no faults configured this reduces exactly to
    /// [`Links::sample_delay`], so fault-free runs are byte-identical to
    /// the pre-fault-layer engine.
    pub fn plan_delivery(
        &self,
        from: NodeId,
        to: NodeId,
        sequence: u64,
        now: Instant,
    ) -> Delivery {
        // Fast path: no fault layer configured anywhere — the common case
        // for throughput figures — costs one `is_empty`/`is_none` cascade
        // and no hash lookups.
        if self.fault_overrides.is_empty()
            && self.partitions.is_empty()
            && self.fault_default.is_none()
        {
            return Delivery::Deliver {
                delay: self.sample_delay(from, to, sequence),
                duplicate: None,
                reordered: false,
            };
        }
        let delay = self.sample_delay(from, to, sequence);
        let fault = self.fault_for(from, to);
        if fault.is_none() && self.partitions.is_empty() {
            return Delivery::Deliver {
                delay,
                duplicate: None,
                reordered: false,
            };
        }
        if self.partitioned(from, to, now) {
            return Delivery::Partitioned;
        }
        if self.hit(from, to, sequence, SALT_LOSS, fault.loss) {
            return Delivery::Lost;
        }
        let reordered = self.hit(from, to, sequence, SALT_REORDER, fault.reorder);
        let delay = if reordered {
            delay + self.uniform(from, to, sequence, SALT_REORDER_DELAY, fault.reorder_window)
        } else {
            delay
        };
        let duplicate = if self.hit(from, to, sequence, SALT_DUP, fault.duplicate) {
            Some(
                self.sample_delay(from, to, sequence)
                    + self.uniform(from, to, sequence, SALT_DUP_DELAY, fault.reorder_window),
            )
        } else {
            None
        };
        Delivery::Deliver {
            delay,
            duplicate,
            reordered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_overrides() {
        let mut links = Links::with_default(LinkSpec::fixed(Duration::from_micros(50)));
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        assert_eq!(links.get(a, b).latency, Duration::from_micros(50));
        links.set(a, b, LinkSpec::fixed(Duration::from_millis(2)));
        assert_eq!(links.get(a, b).latency, Duration::from_millis(2));
        // Directed: reverse still default.
        assert_eq!(links.get(b, a).latency, Duration::from_micros(50));
    }

    #[test]
    fn symmetric_override() {
        let mut links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        links.set_symmetric(a, b, LinkSpec::fixed(Duration::from_millis(1)));
        assert_eq!(links.get(a, b), links.get(b, a));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mut links = Links::with_default(LinkSpec {
            latency: Duration::from_micros(100),
            jitter: Duration::from_micros(20),
        });
        links.set(
            NodeId::new(3),
            NodeId::new(4),
            LinkSpec {
                latency: Duration::from_micros(100),
                jitter: Duration::from_micros(20),
            },
        );
        let a = NodeId::new(3);
        let b = NodeId::new(4);
        let mut distinct = std::collections::HashSet::new();
        for seq in 0..100 {
            let d1 = links.sample_delay(a, b, seq);
            let d2 = links.sample_delay(a, b, seq);
            assert_eq!(d1, d2, "same sequence must give same jitter");
            assert!(d1 >= Duration::from_micros(100));
            assert!(d1 <= Duration::from_micros(120));
            distinct.insert(d1.as_nanos());
        }
        assert!(distinct.len() > 10, "jitter should actually vary");
    }

    #[test]
    fn seed_reshuffles_jitter_but_zero_matches_unseeded() {
        let spec = LinkSpec {
            latency: Duration::from_micros(100),
            jitter: Duration::from_micros(50),
        };
        let unseeded = Links::with_default(spec);
        let mut zero = Links::with_default(spec);
        zero.set_seed(0);
        let mut other = Links::with_default(spec);
        other.set_seed(0xDEAD_BEEF);
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        let mut differs = false;
        for seq in 0..100 {
            assert_eq!(
                unseeded.sample_delay(a, b, seq),
                zero.sample_delay(a, b, seq),
                "seed 0 must reproduce the unseeded stream"
            );
            if other.sample_delay(a, b, seq) != unseeded.sample_delay(a, b, seq) {
                differs = true;
            }
        }
        assert!(differs, "a different seed must change the jitter stream");
    }

    #[test]
    fn no_faults_reduces_to_sample_delay() {
        let links = Links::with_default(LinkSpec {
            latency: Duration::from_micros(100),
            jitter: Duration::from_micros(20),
        });
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        for seq in 0..50 {
            assert_eq!(
                links.plan_delivery(a, b, seq, Instant::ZERO),
                Delivery::Deliver {
                    delay: links.sample_delay(a, b, seq),
                    duplicate: None,
                    reordered: false,
                }
            );
        }
    }

    #[test]
    fn fault_draws_are_deterministic_and_roughly_calibrated() {
        let mut links = Links::with_default(LinkSpec::fixed(Duration::from_micros(10)));
        links.set_seed(42);
        links.set_fault_default(FaultSpec {
            loss: 0.10,
            duplicate: 0.10,
            reorder: 0.20,
            reorder_window: Duration::from_micros(50),
        });
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        let (mut lost, mut dup, mut reord) = (0u32, 0u32, 0u32);
        for seq in 0..10_000 {
            let plan = links.plan_delivery(a, b, seq, Instant::ZERO);
            assert_eq!(plan, links.plan_delivery(a, b, seq, Instant::ZERO));
            match plan {
                Delivery::Lost => lost += 1,
                Delivery::Partitioned => panic!("no partitions configured"),
                Delivery::Deliver {
                    delay,
                    duplicate,
                    reordered,
                } => {
                    assert!(delay >= Duration::from_micros(10));
                    assert!(delay <= Duration::from_micros(60));
                    if duplicate.is_some() {
                        dup += 1;
                    }
                    if reordered {
                        reord += 1;
                    }
                }
            }
        }
        // 10k draws; dup/reorder only counted on delivered transmissions,
        // so their expectations are scaled by the 0.9 survival rate.
        assert!((900..1100).contains(&lost), "loss rate off: {lost}");
        assert!((800..1000).contains(&dup), "dup rate off: {dup}");
        assert!((1650..1950).contains(&reord), "reorder rate off: {reord}");
    }

    #[test]
    fn fault_seed_reshuffles_draws() {
        let spec = FaultSpec {
            loss: 0.5,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_window: Duration::ZERO,
        };
        let mut x = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        x.set_fault_default(spec);
        let mut y = x.clone();
        y.set_seed(7);
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        let differs = (0..100).any(|seq| {
            x.plan_delivery(a, b, seq, Instant::ZERO) != y.plan_delivery(a, b, seq, Instant::ZERO)
        });
        assert!(differs, "a different seed must change the fault stream");
    }

    #[test]
    fn partitions_are_timed_and_bidirectional() {
        let mut links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let (a, b, c) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));
        links.add_partition(a, b, Instant::from_micros(100), Instant::from_micros(200));
        for (from, to) in [(a, b), (b, a)] {
            assert_eq!(
                links.plan_delivery(from, to, 0, Instant::from_micros(150)),
                Delivery::Partitioned
            );
            assert!(matches!(
                links.plan_delivery(from, to, 0, Instant::from_micros(99)),
                Delivery::Deliver { .. }
            ));
            assert!(matches!(
                links.plan_delivery(from, to, 0, Instant::from_micros(200)),
                Delivery::Deliver { .. }
            ));
        }
        // Unrelated pairs pass through the window untouched.
        assert!(matches!(
            links.plan_delivery(a, c, 0, Instant::from_micros(150)),
            Delivery::Deliver { .. }
        ));
    }

    #[test]
    fn per_link_fault_overrides_win() {
        let mut links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        links.set_fault_default(FaultSpec {
            loss: 1.0,
            ..FaultSpec::NONE
        });
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        links.set_fault_symmetric(a, b, FaultSpec::NONE);
        assert!(matches!(
            links.plan_delivery(a, b, 0, Instant::ZERO),
            Delivery::Deliver { .. }
        ));
        assert!(matches!(
            links.plan_delivery(b, a, 0, Instant::ZERO),
            Delivery::Deliver { .. }
        ));
        assert_eq!(
            links.plan_delivery(a, NodeId::new(3), 0, Instant::ZERO),
            Delivery::Lost
        );
    }

    #[test]
    fn zero_jitter_is_exact() {
        let links = Links::with_default(LinkSpec::fixed(Duration::from_micros(7)));
        for seq in 0..10 {
            assert_eq!(
                links.sample_delay(NodeId::new(1), NodeId::new(2), seq),
                Duration::from_micros(7)
            );
        }
    }
}
