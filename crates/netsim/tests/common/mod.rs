//! The random multi-region walker topology shared by the engine property
//! tests: every node logs each arrival and forwards messages along a
//! deterministic pseudo-random walk, with timer detours, equal-time ties,
//! zero-delay hops and an optional crash/recover mixed into every run.

use neutrino_common::time::{Duration, Instant};
use neutrino_netsim::{LinkSpec, Links, Node, NodeEvent, NodeId, Outbox, Sim};
use proptest::prelude::*;
use std::any::Any;

/// Splitmix step used to derandomize per-hop routing decisions.
fn mix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Logs every arrival and forwards along a pseudo-random walk. The message
/// word packs a TTL in the high bits and a routing state in the low bits,
/// so the walk is a pure function of the injected seeds and the engine's
/// dispatch order. Even-TTL hops detour through a timer, so non-delivery
/// events interleave with deliveries.
pub struct Walker {
    all: Vec<NodeId>,
    service: Duration,
    timer_delay: Duration,
    log: Vec<(NodeId, u64, Instant)>,
    pending: Vec<u64>,
}

const TTL_SHIFT: u32 = 48;

impl Node<u64> for Walker {
    fn service_time(&self, _msg: &u64) -> Duration {
        self.service
    }

    fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
        match event {
            NodeEvent::Message { from, msg } => {
                self.log.push((from, msg, out.now()));
                let ttl = msg >> TTL_SHIFT;
                if ttl == 0 {
                    return;
                }
                let state = mix(msg);
                let next = ((ttl - 1) << TTL_SHIFT) | (state & ((1 << TTL_SHIFT) - 1));
                if ttl.is_multiple_of(2) {
                    self.pending.push(next);
                    out.set_timer(self.timer_delay, next);
                } else {
                    let to = self.all[(state % self.all.len() as u64) as usize];
                    out.send(to, next);
                }
            }
            NodeEvent::Timer { id } => {
                if let Some(pos) = self.pending.iter().position(|&m| m == id) {
                    self.pending.swap_remove(pos);
                    let state = mix(id);
                    let to = self.all[(state % self.all.len() as u64) as usize];
                    out.send(to, id);
                }
            }
            // Self-enqueued recovery work: the node must start serving it
            // without waiting for an external event.
            NodeEvent::Recovered => {
                out.send(self.all[0], 1 << TTL_SHIFT);
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A crash and later recovery of one node: (node index, crash µs, down µs).
pub type Fault = (usize, u64, u64);

/// A generated topology plus its workload schedule.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub region_sizes: Vec<usize>,
    pub intra_us: Vec<u64>,
    pub cross_us: u64,
    pub service_ns: u64,
    pub timer_us: u64,
    /// Seed injections: (time µs, node index, ttl, seed).
    pub injections: Vec<(u64, usize, u64, u64)>,
    pub fault: Option<Fault>,
}

pub fn fault_strategy() -> impl Strategy<Value = Fault> {
    (0usize..64, 100u64..3_000, 1u64..2_000)
}

pub fn scenario_strategy(
    fault: impl Strategy<Value = Option<Fault>>,
) -> impl Strategy<Value = Scenario> {
    (
        (
            proptest::collection::vec(1usize..4, 2..5),
            proptest::collection::vec(1u64..80, 4usize),
            100u64..600,
        ),
        (1u64..5_000, 1u64..400),
        proptest::collection::vec((0u64..2_000, 0usize..64, 1u64..24, any::<u64>()), 1..8),
        fault,
    )
        .prop_map(
            |((region_sizes, intra_us, cross_us), (service_ns, timer_us), injections, fault)| {
                Scenario {
                    region_sizes,
                    intra_us,
                    cross_us,
                    service_ns,
                    timer_us,
                    injections,
                    fault,
                }
            },
        )
}

fn node_ids(region_sizes: &[usize]) -> Vec<(NodeId, usize)> {
    let mut out = Vec::new();
    for (r, &size) in region_sizes.iter().enumerate() {
        for i in 0..size {
            out.push((NodeId::new(1 + r as u64 * 1000 + i as u64), r));
        }
    }
    out
}

pub fn build(sc: &Scenario) -> (Sim<u64>, Vec<NodeId>) {
    let ids = node_ids(&sc.region_sizes);
    let mut links = Links::with_default(LinkSpec::fixed(Duration::from_micros(sc.cross_us)));
    for (a, ra) in &ids {
        for (b, rb) in &ids {
            if a != b && ra == rb {
                links.set(
                    *a,
                    *b,
                    LinkSpec::fixed(Duration::from_micros(sc.intra_us[*ra])),
                );
            }
        }
    }
    let mut sim = Sim::new(links);
    let all: Vec<NodeId> = ids.iter().map(|(id, _)| *id).collect();
    for (id, _) in &ids {
        sim.add_node(
            *id,
            Box::new(Walker {
                all: all.clone(),
                service: Duration::from_nanos(sc.service_ns),
                timer_delay: Duration::from_micros(sc.timer_us),
                log: Vec::new(),
                pending: Vec::new(),
            }),
        );
    }
    for &(at_us, node, ttl, seed) in &sc.injections {
        let to = all[node % all.len()];
        let msg = (ttl << TTL_SHIFT) | (seed & ((1 << TTL_SHIFT) - 1));
        sim.inject_at(Instant::from_micros(at_us), to, msg);
    }
    if let Some((node, crash_us, down_us)) = sc.fault {
        let victim = all[node % all.len()];
        sim.crash_at(Instant::from_micros(crash_us), victim);
        sim.recover_at(Instant::from_micros(crash_us + down_us), victim);
    }
    (sim, all)
}

/// Per-node engine counters: processed, dropped while down, dropped by a
/// crash, timers fired, and whether the node is up at the end.
pub type NodeCounters = (u64, u64, u64, u64, bool);

/// Everything a run exposes.
#[derive(Debug, PartialEq)]
pub struct Observables {
    /// Per-node arrival logs: (sender, payload, virtual time).
    pub logs: Vec<Vec<(NodeId, u64, Instant)>>,
    pub counters: Vec<NodeCounters>,
    pub now: Instant,
    pub events: u64,
    /// Unroutable, partitioned and lost transmissions.
    pub drops: (u64, u64, u64),
}

pub fn observe(sim: &mut Sim<u64>, all: &[NodeId]) -> Observables {
    let counters = all
        .iter()
        .map(|&id| {
            let s = sim.stats(id).unwrap();
            (
                s.processed,
                s.dropped_down,
                s.dropped_crash,
                s.timers,
                sim.is_up(id),
            )
        })
        .collect();
    let logs = all
        .iter()
        .map(|&id| sim.node_as::<Walker>(id).unwrap().log.clone())
        .collect();
    let st = sim.sim_stats();
    Observables {
        logs,
        counters,
        now: sim.now(),
        events: sim.events_processed(),
        drops: (st.dropped_unroutable, st.dropped_partition, st.dropped_loss),
    }
}

/// Runs through the plain sequential loop in one `run_to_completion`.
pub fn run_plain(sc: &Scenario) -> Observables {
    let (mut sim, all) = build(sc);
    sim.run_to_completion();
    observe(&mut sim, &all)
}
