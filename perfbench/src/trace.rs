//! The traced run: a mirror of `Cluster::build_with_sim` that wraps every
//! node in [`Timed`], so host time splits per role, plus a delivery tap
//! that counts delivered messages per `SysMsg` variant.
//!
//! The mirror lives here because `Sim::add_node` rejects duplicate ids, so
//! the program's cluster cannot be re-wrapped after it is built. The parity
//! gate (traced outcome == untraced outcome) pins the mirror to the
//! original: any drift changes the simulated event stream.

use crate::sim::{extract, stops, workload_of, Outcome};
use crate::workloads::SimInputs;
use neutrino_common::time::{Duration, Instant};
use neutrino_common::CpfId;
use neutrino_core::simnode::{cpf_node, cta_node, upf_node, CpfNode, CtaNode, UpfNode, UEPOP_NODE};
use neutrino_core::uepop::RegionRoute;
use neutrino_core::{SimMsg, UePopulation};
use neutrino_cpf::{CpfConfig, CpfCore, ReplicationMode};
use neutrino_cta::{CtaConfig, CtaCore};
use neutrino_geo::{Deployment, RegionLayout};
use neutrino_messages::flow::{variant_name, FLOWS};
use neutrino_messages::SysMsg;
use neutrino_netsim::{LinkSpec, Links, Node, NodeEvent, Outbox, ShardedSim, SimConfig};
use neutrino_upf::UpfCore;
use std::any::Any;
use std::cell::RefCell;
use std::time::Instant as HostInstant;

/// A timed layer. The four roles time `Node::handle`; the cost model is
/// every `Node::service_time` call, whichever role makes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The UE/BS population (`neutrino_core::uepop`).
    UePop,
    /// Control traffic aggregators.
    Cta,
    /// Control plane functions.
    Cpf,
    /// User plane functions.
    Upf,
    /// The calibrated per-message cost model.
    CostModel,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::UePop,
        Layer::Cta,
        Layer::Cpf,
        Layer::Upf,
        Layer::CostModel,
    ];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::UePop => "uepop",
            Layer::Cta => "cta",
            Layer::Cpf => "cpf",
            Layer::Upf => "upf",
            Layer::CostModel => "costmodel",
        }
    }
}

/// Calls into one layer and the host time they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside them.
    pub nanos: u64,
}

/// What a traced run measured on the host.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Per layer, in [`Layer::ALL`] order.
    pub layers: [Tally; 5],
    /// Host time the engine reports for its `run_until` calls.
    pub sim_wall_s: f64,
    /// Host time around the whole run loop, measured here.
    pub outer_wall_s: f64,
    /// Heap allocations during `run_until`.
    pub allocs: u64,
    /// Delivered messages per `SysMsg` variant, in `FLOWS` order.
    pub delivered_by_variant: Vec<u64>,
}

impl Trace {
    /// Engine self time: engine wall time minus time inside node calls.
    pub fn netsim_self_s(&self) -> f64 {
        self.sim_wall_s
            - self
                .layers
                .iter()
                .map(|t| t.nanos as f64 * 1e-9)
                .sum::<f64>()
    }

    /// Whether the engine's own wall time for its `run_until` calls is
    /// within `tolerance` of the host time measured around the run loop.
    /// Per-layer self times plus [`Trace::netsim_self_s`] equal the engine
    /// wall time by definition, so this is what "the layers add up to the
    /// run" can check; host time a wrapper fails to attribute to its layer
    /// lands in `netsim.self_s` and is not detected.
    pub fn engine_wall_matches_outer(&self, tolerance: f64) -> bool {
        (self.sim_wall_s - self.outer_wall_s).abs() <= tolerance * self.outer_wall_s
    }
}

thread_local! {
    static LAYERS: RefCell<[Tally; 5]> = RefCell::new([Tally::default(); 5]);
    static VARIANTS: RefCell<Vec<u64>> = RefCell::new(vec![0; FLOWS.len()]);
}

fn charge(layer: Layer, since: HostInstant) {
    let nanos = since.elapsed().as_nanos() as u64;
    LAYERS.with(|l| {
        let t = &mut l.borrow_mut()[layer as usize];
        t.calls += 1;
        t.nanos += nanos;
    });
}

fn count_delivery(msg: &SimMsg) {
    if let SimMsg::Sys(sys) = msg {
        let name = variant_name(sys);
        let i = FLOWS
            .iter()
            .position(|f| f.variant == name)
            .expect("every variant has a flow entry");
        VARIANTS.with(|v| v.borrow_mut()[i] += 1);
    }
}

/// A node wrapper that times `handle` per role and `service_time` as the
/// cost model, and delegates everything else, so `node_as::<T>` still
/// reaches the wrapped node.
struct Timed {
    layer: Layer,
    inner: Box<dyn Node<SimMsg>>,
}

fn timed(layer: Layer, inner: impl Node<SimMsg>) -> Box<dyn Node<SimMsg>> {
    Box::new(Timed {
        layer,
        inner: Box::new(inner),
    })
}

impl Node<SimMsg> for Timed {
    fn service_time(&self, msg: &SimMsg) -> Duration {
        let t = HostInstant::now();
        let d = self.inner.service_time(msg);
        charge(Layer::CostModel, t);
        d
    }

    fn handle(&mut self, event: NodeEvent<SimMsg>, out: &mut Outbox<SimMsg>) {
        let t = HostInstant::now();
        self.inner.handle(event, out);
        charge(self.layer, t);
    }

    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.inner.as_any()
    }
}

/// Mirror of `Cluster::build_with_sim` (one shard), every node wrapped.
/// Consumes the arrivals. Keep in step with `crates/neutrino-core`; the
/// parity gate fails when it is not.
pub fn build_traced(inputs: &mut SimInputs) -> (ShardedSim<SimMsg>, Deployment) {
    let config = inputs.config.clone();
    let deployment = Deployment::build(RegionLayout {
        replicas: config.replicas,
        ..RegionLayout::default()
    });

    let profile = inputs.links;
    let mut links = Links::with_default(LinkSpec {
        latency: profile.intra_region,
        jitter: profile.jitter,
    });
    links.set_seed(inputs.link_seed);
    links.set_fault_default(profile.faults);
    let inter = LinkSpec {
        latency: profile.inter_region,
        jitter: profile.jitter,
    };
    for a in deployment.regions() {
        for b in deployment.regions() {
            if a.id == b.id {
                continue;
            }
            for &ca in &a.cpfs {
                for &cb in &b.cpfs {
                    links.set(cpf_node(ca), cpf_node(cb), inter);
                }
                links.set_symmetric(cta_node(b.cta), cpf_node(ca), inter);
            }
        }
    }
    let mut sim = ShardedSim::with_config(links, SimConfig::for_horizon(inputs.horizon), 1);

    let mut uecfg = inputs.uecfg.clone();
    uecfg.codec = config.codec;
    if config.admission.is_some() && uecfg.backoff_base == Duration::ZERO {
        uecfg.backoff_base = Duration::from_millis(50);
    }
    uecfg.routes = deployment
        .regions()
        .iter()
        .map(|r| RegionRoute {
            cta: r.cta,
            bss: r.bss.clone(),
        })
        .collect();
    let workload = workload_of(inputs);
    sim.add_node(
        UEPOP_NODE,
        timed(Layer::UePop, UePopulation::new(uecfg, workload)),
        0,
    );

    for region in deployment.regions() {
        let ring = deployment
            .ring_stack(region.id)
            .expect("regions have rings");
        let cta_cfg = CtaConfig {
            id: region.cta,
            logging: config.logging,
            failover: config.failover,
            ack_timeout: Duration::from_secs(30),
            resync_base: if config.replication == ReplicationMode::None {
                Duration::ZERO
            } else {
                Duration::from_secs(4)
            },
            codec: config.codec,
            admission: config.admission,
        };
        let cta = CtaNode::new(
            CtaCore::new(cta_cfg, ring.clone()),
            config.cpu,
            config.logging,
            Duration::from_secs(5),
        );
        sim.add_node(cta_node(region.cta), timed(Layer::Cta, cta), 0);
        let remote_peers: Vec<_> = deployment
            .level2_siblings(region.id)
            .into_iter()
            .filter_map(|r| deployment.region(r))
            .flat_map(|r| r.cpfs.clone())
            .collect();
        for &cpf in &region.cpfs {
            let cpf_cfg = CpfConfig {
                id: cpf,
                replication: config.replication,
                ring: if config.kind == neutrino_core::SystemKind::Neutrino {
                    Some(ring.clone())
                } else {
                    None
                },
                peers: region.cpfs.clone(),
                remote_peers: remote_peers.clone(),
                upfs: region.upfs.clone(),
                enforce_consistency: config.enforce_consistency,
                home_cta: region.cta,
                parallel_upf: config.parallel_upf,
            };
            let node = CpfNode::new(CpfCore::new(cpf_cfg), config.clone());
            sim.add_node(cpf_node(cpf), timed(Layer::Cpf, node), 0);
        }
        for &upf in &region.upfs {
            let node = UpfNode::new(UpfCore::with_cta(upf, region.cta), config.cpu);
            sim.add_node(upf_node(upf), timed(Layer::Upf, node), 0);
        }
    }
    sim.inject_at(Instant::ZERO, UEPOP_NODE, SimMsg::Kick);
    if let Some(f) = inputs.failure {
        fail_cpf_at(&mut sim, &deployment, f.at, f.cpf);
    }
    (sim, deployment)
}

/// Mirror of `Cluster::fail_cpf_at`.
fn fail_cpf_at(sim: &mut ShardedSim<SimMsg>, dep: &Deployment, at: Instant, cpf: CpfId) {
    sim.crash_at(at, cpf_node(cpf));
    let notice_at = at + Duration::from_micros(1);
    let notice = || SimMsg::Sys(SysMsg::CpfFailure { cpf });
    for region in dep.regions() {
        sim.inject_at(notice_at, cta_node(region.cta), notice());
    }
    for peer in dep.all_cpfs() {
        if peer != cpf {
            sim.inject_at(notice_at, cpf_node(peer), notice());
        }
    }
}

/// One traced run of `inputs` (already generated). Allocation counting is
/// on for the run loop only.
pub fn run_traced(mut inputs: SimInputs) -> (Outcome, Trace) {
    LAYERS.with(|l| *l.borrow_mut() = [Tally::default(); 5]);
    VARIANTS.with(|v| v.borrow_mut().iter_mut().for_each(|c| *c = 0));
    let (mut sim, deployment) = build_traced(&mut inputs);
    sim.set_delivery_tap(Box::new(|_, _, msg| count_delivery(msg)));
    crate::alloc::set_counting(true);
    let t = HostInstant::now();
    for stop in stops(&inputs) {
        sim.run_until(stop);
    }
    let outer_wall_s = t.elapsed().as_secs_f64();
    crate::alloc::set_counting(false);
    let stats = sim.sim_stats();
    let outcome = extract(&mut sim, &deployment, &inputs);
    let trace = Trace {
        layers: LAYERS.with(|l| *l.borrow()),
        sim_wall_s: stats.wall.as_secs_f64(),
        outer_wall_s,
        allocs: stats.allocs,
        delivered_by_variant: VARIANTS.with(|v| v.borrow().clone()),
    };
    (outcome, trace)
}
