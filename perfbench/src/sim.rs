//! The untraced simulated run: the program's own `Cluster`, driven the
//! way `run_experiment` drives it, plus the extraction of every simulated
//! metric into one comparable [`Outcome`].

use crate::workloads::SimInputs;
use neutrino_common::stats::Percentiles;
use neutrino_common::time::{Duration, Instant};
use neutrino_core::experiment::adapt_workload;
use neutrino_core::simnode::{cpf_node, cta_node, upf_node, CpfNode, CtaNode, UpfNode, UEPOP_NODE};
use neutrino_core::{audit_cluster, AuditReport, Cluster, SimMsg, UePopulation, Workload};
use neutrino_geo::Deployment;
use neutrino_netsim::{NodeId, NodeStats, ShardedSim, SimConfig};
use std::time::Instant as HostInstant;

/// Everything a run produces in simulated time. Two runs of one input must
/// compare equal field for field; the traced run must equal the untraced
/// one.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Engine events processed.
    pub events: u64,
    /// Procedures started.
    pub started: u64,
    /// Procedures whose critical path completed.
    pub completed: u64,
    /// `failed_procedures + retries_exhausted`.
    pub failed: u64,
    /// Arrivals skipped because the UE was mid-procedure.
    pub skipped_busy: u64,
    /// UE S1AP retransmissions.
    pub retransmissions: u64,
    /// PCT samples behind the two quantiles below.
    pub pct_samples: u64,
    /// Median PCT over all procedures, ms.
    pub pct_p50_ms: f64,
    /// 99th-percentile PCT over all procedures, ms.
    pub pct_p99_ms: f64,
    /// Mean PCT over all procedures, ms.
    pub pct_mean_ms: f64,
    /// Mean PCT of the slowest 1 % of procedures, ms.
    pub pct_tail_ms: f64,
    /// Probe windows behind the two quantiles below.
    pub probe_samples: u64,
    /// Median probe PCT, ms (0 without probes).
    pub probe_p50_ms: f64,
    /// 90th-percentile probe PCT, ms (0 without probes).
    pub probe_p90_ms: f64,
    /// Messages serviced by every node.
    pub delivered: u64,
    /// Largest per-node queue depth anywhere (UE population included).
    pub max_queue_depth: u64,
    /// Peak scheduled events in the engine's calendar queue.
    pub max_sched_depth: u64,
    /// Transmissions lost to the fault layer (loss + partition).
    pub fault_drops: u64,
    /// Extra copies delivered by the fault layer.
    pub fault_dups: u64,
    /// Transmissions held back by the fault layer.
    pub fault_reorders: u64,
    /// Deliveries to unregistered node ids (must be 0).
    pub dropped_unroutable: u64,
    /// `unexpected_msgs` summed over every role (must be 0).
    pub unexpected_msgs: u64,
    /// Per-role engine statistics.
    pub cta: RoleStats,
    /// Per-role engine statistics.
    pub cpf: RoleStats,
    /// Peak CTA log footprint, bytes.
    pub cta_max_log_bytes: u64,
    /// Probes whose state a backup CPF rebuilt from the CTA log.
    pub cta_failover_replayed: u64,
    /// Checkpoint resends the CTAs requested.
    pub cta_resyncs_requested: u64,
    /// Checkpoints sent by CPFs.
    pub cpf_syncs_sent: u64,
    /// Checkpoints applied at replicas.
    pub cpf_syncs_applied: u64,
    /// Messages CPFs replayed from CTA logs.
    pub cpf_replayed: u64,
}

/// Engine statistics summed over every node of one role (simulated time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoleStats {
    /// Messages serviced.
    pub processed: u64,
    /// Busy time over all cores, ns.
    pub busy_ns: u64,
    /// Total queueing delay, ns.
    pub wait_ns: u64,
}

impl RoleStats {
    fn add(&mut self, s: &NodeStats) {
        self.processed += s.processed;
        self.busy_ns += s.busy.as_nanos();
        self.wait_ns += s.total_wait.as_nanos();
    }
}

/// Host time of one untraced run, split into set-up and the measured
/// phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSplit {
    /// Input generation (`trafficgen`).
    pub gen_s: f64,
    /// `Cluster::build_with_sim` plus scheduling the crash.
    pub build_s: f64,
    /// The measured phase: every `run_until` and audit pass.
    pub run_s: f64,
    /// Of `run_s`, time inside `audit_cluster`.
    pub audit_s: f64,
}

/// The virtual instants a run stops at: one audit pause 2 ms after the
/// crash (as `run_experiment` does), then the horizon.
pub fn stops(inputs: &SimInputs) -> Vec<Instant> {
    let end = Instant::ZERO + inputs.horizon;
    let mut v: Vec<Instant> = inputs
        .failure
        .map(|f| f.at + Duration::from_millis(2))
        .filter(|&p| p < end)
        .into_iter()
        .collect();
    v.push(end);
    v
}

/// The arrivals as the program's `Workload`, adapted to the system's
/// handover flavour exactly as `run_experiment` does.
pub fn workload_of(inputs: &mut SimInputs) -> Workload {
    adapt_workload(
        &inputs.config,
        Workload::from_vec(std::mem::take(&mut inputs.arrivals)),
    )
}

/// Builds the program's cluster for `inputs` (consumes the arrivals).
fn build_cluster(inputs: &mut SimInputs) -> Cluster {
    let workload = workload_of(inputs);
    let mut cluster = Cluster::build_with_sim(
        inputs.config.clone(),
        neutrino_geo::RegionLayout::default(),
        workload,
        inputs.uecfg.clone(),
        inputs.links,
        SimConfig::for_horizon(inputs.horizon),
        inputs.link_seed,
        1,
    );
    if let Some(f) = inputs.failure {
        cluster.fail_cpf_at(f.at, f.cpf);
    }
    cluster
}

/// One untraced run: generate, build, run (auditing after every stop when
/// a crash is injected), extract. `tap` sees every delivered message. The
/// audit report is empty without a crash.
pub fn run_untraced(
    make: impl FnOnce() -> SimInputs,
    tap: Option<neutrino_netsim::DeliveryTap<SimMsg>>,
) -> (Outcome, HostSplit, AuditReport) {
    let mut host = HostSplit::default();
    let t = HostInstant::now();
    let mut inputs = make();
    host.gen_s = t.elapsed().as_secs_f64();
    let t = HostInstant::now();
    let mut cluster = build_cluster(&mut inputs);
    host.build_s = t.elapsed().as_secs_f64();
    if let Some(tap) = tap {
        cluster.sim.set_delivery_tap(tap);
    }
    let mut audit = AuditReport::default();
    let t = HostInstant::now();
    for stop in stops(&inputs) {
        cluster.run_until(stop);
        if inputs.failure.is_some() {
            let a = HostInstant::now();
            audit.merge(audit_cluster(&mut cluster));
            host.audit_s += a.elapsed().as_secs_f64();
        }
    }
    host.run_s = t.elapsed().as_secs_f64();
    let outcome = extract(&mut cluster.sim, &cluster.deployment, &inputs);
    (outcome, host, audit)
}

/// Sample count and two quantiles; the quantiles read 0 without samples,
/// so outcomes stay comparable with `==`.
fn pct_of(p: &mut Percentiles, quantiles: [f64; 2]) -> (u64, f64, f64) {
    if p.is_empty() {
        return (0, 0.0, 0.0);
    }
    (
        p.count(),
        p.quantile(quantiles[0]),
        p.quantile(quantiles[1]),
    )
}

/// Mean of the samples above the `from` quantile: the integral of the
/// quantile function over `[from, 1]`, taken at 200 midpoints. Unlike a
/// single quantile it moves with every sample in the tail, so it does not
/// stick to one timer constant (1 s retransmit) on the lossy workload.
fn tail_mean(p: &mut Percentiles, from: f64) -> f64 {
    const POINTS: usize = 200;
    let width = 1.0 - from;
    (0..POINTS)
        .map(|i| p.quantile(from + width * (i as f64 + 0.5) / POINTS as f64))
        .sum::<f64>()
        / POINTS as f64
}

/// Reads every simulated metric out of a finished simulation. Works on the
/// program's `Cluster` and on the traced mirror alike: it needs only the
/// engine, the deployment and the downcastable node types.
pub fn extract(sim: &mut ShardedSim<SimMsg>, dep: &Deployment, inputs: &SimInputs) -> Outcome {
    let stats = sim.sim_stats();
    let pop = sim
        .node_as::<UePopulation>(UEPOP_NODE)
        .expect("population exists");
    let res = pop.take_results();
    let mut all = Percentiles::new();
    for p in res.pct.values() {
        all.merge(p);
    }
    let mut probe = Percentiles::new();
    for w in &res.windows {
        if inputs.probe_window_counts(w.start, w.end) {
            probe.push(w.end.saturating_since(w.start).as_millis_f64());
        }
    }
    let (pct_samples, pct_p50_ms, pct_p99_ms) = pct_of(&mut all, [0.5, 0.99]);
    let pct_mean_ms = all.summary().mean;
    let pct_tail_ms = tail_mean(&mut all, 0.99);
    let (probe_samples, probe_p50_ms, probe_p90_ms) = pct_of(&mut probe, [0.5, 0.9]);

    let ctas: Vec<NodeId> = dep.regions().iter().map(|r| cta_node(r.cta)).collect();
    let cpfs: Vec<NodeId> = dep.all_cpfs().into_iter().map(cpf_node).collect();
    let upfs: Vec<NodeId> = dep
        .regions()
        .iter()
        .flat_map(|r| r.upfs.iter().map(|&u| upf_node(u)))
        .collect();
    let (mut cta, mut cpf) = (RoleStats::default(), RoleStats::default());
    let mut delivered = 0;
    for id in std::iter::once(UEPOP_NODE).chain(ctas.iter().chain(&cpfs).chain(&upfs).copied()) {
        let s = sim.stats(id).expect("every deployed node is registered");
        delivered += s.processed;
        if ctas.contains(&id) {
            cta.add(s);
        } else if cpfs.contains(&id) {
            cpf.add(s);
        }
    }

    let mut out = Outcome {
        events: stats.events_processed,
        started: res.started,
        completed: res.completed,
        failed: res.incomplete + res.retries_exhausted,
        skipped_busy: res.skipped_busy,
        retransmissions: res.retransmissions,
        pct_samples,
        pct_p50_ms,
        pct_p99_ms,
        pct_mean_ms,
        pct_tail_ms,
        probe_samples,
        probe_p50_ms,
        probe_p90_ms,
        delivered,
        max_queue_depth: stats.max_queue_depth as u64,
        max_sched_depth: stats.max_sched_depth,
        fault_drops: stats.dropped_loss + stats.dropped_partition,
        fault_dups: stats.duplicated,
        fault_reorders: stats.reordered,
        dropped_unroutable: stats.dropped_unroutable,
        unexpected_msgs: res.unexpected_msgs,
        cta,
        cpf,
        cta_max_log_bytes: 0,
        cta_failover_replayed: 0,
        cta_resyncs_requested: 0,
        cpf_syncs_sent: 0,
        cpf_syncs_applied: 0,
        cpf_replayed: 0,
    };
    for &id in &ctas {
        let core = sim.node_as::<CtaNode>(id).expect("CTA node").core();
        let m = core.metrics();
        out.cta_max_log_bytes += core.max_log_bytes() as u64;
        out.cta_failover_replayed += m.failover_replayed;
        out.cta_resyncs_requested += m.resyncs_requested;
        out.unexpected_msgs += m.unexpected_msgs;
        // `run_experiment` counts ACK-timeout pruned procedures as failed.
        out.failed += m.timeout_pruned;
    }
    for &id in &cpfs {
        let m = sim
            .node_as::<CpfNode>(id)
            .expect("CPF node")
            .core()
            .metrics();
        out.cpf_syncs_sent += m.syncs_sent;
        out.cpf_syncs_applied += m.syncs_applied;
        out.cpf_replayed += m.replayed;
        out.unexpected_msgs += m.unexpected_msgs;
    }
    for &id in &upfs {
        out.unexpected_msgs += sim
            .node_as::<UpfNode>(id)
            .expect("UPF node")
            .core()
            .unexpected_msgs();
    }
    out
}
