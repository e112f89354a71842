//! Builds a complete simulated deployment from a [`SystemConfig`].

use crate::config::{SystemConfig, SystemKind};
use crate::simnode::{cpf_node, cta_node, upf_node, CpfNode, CtaNode, UpfNode, UEPOP_NODE};
use crate::uepop::{RegionRoute, UePopConfig, UePopResults, UePopulation, Workload};
use neutrino_common::time::{Duration, Instant};
use neutrino_common::CpfId;
use neutrino_cpf::{CpfConfig, CpfCore, CpfMetrics};
use neutrino_cta::{CtaConfig, CtaCore, CtaMetrics};
use neutrino_geo::{Deployment, RegionLayout};
use neutrino_messages::SysMsg;
use neutrino_netsim::{FaultSpec, LinkSpec, Links, ShardedSim, SimConfig};
use neutrino_upf::UpfCore;

/// Merged admission-gate priority evidence: per class, the lowest token
/// level a request was admitted at and the highest level one was shed at.
pub type AdmissionEvidence = ([Option<u64>; 4], [Option<u64>; 4]);

/// The simulator's message type: protocol traffic plus the bootstrap kick
/// for the UE population's arrival loop.
#[derive(Debug, Clone, PartialEq)]
pub enum SimMsg {
    /// Protocol traffic.
    Sys(SysMsg),
    /// Bootstraps the arrival pump.
    Kick,
}

/// Link latencies of the edge deployment.
#[derive(Debug, Clone, Copy)]
pub struct LinkProfile {
    /// Same-region hops (BS↔CTA, CTA↔CPF, CPF↔UPF): the paper's testbed is
    /// two servers on 40 GbE with DPDK kernel-bypass I/O — single-digit
    /// microseconds one way.
    pub intra_region: Duration,
    /// Cross-region hops (CPF ↔ level-2 replica CPFs): different edge sites.
    pub inter_region: Duration,
    /// Maximum deterministic per-hop jitter (uniform in `0..=jitter`,
    /// re-rolled per [`ExperimentSpec::seed`](crate::experiment::ExperimentSpec::seed)).
    /// Zero — the default — keeps every link delay exact.
    pub jitter: Duration,
    /// Seeded fault injection applied to every link (loss, duplication,
    /// bounded reorder). [`FaultSpec::NONE`] — the default — keeps the
    /// fault-free event stream byte-identical to the pre-fault engine.
    pub faults: FaultSpec,
}

impl Default for LinkProfile {
    fn default() -> Self {
        LinkProfile {
            intra_region: Duration::from_micros(5),
            inter_region: Duration::from_micros(500),
            jitter: Duration::ZERO,
            faults: FaultSpec::NONE,
        }
    }
}

/// A built simulation plus its id maps.
pub struct Cluster {
    /// The simulator. Typed `ShardedSim` (a newtype that derefs to the
    /// sequential `Sim`) only for the benchmark package's API.
    pub sim: ShardedSim<SimMsg>,
    /// The deployment it models.
    pub deployment: Deployment,
    config: SystemConfig,
}

impl Cluster {
    /// Builds a cluster: per level-1 region one CTA, a CPF pool, UPFs; one
    /// UE-population node emulating all UEs and base stations.
    pub fn build(
        config: SystemConfig,
        layout: RegionLayout,
        workload: Workload,
        uecfg: UePopConfig,
        links_profile: LinkProfile,
    ) -> Cluster {
        Self::build_with_sim(
            config,
            layout,
            workload,
            uecfg,
            links_profile,
            SimConfig::default(),
            0,
            1,
        )
    }

    /// [`Cluster::build`] with an explicit engine config (runaway-event
    /// budget) and jitter seed; `run_experiment` derives both per cell.
    /// The trailing `shards` exists only for the benchmark package's API
    /// and must be 1: the region-sharded engine was removed.
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_sim(
        config: SystemConfig,
        mut layout: RegionLayout,
        workload: Workload,
        mut uecfg: UePopConfig,
        links_profile: LinkProfile,
        sim_config: SimConfig,
        seed: u64,
        shards: usize,
    ) -> Cluster {
        layout.replicas = config.replicas;
        let deployment = Deployment::build(layout);

        // Links: intra-region by default, cross-region overridden.
        let jitter = links_profile.jitter;
        let mut links = Links::with_default(LinkSpec {
            latency: links_profile.intra_region,
            jitter,
        });
        links.set_seed(seed);
        links.set_fault_default(links_profile.faults);
        let inter = LinkSpec {
            latency: links_profile.inter_region,
            jitter,
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
        let mut sim = ShardedSim::with_config(links, sim_config, shards);

        // UE population. All workload traffic enters through region 0's CTA
        // and CPF pool — the paper's testbed drives one pool of five CPF
        // instances (§5); sibling regions host the level-2 backup replicas
        // and handover targets.
        uecfg.codec = config.codec;
        // Overload control is end-to-end: when the CTA gates ingress, the
        // UEs also spread their re-offers with exponential backoff instead
        // of re-offering in lockstep the moment `retry_after` elapses.
        if config.admission.is_some() && uecfg.backoff_base == Duration::ZERO {
            uecfg.backoff_base = Duration::from_millis(50);
        }
        // Route 0 (region 0) carries all traffic — the paper's testbed
        // shape; the rest are fallbacks for CTA-failure recovery
        // (§4.2.5 scenario 4).
        uecfg.routes = deployment
            .regions()
            .iter()
            .map(|r| RegionRoute {
                cta: r.cta,
                bss: r.bss.clone(),
            })
            .collect();
        sim.add_node(UEPOP_NODE, Box::new(UePopulation::new(uecfg, workload)), 0);

        // Per-region control plane.
        for region in deployment.regions() {
            let ring = deployment
                .ring_stack(region.id)
                .expect("regions have rings");
            let cta_cfg = CtaConfig {
                id: region.cta,
                logging: config.logging,
                failover: config.failover,
                ack_timeout: Duration::from_secs(30),
                // No replication → no ACKs will ever come; a resync chase
                // would just spam the primary. Zero disables it.
                resync_base: if config.replication == neutrino_cpf::ReplicationMode::None {
                    Duration::ZERO
                } else {
                    Duration::from_secs(4)
                },
                codec: config.codec,
                admission: config.admission,
            };
            sim.add_node(
                cta_node(region.cta),
                Box::new(CtaNode::new(
                    CtaCore::new(cta_cfg, ring.clone()),
                    config.cpu,
                    config.logging,
                    Duration::from_secs(5),
                )),
                0,
            );
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
                    ring: if config.kind == SystemKind::Neutrino {
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
                sim.add_node(
                    cpf_node(cpf),
                    Box::new(CpfNode::new(CpfCore::new(cpf_cfg), config.clone())),
                    0,
                );
            }
            for &upf in &region.upfs {
                sim.add_node(
                    upf_node(upf),
                    Box::new(UpfNode::new(UpfCore::with_cta(upf, region.cta), config.cpu)),
                    0,
                );
            }
        }

        // Bootstrap the arrival pump.
        sim.inject_at(Instant::ZERO, UEPOP_NODE, SimMsg::Kick);

        Cluster {
            sim,
            deployment,
            config,
        }
    }

    /// The system configuration this cluster runs.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Crashes a CTA at `at` (failure scenario 4: its UEs re-attach through
    /// another region's CTA after their retries run out — no notice is
    /// delivered anywhere, because "we do not backup CTA state", §4.2.5).
    pub fn fail_cta_at(&mut self, at: Instant, region_index: usize) {
        let cta = self.deployment.regions()[region_index].cta;
        self.sim.crash_at(at, cta_node(cta));
    }

    /// Crashes a CPF at `at` and delivers the failure notice to every CTA
    /// and every surviving CPF right after (failure *detection* time is
    /// excluded from PCT, §6.4). CPFs need the notice too: their ring views
    /// drive checkpoint targeting, and must drop the dead peer in lockstep
    /// with the CTA's ACK expectations.
    pub fn fail_cpf_at(&mut self, at: Instant, cpf: CpfId) {
        self.sim.crash_at(at, cpf_node(cpf));
        let notice_at = at + Duration::from_micros(1);
        let ctas: Vec<_> = self.deployment.regions().iter().map(|r| r.cta).collect();
        for cta in ctas {
            self.sim.inject_at(
                notice_at,
                cta_node(cta),
                SimMsg::Sys(SysMsg::CpfFailure { cpf }),
            );
        }
        for peer in self.deployment.all_cpfs() {
            if peer != cpf {
                self.sim.inject_at(
                    notice_at,
                    cpf_node(peer),
                    SimMsg::Sys(SysMsg::CpfFailure { cpf }),
                );
            }
        }
    }

    /// Injects downlink user data for `ue` arriving at its region's first
    /// UPF at `at` (the §3.1 reachability experiments).
    pub fn inject_downlink_data_at(&mut self, at: Instant, ue: neutrino_common::UeId) {
        let upf = self.deployment.regions()[0].upfs
            [ue.raw() as usize % self.deployment.regions()[0].upfs.len().max(1)];
        self.sim
            .inject_at(at, upf_node(upf), SimMsg::Sys(SysMsg::DownlinkData { ue }));
    }

    /// Marks a UE's session idle at its UPF (emulates the S1 inactivity
    /// release, which our procedure set does not model as messages).
    pub fn release_ue_to_idle(&mut self, ue: neutrino_common::UeId) {
        let upfs: Vec<_> = self
            .deployment
            .regions()
            .iter()
            .flat_map(|r| r.upfs.clone())
            .collect();
        for upf in upfs {
            if let Some(node) = self.sim.node_as::<UpfNode>(upf_node(upf)) {
                node.core_mut().table_mut().release(ue);
            }
        }
    }

    /// Downlink delivery log across all UPFs: `(time, ue, delivered)`.
    pub fn downlink_log(&mut self) -> Vec<(Instant, neutrino_common::UeId, bool)> {
        let upfs: Vec<_> = self
            .deployment
            .regions()
            .iter()
            .flat_map(|r| r.upfs.clone())
            .collect();
        let mut out = Vec::new();
        for upf in upfs {
            if let Some(node) = self.sim.node_as::<UpfNode>(upf_node(upf)) {
                out.extend_from_slice(node.downlink_log());
            }
        }
        out.sort();
        out
    }

    /// Runs until `deadline` (virtual time).
    pub fn run_until(&mut self, deadline: Instant) {
        self.sim.run_until(deadline);
    }

    /// Runs until `deadline`, consulting `chooser` at every point where
    /// ≥2 deliveries are simultaneously enabled (small-model checking; see
    /// `Sim::run_until_chosen`).
    pub fn run_until_chosen(
        &mut self,
        deadline: Instant,
        chooser: &mut dyn neutrino_netsim::Chooser<SimMsg>,
    ) {
        self.sim.run_until_chosen(deadline, chooser);
    }

    /// Runs until the event queue drains.
    pub fn run_to_completion(&mut self) {
        self.sim.run_to_completion();
    }

    /// The UE-population node (read-mostly access for invariant oracles).
    pub fn population(&mut self) -> &mut UePopulation {
        self.sim
            .node_as::<UePopulation>(UEPOP_NODE)
            .expect("population exists")
    }

    /// Total messages dropped at down or crashed nodes across the whole
    /// deployment (the bounded-retry oracle's drop budget).
    pub fn total_node_drops(&self) -> u64 {
        let mut ids = vec![UEPOP_NODE];
        for region in self.deployment.regions() {
            ids.push(cta_node(region.cta));
            ids.extend(region.cpfs.iter().map(|&c| cpf_node(c)));
            ids.extend(region.upfs.iter().map(|&u| upf_node(u)));
        }
        ids.into_iter()
            .filter_map(|id| self.sim.stats(id))
            .map(|s| s.dropped_down + s.dropped_crash)
            .sum()
    }

    /// Extracts the UE population's results.
    pub fn take_results(&mut self) -> UePopResults {
        self.sim
            .node_as::<UePopulation>(UEPOP_NODE)
            .expect("population exists")
            .take_results()
    }

    /// Peak CTA log footprint across all regions (Fig. 17).
    pub fn max_log_bytes(&mut self) -> usize {
        let ctas: Vec<_> = self.deployment.regions().iter().map(|r| r.cta).collect();
        let mut total = 0;
        for cta in ctas {
            if let Some(node) = self.sim.node_as::<CtaNode>(cta_node(cta)) {
                total += node.core().max_log_bytes();
            }
        }
        total
    }

    /// The CPF currently serving a UE, according to region 0's CTA (the
    /// entry point for all workload traffic).
    pub fn serving_cpf(&mut self, ue: neutrino_common::UeId) -> Option<CpfId> {
        let cta = self.deployment.regions()[0].cta;
        self.sim
            .node_as::<CtaNode>(cta_node(cta))?
            .core_mut()
            .primary_for(ue)
    }

    /// The state version the UE's serving CPF holds (consistency checks).
    pub fn ue_state_version(
        &mut self,
        ue: neutrino_common::UeId,
    ) -> Option<neutrino_messages::state::StateVersion> {
        let cpf = self.serving_cpf(ue)?;
        let node = self.sim.node_as::<CpfNode>(cpf_node(cpf))?;
        node.core().store().get(ue).map(|r| r.state.version)
    }

    /// Whether the UE's serving CPF may serve it right now (fresh state).
    pub fn ue_servable(&mut self, ue: neutrino_common::UeId) -> bool {
        match self.serving_cpf(ue) {
            Some(cpf) => self
                .sim
                .node_as::<CpfNode>(cpf_node(cpf))
                .map(|n| n.core().store().servable(ue))
                .unwrap_or(false),
            None => false,
        }
    }

    /// Aggregated CTA metrics.
    pub fn cta_metrics(&mut self) -> CtaMetrics {
        let ctas: Vec<_> = self.deployment.regions().iter().map(|r| r.cta).collect();
        let mut agg = CtaMetrics::default();
        for cta in ctas {
            if let Some(node) = self.sim.node_as::<CtaNode>(cta_node(cta)) {
                let m = node.core().metrics();
                agg.forwarded_uplink += m.forwarded_uplink;
                agg.forwarded_downlink += m.forwarded_downlink;
                agg.failover_up_to_date += m.failover_up_to_date;
                agg.failover_replayed += m.failover_replayed;
                agg.failover_re_attach += m.failover_re_attach;
                agg.outdated_notices += m.outdated_notices;
                agg.timeout_pruned += m.timeout_pruned;
                agg.resyncs_requested += m.resyncs_requested;
                agg.resyncs_replayed += m.resyncs_replayed;
                for i in 0..4 {
                    agg.admitted_by_class[i] += m.admitted_by_class[i];
                    agg.shed_by_class[i] += m.shed_by_class[i];
                }
                agg.rejects_sent += m.rejects_sent;
                agg.acks_deferred += m.acks_deferred;
                agg.breaker_opened += m.breaker_opened;
                agg.breaker_suppressed += m.breaker_suppressed;
                agg.unexpected_msgs += m.unexpected_msgs;
            }
        }
        agg
    }

    /// Admission-gate priority evidence, merged across regions: per class,
    /// the lowest token level admitted at and the highest level shed at
    /// (the `shed-priority-order` invariant's witness).
    pub fn admission_evidence(&mut self) -> Option<AdmissionEvidence> {
        let ctas: Vec<_> = self.deployment.regions().iter().map(|r| r.cta).collect();
        let mut merged: Option<AdmissionEvidence> = None;
        for cta in ctas {
            let Some(node) = self.sim.node_as::<CtaNode>(cta_node(cta)) else { continue };
            let Some(gate) = node.core().admission() else { continue };
            let (admit, shed) = gate.priority_evidence();
            let (ma, ms) = merged.get_or_insert(([None; 4], [None; 4]));
            for i in 0..4 {
                ma[i] = match (ma[i], admit[i]) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                ms[i] = match (ms[i], shed[i]) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
            }
        }
        merged
    }

    /// Largest engine queue depth across the control-plane nodes (CTAs,
    /// CPFs, UPFs) — the `bounded-queue` invariant's observable. The UE
    /// population node is excluded: it models the device fleet, not a
    /// control-plane queue.
    pub fn max_control_queue_depth(&self) -> usize {
        let mut ids = Vec::new();
        for region in self.deployment.regions() {
            ids.push(cta_node(region.cta));
            ids.extend(region.cpfs.iter().map(|&c| cpf_node(c)));
            ids.extend(region.upfs.iter().map(|&u| upf_node(u)));
        }
        ids.into_iter()
            .filter_map(|id| self.sim.stats(id))
            .map(|s| s.max_queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// Aggregated CPF metrics.
    pub fn cpf_metrics(&mut self) -> CpfMetrics {
        let cpfs = self.deployment.all_cpfs();
        let mut agg = CpfMetrics::default();
        for cpf in cpfs {
            if let Some(node) = self.sim.node_as::<CpfNode>(cpf_node(cpf)) {
                let m = node.core().metrics();
                agg.processed += m.processed;
                agg.replayed += m.replayed;
                agg.completed += m.completed;
                agg.syncs_sent += m.syncs_sent;
                agg.syncs_applied += m.syncs_applied;
                agg.syncs_ignored += m.syncs_ignored;
                agg.re_attach_asked += m.re_attach_asked;
                agg.migrations += m.migrations;
                agg.pages_sent += m.pages_sent;
                agg.pages_failed += m.pages_failed;
                agg.resyncs_answered += m.resyncs_answered;
                agg.dup_uplink_nudges += m.dup_uplink_nudges;
                agg.unexpected_msgs += m.unexpected_msgs;
            }
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "region-sharded engine was removed")]
    fn build_with_sim_rejects_more_than_one_shard() {
        Cluster::build_with_sim(
            SystemConfig::neutrino(),
            RegionLayout::default(),
            Workload::from_vec(Vec::new()),
            UePopConfig::default(),
            LinkProfile::default(),
            SimConfig::default(),
            0,
            2,
        );
    }
}
