//! Executes one [`CasePlan`] with in-run oracle passes.
//!
//! The oracle loop pauses the simulation at interval-aligned instants and
//! evaluates every requested invariant against the paused cluster. Pauses
//! are read-only and segmented `run_until` calls process the identical
//! event stream, so a checked run is byte-for-byte the run the plan's seed
//! would have produced unchecked. Between two events the cluster cannot
//! change, so the loop uses the engine's next-event time to skip pause
//! points where nothing happened — a 10 s drain tail costs a handful of
//! passes, not hundreds.

use crate::invariants::invariant_for_case;
use crate::mcheck::ScriptChooser;
use crate::scenario::{CasePlan, EndpointPlan};
use neutrino_core::experiment::adapt_workload;
use neutrino_core::oracle::{Invariant, OracleCtx, Violation};
use neutrino_core::simnode::{cpf_node, cta_node};
use neutrino_core::{Arrival, Cluster, LinkProfile, SimMsg, SystemConfig, UePopConfig, Workload};
use neutrino_common::time::{Duration, Instant};
use neutrino_common::UeId;
use neutrino_cta::AdmissionParams;
use neutrino_geo::RegionLayout;
use neutrino_messages::procedures::ProcedureKind;
use neutrino_netsim::{FaultSpec, SimConfig};
use neutrino_trafficgen::patterns::{
    flash_crowd_reattach, iot_burst_storm, uniform_with_pool, FlashCrowdParams, IotStormParams,
    UniformParams,
};
use serde::{Deserialize, Serialize};

/// Attach-phase rate used for every checked run (fast enough that the
/// pool registers in tens of milliseconds, slow enough not to overload).
const ATTACH_RATE_PPS: u64 = 40_000;

/// Violations kept verbatim in a report; the rest are counted only (a
/// badly broken build can emit one violation per UE per pass).
const MAX_RECORDED_VIOLATIONS: usize = 256;

/// A [`Violation`](neutrino_core::Violation) in serializable form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViolationRecord {
    /// Invariant catalog name.
    pub invariant: String,
    /// Virtual time of the observing pass, microseconds since origin.
    pub at_us: u64,
    /// The UE concerned (raw id), when per-UE.
    pub ue: Option<u64>,
    /// Human-readable specifics.
    pub detail: String,
}

impl ViolationRecord {
    fn from_violation(v: Violation) -> ViolationRecord {
        ViolationRecord {
            invariant: v.invariant.to_string(),
            at_us: v.at.as_nanos() / 1_000,
            ue: v.ue.map(|u| u.raw()),
            detail: v.detail,
        }
    }
}

/// Counters that must replay bit-identically for the same plan: the
/// replay-equality witness (wall-clock numbers are deliberately absent).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Events the engine processed.
    pub events_processed: u64,
    /// Procedures started.
    pub started: u64,
    /// Procedures completed.
    pub completed: u64,
    /// Re-attaches performed.
    pub re_attached: u64,
    /// UE retransmissions sent.
    pub retransmissions: u64,
    /// Fault-layer loss drops.
    pub dropped_loss: u64,
    /// Partition-window drops.
    pub dropped_partition: u64,
    /// Fault-layer duplicate deliveries.
    pub duplicated: u64,
    /// Fault-layer reorder hold-backs.
    pub reordered: u64,
    /// Procedures the CTA's ACK-timeout scan pruned.
    pub timeout_pruned: u64,
    /// Procedures the CTA admission gate admitted, by class (priority
    /// order: handover, service-request, attach, detach). All zero when the
    /// gate is off.
    #[serde(default)]
    pub admitted: Vec<u64>,
    /// Procedures the gate shed, by class (same order).
    #[serde(default)]
    pub shed: Vec<u64>,
    /// `Reject` frames the UE population received.
    #[serde(default)]
    pub rejected: u64,
    /// Procedures UEs abandoned after exhausting the retry budget.
    #[serde(default)]
    pub retries_exhausted: u64,
    /// Largest engine queue depth across control-plane nodes.
    #[serde(default)]
    pub max_queue_depth: u64,
    /// Total invariant violations (including ones beyond the record cap).
    pub violations: u64,
}

/// Outcome of one checked run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckReport {
    /// Recorded violations, in pass order (capped; see
    /// [`Fingerprint::violations`] for the full count).
    pub violations: Vec<ViolationRecord>,
    /// Oracle passes executed (including the final pass).
    pub passes: u64,
    /// Replay-equality witness.
    pub fingerprint: Fingerprint,
}

impl CheckReport {
    /// True when no invariant fired.
    pub fn is_clean(&self) -> bool {
        self.fingerprint.violations == 0
    }

    /// Canonical JSON form; two runs of the same plan must produce equal
    /// strings.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// Resolves a [`SystemConfig`] constructor name from a plan.
pub fn config_by_name(name: &str) -> Option<SystemConfig> {
    Some(match name {
        "neutrino" => SystemConfig::neutrino(),
        "neutrino_default_handover" => SystemConfig::neutrino_default_handover(),
        "neutrino_no_replication" => SystemConfig::neutrino_no_replication(),
        "neutrino_per_message" => SystemConfig::neutrino_per_message(),
        "neutrino_no_logging" => SystemConfig::neutrino_no_logging(),
        "existing_epc" => SystemConfig::existing_epc(),
        "dpcm" => SystemConfig::dpcm(),
        "skycore" => SystemConfig::skycore(),
        _ => return None,
    })
}

/// Resolves a [`ProcedureKind`] by its stable name.
pub fn kind_by_name(name: &str) -> Option<ProcedureKind> {
    ProcedureKind::ALL.iter().copied().find(|k| k.name() == name)
}

/// Runs one plan to its horizon with oracle passes every
/// `check_interval_ms`, plus a final pass after the drain.
///
/// Honors the plan's `choice_trace`: a non-empty trace replays the pinned
/// interleaving through a [`ScriptChooser`]; otherwise the run is a plain
/// `run_until`, byte-identical to the pre-mcheck checker.
///
/// Panics on a malformed plan (unknown system, procedure kind, invariant,
/// or partition endpoint) — plans come from [`Scenario::plan`]
/// (crate::scenario::Scenario::plan) or a pinned corpus file, and a typo
/// there should fail loudly, not skip silently.
pub fn run_case(plan: &CasePlan) -> CheckReport {
    if plan.choice_trace.is_empty() {
        run_case_with(plan, None)
    } else {
        let mut script = ScriptChooser::new(&plan.choice_trace);
        run_case_with(plan, Some(&mut script))
    }
}

/// A delivery witness for flow-coverage runs: `(from, to, &msg)` for every
/// message the engine actually enqueues (see
/// [`neutrino_netsim::Sim::set_delivery_tap`]).
pub type DeliveryTap = neutrino_netsim::DeliveryTap<SimMsg>;

/// The full checker: one plan and an optional interleaving chooser. This
/// is the entry point the exhaustive checker drives with an exploring
/// chooser.
pub fn run_case_with(
    plan: &CasePlan,
    chooser: Option<&mut dyn neutrino_netsim::Chooser<SimMsg>>,
) -> CheckReport {
    run_case_impl(plan, chooser, None)
}

/// [`run_case_with`] without a chooser and with a delivery tap installed:
/// the tap observes every enqueued message without perturbing the event
/// stream (`explore --flow-coverage` records witnessed protocol flow edges
/// this way).
pub fn run_case_witnessed(plan: &CasePlan, tap: DeliveryTap) -> CheckReport {
    run_case_impl(plan, None, Some(tap))
}

fn run_case_impl(
    plan: &CasePlan,
    mut chooser: Option<&mut dyn neutrino_netsim::Chooser<SimMsg>>,
    tap: Option<DeliveryTap>,
) -> CheckReport {
    let mut config = config_by_name(&plan.system)
        .unwrap_or_else(|| panic!("unknown system `{}`", plan.system));
    let kind =
        kind_by_name(&plan.kind).unwrap_or_else(|| panic!("unknown procedure `{}`", plan.kind));
    if let Some(storm) = &plan.storm {
        if storm.admission_rate_pps > 0 {
            config = config.with_admission(AdmissionParams::for_rate(storm.admission_rate_pps));
        }
    }
    // The workload: uniform-with-pool by default, the plan's storm shape,
    // or — for small-model plans — the explicit arrival schedule verbatim.
    // `measured_start` anchors the chaos schedule (crash/partition times
    // are relative to it) and `horizon` covers the traffic plus the drain
    // margin.
    let (workload, measured_start, horizon): (Workload, Instant, Duration) = match &plan.storm {
        None if plan.small_model.is_some() => {
            let sm = plan.small_model.as_ref().expect("checked");
            let arrivals = sm
                .arrivals
                .iter()
                .map(|a| Arrival {
                    at: Instant::ZERO + Duration::from_micros(a.at_us),
                    ue: UeId::new(a.ue),
                    kind: kind_by_name(&a.kind)
                        .unwrap_or_else(|| panic!("unknown procedure `{}`", a.kind)),
                })
                .collect();
            let horizon = Duration::from_millis(plan.duration_ms + plan.drain_ms);
            (Workload::from_vec(arrivals), Instant::ZERO, horizon)
        }
        None => {
            let (w, measured_start) = uniform_with_pool(
                UniformParams {
                    rate_pps: plan.rate_pps,
                    duration: Duration::from_millis(plan.duration_ms),
                    kind,
                    ues: plan.ues,
                    first_ue: 0,
                    start: Instant::ZERO,
                },
                ATTACH_RATE_PPS,
            );
            let horizon = measured_start.saturating_since(Instant::ZERO)
                + Duration::from_millis(plan.duration_ms + plan.drain_ms);
            (w, measured_start, horizon)
        }
        Some(storm) if storm.shape == "flash-crowd" => {
            let (w, sched) = flash_crowd_reattach(FlashCrowdParams {
                ues: plan.ues,
                first_ue: 0,
                steady_pps: plan.rate_pps,
                // Under the gate, pace the pool attach at half the
                // admission rate so the pre-storm phase registers without
                // tripping the gate itself.
                attach_pps: storm.admission_rate_pps / 2,
                steady: Duration::from_millis(storm.steady_ms),
                surge_delay: Duration::from_millis(storm.surge_delay_ms),
                surge_rate_pps: storm.surge_rate_pps,
                tail: Duration::from_millis(storm.tail_ms),
                start: Instant::ZERO,
            });
            let horizon = sched.end.saturating_since(Instant::ZERO)
                + Duration::from_millis(plan.drain_ms);
            (w, sched.steady_start, horizon)
        }
        Some(storm) if storm.shape == "iot-burst" => {
            let w = iot_burst_storm(IotStormParams {
                devices: plan.ues,
                first_ue: 0,
                pulses: storm.pulses,
                period: Duration::from_millis(storm.period_ms),
                window: Duration::from_millis(storm.window_ms),
                kind,
                start: Instant::ZERO,
            });
            let horizon = Duration::from_millis(
                storm.pulses * storm.period_ms + storm.window_ms + plan.drain_ms,
            );
            (w, Instant::ZERO, horizon)
        }
        Some(storm) => panic!("unknown storm shape `{}`", storm.shape),
    };
    let workload = adapt_workload(&config, workload);
    let links = LinkProfile {
        jitter: Duration::from_micros(plan.jitter_us),
        faults: FaultSpec {
            loss: plan.loss_ppm as f64 / 1e6,
            duplicate: plan.duplicate_ppm as f64 / 1e6,
            reorder: plan.reorder_ppm as f64 / 1e6,
            reorder_window: Duration::from_micros(plan.reorder_window_us),
        },
        ..LinkProfile::default()
    };
    let layout = match &plan.small_model {
        Some(sm) => {
            let d = RegionLayout::default();
            RegionLayout {
                bss_per_region: sm.bss_per_region as usize,
                cpfs_per_region: sm.cpfs_per_region as usize,
                upfs_per_region: sm.upfs_per_region as usize,
                // A replica set cannot exceed the pool that hosts it.
                replicas: d
                    .replicas
                    .min((sm.cpfs_per_region as usize).saturating_sub(1))
                    .max(1),
                ..d
            }
        }
        None => RegionLayout::default(),
    };
    let mut cluster = Cluster::build_with_sim(
        config,
        layout,
        workload,
        UePopConfig::default(),
        links,
        SimConfig::for_horizon(horizon),
        plan.seed,
        1,
    );
    if let Some(tap) = tap {
        cluster.sim.set_delivery_tap(tap);
    }

    // Chaos schedule: crash and partition times are relative to the
    // measured phase so shrinking the attach pool keeps them meaningful.
    let cpfs = cluster.deployment.regions()[0].cpfs.clone();
    let cta0 = cluster.deployment.regions()[0].cta;
    for c in &plan.crashes {
        let victim = cpfs[c.cpf_index as usize % cpfs.len()];
        cluster.fail_cpf_at(measured_start + Duration::from_millis(c.at_ms), victim);
    }
    for p in &plan.partitions {
        let resolve = |e: &EndpointPlan| match e.kind.as_str() {
            "cta" => cta_node(cta0),
            "cpf" => cpf_node(cpfs[e.index as usize % cpfs.len()]),
            other => panic!("unknown partition endpoint kind `{other}`"),
        };
        cluster.sim.links_mut().add_partition(
            resolve(&p.a),
            resolve(&p.b),
            measured_start + Duration::from_millis(p.from_ms),
            measured_start + Duration::from_millis(p.until_ms),
        );
    }

    let mut invariants: Vec<Box<dyn Invariant>> = plan
        .invariants
        .iter()
        .map(|n| invariant_for_case(n, plan).unwrap_or_else(|| panic!("unknown invariant `{n}`")))
        .collect();

    // The oracle loop. Each pause lands on a multiple of the check
    // interval, but only when at least one event occurred since the last
    // pause — the next-event peek makes empty stretches free.
    let interval = Duration::from_millis(plan.check_interval_ms.max(1));
    let horizon_end = Instant::ZERO + horizon;
    let mut passes = 0u64;
    let mut recorded: Vec<ViolationRecord> = Vec::new();
    let mut total_violations = 0u64;
    let mut run_pass =
        |cluster: &mut Cluster, invs: &mut Vec<Box<dyn Invariant>>, now: Instant, final_pass: bool| {
            let mut batch: Vec<Violation> = Vec::new();
            for inv in invs.iter_mut() {
                let mut ctx = OracleCtx {
                    cluster,
                    now,
                    final_pass,
                };
                batch.extend(inv.check(&mut ctx));
            }
            // Invariants iterate HashMaps internally; the report must be
            // byte-stable across runs.
            batch.sort_by(|a, b| {
                (a.invariant, a.ue.map(|u| u.raw()), &a.detail)
                    .cmp(&(b.invariant, b.ue.map(|u| u.raw()), &b.detail))
            });
            total_violations += batch.len() as u64;
            for v in batch {
                if recorded.len() < MAX_RECORDED_VIOLATIONS {
                    recorded.push(ViolationRecord::from_violation(v));
                }
            }
        };
    loop {
        let next = match cluster.sim.next_event_at() {
            Some(t) if t < horizon_end => t,
            _ => break,
        };
        let k = next.as_nanos() / interval.as_nanos() + 1;
        let pause = Instant::from_nanos(k * interval.as_nanos());
        if pause >= horizon_end {
            break;
        }
        match &mut chooser {
            Some(c) => cluster.run_until_chosen(pause, &mut **c),
            None => cluster.run_until(pause),
        }
        passes += 1;
        run_pass(&mut cluster, &mut invariants, pause, false);
    }
    match &mut chooser {
        Some(c) => cluster.run_until_chosen(horizon_end, &mut **c),
        None => cluster.run_until(horizon_end),
    }
    passes += 1;
    run_pass(&mut cluster, &mut invariants, horizon_end, true);

    let sim = cluster.sim.sim_stats();
    let cta = cluster.cta_metrics();
    let max_queue_depth = cluster.max_control_queue_depth() as u64;
    let results = cluster.take_results();
    CheckReport {
        violations: recorded,
        passes,
        fingerprint: Fingerprint {
            events_processed: sim.events_processed,
            started: results.started,
            completed: results.completed,
            re_attached: results.re_attached,
            retransmissions: results.retransmissions,
            dropped_loss: sim.dropped_loss,
            dropped_partition: sim.dropped_partition,
            duplicated: sim.duplicated,
            reordered: sim.reordered,
            timeout_pruned: cta.timeout_pruned,
            admitted: cta.admitted_by_class.to_vec(),
            shed: cta.shed_by_class.to_vec(),
            rejected: results.rejected,
            retries_exhausted: results.retries_exhausted,
            max_queue_depth,
            violations: total_violations,
        },
    }
}
