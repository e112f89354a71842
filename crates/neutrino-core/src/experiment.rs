//! One-call experiment runner.

use crate::audit::{audit_cluster, AuditReport};
use crate::cluster::{Cluster, LinkProfile};
use crate::config::{HandoverPolicy, SystemConfig};
use crate::uepop::{Arrival, ProcedureWindow, UePopConfig, Workload};
use neutrino_common::stats::{Percentiles, Summary};
use neutrino_common::time::{Duration, Instant};
use neutrino_common::CpfId;
use neutrino_cpf::CpfMetrics;
use neutrino_cta::CtaMetrics;
use neutrino_geo::RegionLayout;
use neutrino_messages::procedures::ProcedureKind;
use neutrino_netsim::{SimConfig, SimStats};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// A CPF failure injection.
#[derive(Debug, Clone, Copy)]
pub struct FailureSpec {
    /// When the CPF crashes.
    pub at: Instant,
    /// Which CPF.
    pub cpf: CpfId,
}

/// Everything one experiment run needs.
pub struct ExperimentSpec {
    /// The system under test.
    pub config: SystemConfig,
    /// Deployment shape.
    pub layout: RegionLayout,
    /// The control workload.
    pub workload: Workload,
    /// Virtual-time horizon: the run executes until the workload drains or
    /// this deadline, whichever is later... (the queue empties naturally).
    pub horizon: Duration,
    /// Failure injections.
    pub failures: Vec<FailureSpec>,
    /// UE-population tuning (PCT sampling, probe UEs, retry policy).
    pub uecfg: UePopConfig,
    /// Link latencies.
    pub links: LinkProfile,
    /// Jitter seed: re-rolls every link-delay draw when
    /// [`LinkProfile::jitter`] is non-zero. Two runs of the same spec and
    /// seed are bit-identical; seed 0 (the default) reproduces the historic
    /// unseeded stream, so existing figures are unchanged.
    pub seed: u64,
    /// Exists only for the benchmark package's API and must be 1 (the
    /// default): the region-sharded engine was removed.
    pub shards: usize,
}

impl ExperimentSpec {
    /// A spec with defaults for everything but the system and workload.
    pub fn new(config: SystemConfig, workload: Workload) -> Self {
        ExperimentSpec {
            config,
            layout: RegionLayout::default(),
            workload,
            horizon: Duration::from_secs(120),
            failures: Vec::new(),
            uecfg: UePopConfig::default(),
            links: LinkProfile::default(),
            seed: 0,
            shards: 1,
        }
    }
}

/// Engine-level perf record of one `run_experiment` call, accumulated in a
/// thread-local so a sweep worker can attribute simulator throughput to the
/// figure cell it just executed (cells run wholly on one worker thread).
#[derive(Debug, Clone, Copy)]
pub struct RunPerf {
    /// Events the engine processed during the run.
    pub events_processed: u64,
    /// Host time the engine spent inside `run_until`.
    pub wall: std::time::Duration,
}

thread_local! {
    static RUN_PERF: RefCell<Vec<RunPerf>> = const { RefCell::new(Vec::new()) };
}

/// Drains the calling thread's accumulated per-run perf records.
pub fn drain_run_perf() -> Vec<RunPerf> {
    RUN_PERF.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

/// Results of one run.
#[derive(Debug)]
pub struct RunResults {
    /// PCT distributions (milliseconds) per executed procedure kind.
    pub pct: BTreeMap<ProcedureKind, Percentiles>,
    /// Probe-UE interruption windows.
    pub windows: Vec<ProcedureWindow>,
    /// Procedures started / completed.
    pub started: u64,
    /// Critical paths completed.
    pub completed: u64,
    /// Re-attaches performed.
    pub re_attached: u64,
    /// Arrivals skipped because the UE was mid-procedure.
    pub skipped_busy: u64,
    /// S1AP retransmissions the UE population sent.
    pub retransmissions: u64,
    /// Procedures UEs abandoned after exhausting their retry budget.
    pub retries_exhausted: u64,
    /// Admission `Reject` frames UEs received.
    pub rejected: u64,
    /// Largest engine queue depth across control-plane nodes (CTAs, CPFs,
    /// UPFs) over the whole run.
    pub max_queue_depth: usize,
    /// Procedures still in flight when the run ended (0 after a fully
    /// drained run).
    pub incomplete: u64,
    /// Explicit procedure failures: procedures still incomplete at the end
    /// of the run, plus procedures the CTA's ACK-timeout scan pruned from
    /// the log (their replication never converged — previously these
    /// silently vanished from all accounting).
    pub failed_procedures: u64,
    /// Peak total CTA log bytes (Fig. 17).
    pub max_log_bytes: usize,
    /// Aggregated CTA counters.
    pub cta: CtaMetrics,
    /// Aggregated CPF counters.
    pub cpf: CpfMetrics,
    /// Engine throughput for this run (events processed, wall time). Not
    /// serialized into figure outputs — wall-clock varies run to run.
    pub sim: SimStats,
    /// Cross-node consistency audit: one pass shortly after each injected
    /// failure plus a final pass at the end of the run. `None` when the run
    /// injected no failures.
    pub audit: Option<AuditReport>,
}

impl RunResults {
    /// Summary of one procedure kind's PCT (NaN-filled when absent).
    pub fn summary(&mut self, kind: ProcedureKind) -> Summary {
        self.pct.entry(kind).or_default().summary()
    }

    /// Median PCT across every recorded procedure (milliseconds).
    pub fn median_pct_ms(&mut self) -> f64 {
        let mut all = Percentiles::new();
        for p in self.pct.values() {
            all.merge(p);
        }
        all.median()
    }
}

/// The CPF the deployment's rings make primary for a UE (victim selection
/// in failure experiments; mirrors the UE population's region routing).
pub fn primary_cpf_for(
    config: &SystemConfig,
    layout: RegionLayout,
    ue: neutrino_common::UeId,
) -> Option<CpfId> {
    let mut layout = layout;
    layout.replicas = config.replicas;
    let deployment = neutrino_geo::Deployment::build(layout);
    // All workload traffic enters region 0 (see `Cluster::build`).
    let region = &deployment.regions()[0];
    deployment.ring_stack(region.id)?.primary(ue)
}

/// Rewrites generic handover arrivals to the system's handover flavor:
/// proactive geo-replication turns a handover-with-CPF-change into a fast
/// handover (§4.3).
pub fn adapt_workload(config: &SystemConfig, workload: Workload) -> Workload {
    let proactive = config.handover == HandoverPolicy::Proactive;
    Workload::new(workload.into_arrivals().map(move |mut a: Arrival| {
        if proactive && a.kind == ProcedureKind::HandoverWithCpfChange {
            a.kind = ProcedureKind::FastHandover;
        }
        a
    }))
}

/// Runs one experiment to completion and extracts everything the figures
/// need.
pub fn run_experiment(spec: ExperimentSpec) -> RunResults {
    let workload = adapt_workload(&spec.config, spec.workload);
    // Runaway-loop budget scales with the horizon: a genuine feedback loop
    // trips it with a descriptive panic (virtual time, heap size, deepest
    // backlog) instead of the old silent 2B-event stop.
    let mut cluster = Cluster::build_with_sim(
        spec.config,
        spec.layout,
        workload,
        spec.uecfg,
        spec.links,
        SimConfig::for_horizon(spec.horizon),
        spec.seed,
        spec.shards,
    );
    for f in &spec.failures {
        cluster.fail_cpf_at(f.at, f.cpf);
    }
    // The horizon bounds stragglers (retry loops after unrecoverable
    // failures); the workload itself ends the run in the common case.
    // Failure runs execute in segments so the consistency audit can observe
    // the cluster inside each post-failure window; the audit is read-only
    // and segmented `run_until` calls process the identical event stream,
    // so fault-free runs and failure runs stay byte-reproducible.
    let horizon_end = Instant::ZERO + spec.horizon;
    let audit = if spec.failures.is_empty() {
        cluster.run_until(horizon_end);
        None
    } else {
        let mut report = AuditReport::default();
        let mut pauses: Vec<Instant> = spec
            .failures
            .iter()
            .map(|f| f.at + Duration::from_millis(2))
            .collect();
        pauses.sort_unstable();
        for pause in pauses {
            if pause < horizon_end {
                cluster.run_until(pause);
                report.merge(audit_cluster(&mut cluster));
            }
        }
        cluster.run_until(horizon_end);
        report.merge(audit_cluster(&mut cluster));
        Some(report)
    };
    let sim = cluster.sim.sim_stats();
    RUN_PERF.with(|p| {
        p.borrow_mut().push(RunPerf {
            events_processed: sim.events_processed,
            wall: sim.wall,
        })
    });
    let results = cluster.take_results();
    let cta = cluster.cta_metrics();
    let max_queue_depth = cluster.max_control_queue_depth();
    RunResults {
        pct: results.pct,
        windows: results.windows,
        started: results.started,
        completed: results.completed,
        re_attached: results.re_attached,
        skipped_busy: results.skipped_busy,
        retransmissions: results.retransmissions,
        retries_exhausted: results.retries_exhausted,
        rejected: results.rejected,
        max_queue_depth,
        incomplete: results.incomplete,
        failed_procedures: results.incomplete + cta.timeout_pruned,
        max_log_bytes: cluster.max_log_bytes(),
        cta,
        cpf: cluster.cpf_metrics(),
        sim,
        audit,
    }
}
