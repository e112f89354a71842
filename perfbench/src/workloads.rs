//! The four workloads and the map from `--seed` to their inputs.
//!
//! Every simulated workload is open-loop in simulated time: arrivals are
//! scheduled whether or not earlier procedures finished. The program only
//! ever sees the generated arrivals, never the seed.

use neutrino_common::time::{Duration, Instant};
use neutrino_common::UeId;
use neutrino_core::experiment::{primary_cpf_for, FailureSpec};
use neutrino_core::uepop::Arrival;
use neutrino_core::{LinkProfile, SystemConfig, UePopConfig};
use neutrino_geo::RegionLayout;
use neutrino_messages::procedures::ProcedureKind;
use neutrino_netsim::FaultSpec;
use neutrino_trafficgen::{uniform, uniform_with_pool, TraceGenerator, TraceParams, UniformParams};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform attach arrivals, every one a new UE: the insert-heavy
    /// workload with the largest per-UE working set.
    AttachFlood,
    /// A seeded ng4T-like trace: lookups and updates on a Zipf hot set.
    TraceMix,
    /// The Fig. 10 setup on lossy links: CPF crash, replay, audit.
    FailoverLossy,
    /// The framing codecs over `SysMsg` traffic captured from a
    /// `trace-mix`-like run.
    WireRoundtrip,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::AttachFlood,
        Workload::TraceMix,
        Workload::FailoverLossy,
        Workload::WireRoundtrip,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AttachFlood => "attach-flood",
            Workload::TraceMix => "trace-mix",
            Workload::FailoverLossy => "failover-lossy",
            Workload::WireRoundtrip => "wire-roundtrip",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Attach-flood arrival rate: below the single-pool knee, so the metric
/// tracks per-UE state growth rather than saturation.
const ATTACH_PPS: u64 = 60_000;
/// Attach-flood length: 60K pps × 0.5 s = 30K distinct UEs. Longer floods
/// grow the working set into DRAM, where host times on a shared machine
/// drift most between runs.
const ATTACH_MS: u64 = 500;
/// Probe UEs of the failover workload: enough that, after the ones that
/// finish before the crash, at least 100 windows span it, so p90 has ten
/// samples beyond it.
const PROBES: usize = 150;
/// Background handover rate of the failover workload.
const FAILOVER_PPS: u64 = 60_000;
/// Measured background-handover phase of the failover workload.
const FAILOVER_MS: u64 = 600;

/// Everything one simulated run needs. Derived from the seed alone.
pub struct SimInputs {
    /// The system under test (always Neutrino's default configuration).
    pub config: SystemConfig,
    /// The open-loop arrivals, in any order (sorted at build time).
    pub arrivals: Vec<Arrival>,
    /// UE-population settings; its `record_windows_for` is the probe set
    /// (empty but for `failover-lossy`).
    pub uecfg: UePopConfig,
    /// Link latencies and fault profile.
    pub links: LinkProfile,
    /// Link-layer seed (fault and jitter draws).
    pub link_seed: u64,
    /// Virtual-time end of the run.
    pub horizon: Duration,
    /// The injected CPF crash, if any (audit passes run only then).
    pub failure: Option<FailureSpec>,
}

impl SimInputs {
    pub(crate) fn new(arrivals: Vec<Arrival>, horizon: Duration) -> SimInputs {
        SimInputs {
            config: SystemConfig::neutrino(),
            arrivals,
            uecfg: UePopConfig::default(),
            links: LinkProfile::default(),
            link_seed: 0,
            horizon,
            failure: None,
        }
    }

    /// Whether a probe window counts: only the windows the crash lands in
    /// (Fig. 10's failure-inclusive PCT).
    pub fn probe_window_counts(&self, start: Instant, end: Instant) -> bool {
        self.failure.is_some_and(|f| start < f.at && end >= f.at)
    }
}

/// The simulated inputs of `workload` under `seed`. For `wire-roundtrip`
/// these are the inputs of its capture run.
pub fn sim_inputs(workload: Workload, seed: u64) -> SimInputs {
    match workload {
        Workload::AttachFlood => attach_flood(seed),
        Workload::TraceMix => trace_mix(seed, 20_000, 4),
        Workload::FailoverLossy => failover_lossy(seed),
        Workload::WireRoundtrip => trace_mix(seed, 4_000, 2),
    }
}

/// Seed → UE-id offset: each seed floods a disjoint id range, which moves
/// every UE to a different place on the CPF consistent-hash ring.
fn attach_flood(seed: u64) -> SimInputs {
    let ues = ATTACH_PPS * ATTACH_MS / 1_000;
    let first_ue = (seed % 1_000_000) * 1_000_000;
    let arrivals: Vec<Arrival> = uniform(UniformParams {
        rate_pps: ATTACH_PPS,
        duration: Duration::from_millis(ATTACH_MS),
        kind: ProcedureKind::InitialAttach,
        ues,
        first_ue,
        start: Instant::ZERO,
    })
    .into_arrivals()
    .collect();
    SimInputs::new(
        arrivals,
        Duration::from_millis(ATTACH_MS) + Duration::from_secs(10),
    )
}

/// Seed → `TraceParams::seed`. Inter-arrivals are compressed from the
/// published 106.9 s per device to 1 s so a short run carries real load.
pub(crate) fn trace_mix(seed: u64, devices: u64, secs: u64) -> SimInputs {
    let trace = TraceGenerator::new(TraceParams {
        devices,
        duration: Duration::from_secs(secs),
        mean_sr_interval: Duration::from_secs(1),
        seed,
        ..TraceParams::default()
    })
    .generate();
    let arrivals: Vec<Arrival> = trace.workload().into_arrivals().collect();
    SimInputs::new(arrivals, Duration::from_secs(secs + 10))
}

/// The paper fault profile of `repro fig10 --faults`: 1 % loss, 0.5 %
/// duplication, 2 % reorder within 200 µs on every link.
pub(crate) fn paper_faults() -> FaultSpec {
    FaultSpec {
        loss: 0.01,
        duplicate: 0.005,
        reorder: 0.02,
        reorder_window: Duration::from_micros(200),
    }
}

/// Seed → `ExperimentSpec::seed` (the link fault draws). The shape is
/// `repro fig10 --faults` at one rate: background handovers on an
/// attached pool, and probe UEs, all served by the victim CPF, that are
/// mid-handover when it crashes, with Fig. 10's probe spacing. Unlike
/// Fig. 10 it runs [`PROBES`] probes rather than 100 and samples every
/// procedure's PCT rather than one in 64.
fn failover_lossy(seed: u64) -> SimInputs {
    let config = SystemConfig::neutrino();
    let layout = RegionLayout::default();
    let pool = UniformParams::pool_for_rate(FAILOVER_PPS);
    let victim = primary_cpf_for(&config, layout, UeId::new(0)).expect("deployment has CPFs");
    let probes: Vec<UeId> = (0..pool)
        .map(UeId::new)
        .filter(|&ue| primary_cpf_for(&config, layout, ue) == Some(victim))
        .take(PROBES)
        .collect();
    let (background, measured_start) = uniform_with_pool(
        UniformParams {
            rate_pps: FAILOVER_PPS,
            duration: Duration::from_millis(FAILOVER_MS),
            kind: ProcedureKind::HandoverWithCpfChange,
            ues: pool,
            first_ue: 0,
            start: Instant::ZERO,
        },
        40_000,
    );
    let fail_at = measured_start + Duration::from_millis(200);
    let mut arrivals: Vec<Arrival> = background.into_arrivals().collect();
    arrivals.extend(probes.iter().enumerate().map(|(i, &ue)| Arrival {
        at: fail_at - Duration::from_micros(40 + (i as u64 % 50) * 20),
        ue,
        kind: ProcedureKind::HandoverWithCpfChange,
    }));
    let mut inputs = SimInputs::new(
        arrivals,
        Duration::from_millis(FAILOVER_MS) + Duration::from_secs(10),
    );
    inputs.uecfg.record_windows_for = probes.into_iter().collect();
    inputs.links.faults = paper_faults();
    inputs.link_seed = seed;
    inputs.failure = Some(FailureSpec {
        at: fail_at,
        cpf: victim,
    });
    inputs
}
