//! The scenario DSL: named chaos families that expand, per seed, into
//! fully concrete [`CasePlan`]s.
//!
//! A [`Scenario`] composes a system under test, a traffic profile, and
//! randomization *ranges* for the fault dimensions (link loss/duplication/
//! reorder, timed partitions, CPF crashes). [`Scenario::plan`] draws every
//! concrete value from a splitmix64 chain over the seed, so the same
//! `(scenario, seed)` pair always produces the identical plan — and the
//! plan itself is plain serializable data, so a failing case can be pinned
//! to disk and replayed byte-identically with no reference back to the
//! scenario that generated it.

use neutrino_cta::AdmissionParams;
use serde::{Deserialize, Serialize};

/// One endpoint of a partition window, resolved against the deployment at
/// build time (`kind` is `"cta"` or `"cpf"`, `index` picks within region 0).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EndpointPlan {
    /// Node class: `"cta"` or `"cpf"`.
    pub kind: String,
    /// Index into region 0's nodes of that class (wrapped by modulo).
    pub index: u64,
}

/// One scheduled CPF crash. Times are relative to the measured-phase start
/// so they stay meaningful when the shrinker shortens the attach phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPlan {
    /// Milliseconds after the measured phase starts.
    pub at_ms: u64,
    /// Index into region 0's CPF pool (wrapped by modulo).
    pub cpf_index: u64,
}

/// One timed bidirectional partition window (relative to measured start).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionPlan {
    /// Window start, milliseconds after the measured phase starts.
    pub from_ms: u64,
    /// Window end (exclusive), milliseconds after the measured phase starts.
    pub until_ms: u64,
    /// One side of the cut.
    pub a: EndpointPlan,
    /// The other side.
    pub b: EndpointPlan,
}

/// Overload-storm extras of a plan: which storm generator shapes the
/// workload, the CTA admission gate's sizing, and the queue-depth bound
/// the `bounded-queue` invariant enforces. Fields that a shape does not
/// use are zero.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StormPlan {
    /// Storm generator: `"flash-crowd"` or `"iot-burst"`.
    pub shape: String,
    /// CTA admission-gate rate (procedures/second); `0` disables the gate
    /// entirely — the configuration the storm is expected to break.
    pub admission_rate_pps: u64,
    /// Engine-queue depth cap the `bounded-queue` invariant checks against
    /// (derived from the admission sizing, kept even when the gate is
    /// disabled so the violation is observable).
    pub queue_cap: u64,
    /// Flash-crowd: steady-phase length before the blackout (ms).
    pub steady_ms: u64,
    /// Flash-crowd: outage-detection lag before the herd re-attaches (ms).
    pub surge_delay_ms: u64,
    /// Flash-crowd: the herd's aggregate re-attach rate (pps).
    pub surge_rate_pps: u64,
    /// Flash-crowd: steady traffic after the surge drains (ms).
    pub tail_ms: u64,
    /// IoT-burst: synchronized pulses after the attach pulse.
    pub pulses: u64,
    /// IoT-burst: pulse period (ms).
    pub period_ms: u64,
    /// IoT-burst: window each pulse packs the fleet into (ms).
    pub window_ms: u64,
}

/// One explicitly scheduled procedure start in a small-model plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrivalPlan {
    /// Microseconds after the origin (small-model runs have no attach
    /// phase; the measured clock starts at zero).
    pub at_us: u64,
    /// UE index.
    pub ue: u64,
    /// Procedure kind name (see
    /// [`ProcedureKind::name`](neutrino_messages::procedures::ProcedureKind::name)).
    pub kind: String,
}

/// Small-model override for exhaustive interleaving checking: a tiny
/// fixed topology plus a hand-pinned arrival schedule that replaces the
/// rate-based workload entirely. Arrivals are pinned to shared ticks on
/// purpose — simultaneous deliveries are exactly what the checker
/// enumerates, and a rate-based workload would leave tie formation to
/// chance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmallModelPlan {
    /// CPFs per region (layout override; the default deployment has 5).
    pub cpfs_per_region: u64,
    /// Base stations per region.
    pub bss_per_region: u64,
    /// UPFs per region.
    pub upfs_per_region: u64,
    /// The explicit arrival schedule.
    pub arrivals: Vec<ArrivalPlan>,
}

/// A fully concrete, self-contained chaos schedule: everything one checked
/// run needs. Probabilities are parts-per-million integers so the JSON
/// form is byte-stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CasePlan {
    /// The scenario family this plan came from (informational).
    pub scenario: String,
    /// The seed it was drawn with; also the link-layer fault/jitter seed.
    pub seed: u64,
    /// System under test (a [`SystemConfig`](neutrino_core::SystemConfig)
    /// constructor name, e.g. `"neutrino"` or `"existing_epc"`).
    pub system: String,
    /// Procedure kind driven during the measured phase
    /// ([`ProcedureKind::name`](neutrino_messages::procedures::ProcedureKind::name)).
    pub kind: String,
    /// Measured-phase arrival rate (procedures/second).
    pub rate_pps: u64,
    /// UE pool size (attached before the measured phase).
    pub ues: u64,
    /// Measured-phase duration in milliseconds.
    pub duration_ms: u64,
    /// Drain margin after the measured phase (stragglers and retries).
    pub drain_ms: u64,
    /// Oracle pass interval in milliseconds.
    pub check_interval_ms: u64,
    /// Per-link loss probability, parts per million.
    pub loss_ppm: u64,
    /// Per-link duplication probability, parts per million.
    pub duplicate_ppm: u64,
    /// Per-link reorder probability, parts per million.
    pub reorder_ppm: u64,
    /// Reorder hold-back window, microseconds.
    pub reorder_window_us: u64,
    /// Per-hop jitter bound, microseconds.
    pub jitter_us: u64,
    /// Scheduled CPF crashes.
    pub crashes: Vec<CrashPlan>,
    /// Timed partition windows.
    pub partitions: Vec<PartitionPlan>,
    /// Invariants to check, by catalog name (see `oracle::ALL_INVARIANTS`).
    pub invariants: Vec<String>,
    /// Overload-storm extras; `None` (the default, so pinned pre-storm
    /// corpus cases still parse) means the uniform workload.
    #[serde(default)]
    pub storm: Option<StormPlan>,
    /// Interleaving replay script from the small-model checker: at the
    /// k-th *contended* delivery choice point, dispatch the
    /// `choice_trace[k]`-th enabled delivery; identity (lowest sequence)
    /// beyond the end of the trace. Pre-mcheck corpus files omit the
    /// field; parsing treats the omission as empty.
    #[serde(default)]
    pub choice_trace: Vec<u32>,
    /// Small-model topology/workload override (exhaustive checking);
    /// `None` means the rate-based workload on the default deployment.
    #[serde(default)]
    pub small_model: Option<SmallModelPlan>,
}

/// A stateless splitmix64 stream — the same generator family the link
/// fault layer uses, so plans and fault draws share one reproducibility
/// story.
pub struct SplitMix(u64);

impl SplitMix {
    /// Starts a stream at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform draw in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Inclusive randomization range.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Lower bound.
    pub lo: u64,
    /// Upper bound (inclusive).
    pub hi: u64,
}

const fn span(lo: u64, hi: u64) -> Span {
    Span { lo, hi }
}

/// A named chaos family: the ranges every per-seed draw comes from.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name (the explorer's `--scenario` argument).
    pub name: &'static str,
    /// What the family stresses (shown by `explore --list`).
    pub summary: &'static str,
    /// System under test (config constructor name).
    pub system: &'static str,
    /// Measured-phase procedure kind.
    pub kind: &'static str,
    /// Arrival rate range (pps).
    pub rate_pps: Span,
    /// UE pool range.
    pub ues: Span,
    /// Measured duration range (ms).
    pub duration_ms: Span,
    /// Loss probability range (ppm).
    pub loss_ppm: Span,
    /// Duplication probability range (ppm).
    pub duplicate_ppm: Span,
    /// Reorder probability range (ppm).
    pub reorder_ppm: Span,
    /// Jitter bound range (µs).
    pub jitter_us: Span,
    /// CPF crash count range.
    pub crashes: Span,
    /// Partition window count range.
    pub partitions: Span,
    /// Invariants checked (catalog names).
    pub invariants: &'static [&'static str],
    /// Overload-storm dimensions (`None` for uniform-workload families).
    pub storm: Option<StormSpec>,
}

/// Randomization ranges of a storm family's overload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct StormSpec {
    /// Storm generator: `"flash-crowd"` or `"iot-burst"`.
    pub shape: &'static str,
    /// CTA admission-gate rate range (pps). Always nonzero here — the
    /// registered storm families must sweep clean; tests disable the gate
    /// by zeroing the planned rate to demonstrate the violation.
    pub admission_rate_pps: Span,
    /// Flash-crowd: herd rate = steady `rate_pps` × this multiplier.
    pub surge_mult: Span,
    /// IoT-burst: pulse count range.
    pub pulses: Span,
    /// IoT-burst: pulse period range (ms).
    pub period_ms: Span,
    /// IoT-burst: pulse window range (ms).
    pub window_ms: Span,
}

/// Invariant set for systems that guarantee continuous consistency.
const NEUTRINO_INVARIANTS: &[&str] = &[
    "consistency",
    "no-lost-procedure",
    "bounded-stall",
    "session-ownership",
    "bounded-retry",
    "monotonic-checkpoint",
];

/// Invariant set for re-attach baselines: everything except continuous
/// consistency (which they violate by design after a failure).
const BASELINE_INVARIANTS: &[&str] = &[
    "no-lost-procedure",
    "bounded-stall",
    "session-ownership",
    "bounded-retry",
    "monotonic-checkpoint",
];

/// Invariant set for the overload-storm families. `bounded-retry` is
/// replaced by `no-retry-amplification`: under admission control the UE
/// population *deliberately* retransmits after every `Reject`, so the
/// drop-proportional retry budget does not apply — the amplification bound
/// (at most one re-offer per reject) does.
const STORM_INVARIANTS: &[&str] = &[
    "consistency",
    "no-lost-procedure",
    "bounded-stall",
    "session-ownership",
    "monotonic-checkpoint",
    "bounded-queue",
    "shed-priority-order",
    "no-retry-amplification",
];

impl Scenario {
    /// Every built-in scenario.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario {
                name: "failover",
                summary: "Neutrino CPF crash mid-run under light link faults",
                system: "neutrino",
                kind: "service-request",
                rate_pps: span(8_000, 24_000),
                ues: span(1_500, 3_000),
                duration_ms: span(200, 400),
                loss_ppm: span(0, 15_000),
                duplicate_ppm: span(0, 8_000),
                reorder_ppm: span(0, 25_000),
                jitter_us: span(0, 20),
                crashes: span(1, 1),
                partitions: span(0, 0),
                invariants: NEUTRINO_INVARIANTS,
                storm: None,
            },
            Scenario {
                name: "partition",
                summary: "timed CTA–CPF / CPF–CPF partitions, no crash",
                system: "neutrino",
                kind: "service-request",
                rate_pps: span(8_000, 20_000),
                ues: span(1_500, 2_500),
                duration_ms: span(250, 450),
                loss_ppm: span(0, 10_000),
                duplicate_ppm: span(0, 5_000),
                reorder_ppm: span(0, 15_000),
                jitter_us: span(0, 20),
                crashes: span(0, 0),
                partitions: span(1, 2),
                invariants: NEUTRINO_INVARIANTS,
                storm: None,
            },
            Scenario {
                name: "chaos",
                summary: "crash + partitions + heavy loss/dup/reorder at once",
                system: "neutrino",
                kind: "service-request",
                rate_pps: span(6_000, 18_000),
                ues: span(1_200, 2_400),
                duration_ms: span(250, 500),
                loss_ppm: span(5_000, 50_000),
                duplicate_ppm: span(0, 20_000),
                reorder_ppm: span(5_000, 60_000),
                jitter_us: span(0, 40),
                crashes: span(0, 2),
                partitions: span(0, 2),
                invariants: NEUTRINO_INVARIANTS,
                storm: None,
            },
            Scenario {
                name: "handover-failover",
                summary: "CPF crash while handovers migrate state",
                system: "neutrino",
                kind: "handover-cpf-change",
                rate_pps: span(8_000, 20_000),
                ues: span(1_500, 2_500),
                duration_ms: span(200, 400),
                loss_ppm: span(0, 15_000),
                duplicate_ppm: span(0, 8_000),
                reorder_ppm: span(0, 25_000),
                jitter_us: span(0, 20),
                crashes: span(1, 1),
                partitions: span(0, 0),
                invariants: NEUTRINO_INVARIANTS,
                storm: None,
            },
            Scenario {
                name: "epc-reattach",
                summary: "existing-EPC crash recovery by re-attach (liveness only)",
                system: "existing_epc",
                kind: "service-request",
                rate_pps: span(6_000, 16_000),
                ues: span(1_200, 2_400),
                duration_ms: span(200, 400),
                loss_ppm: span(0, 10_000),
                duplicate_ppm: span(0, 5_000),
                reorder_ppm: span(0, 15_000),
                jitter_us: span(0, 20),
                crashes: span(1, 1),
                partitions: span(0, 0),
                invariants: BASELINE_INVARIANTS,
                storm: None,
            },
            Scenario {
                name: "flash-crowd-reattach",
                summary: "regional blackout, then the whole population re-attaches at once",
                system: "neutrino",
                kind: "service-request",
                rate_pps: span(400, 800),
                ues: span(6_000, 10_000),
                duration_ms: span(1_000, 2_000),
                loss_ppm: span(0, 5_000),
                duplicate_ppm: span(0, 3_000),
                reorder_ppm: span(0, 10_000),
                jitter_us: span(0, 20),
                crashes: span(1, 2),
                partitions: span(0, 0),
                invariants: STORM_INVARIANTS,
                storm: Some(StormSpec {
                    shape: "flash-crowd",
                    admission_rate_pps: span(2_500, 4_000),
                    surge_mult: span(300, 500),
                    pulses: span(0, 0),
                    period_ms: span(0, 0),
                    window_ms: span(0, 0),
                }),
            },
            Scenario {
                name: "iot-burst-storm",
                summary: "IoT fleet wakes in synchronized diurnal pulses",
                system: "neutrino",
                kind: "tracking-area-update",
                rate_pps: span(1_000, 1_000),
                ues: span(2_000, 4_000),
                duration_ms: span(6_000, 12_000),
                loss_ppm: span(0, 5_000),
                duplicate_ppm: span(0, 3_000),
                reorder_ppm: span(0, 10_000),
                jitter_us: span(0, 20),
                crashes: span(0, 0),
                partitions: span(0, 0),
                invariants: STORM_INVARIANTS,
                storm: Some(StormSpec {
                    shape: "iot-burst",
                    admission_rate_pps: span(1_500, 3_000),
                    surge_mult: span(0, 0),
                    pulses: span(2, 3),
                    period_ms: span(3_000, 5_000),
                    window_ms: span(50, 150),
                }),
            },
        ]
    }

    /// Looks a scenario up by name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|s| s.name == name)
    }

    /// Expands this family into the concrete plan for `seed`. Pure: the
    /// same `(scenario, seed)` always yields the identical plan.
    pub fn plan(&self, seed: u64) -> CasePlan {
        // Salt the stream with the scenario name so two scenarios sharing a
        // seed do not share their draw sequence.
        let salt = self
            .name
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
            });
        let mut rng = SplitMix::new(seed ^ salt);
        let duration_ms = rng.range(self.duration_ms.lo, self.duration_ms.hi);
        let crashes = (0..rng.range(self.crashes.lo, self.crashes.hi))
            .map(|_| CrashPlan {
                // Land well inside the measured window so traffic is
                // flowing both before and after the crash.
                at_ms: rng.range(20, duration_ms.saturating_sub(40).max(21)),
                cpf_index: rng.range(0, 4),
            })
            .collect();
        let partitions = (0..rng.range(self.partitions.lo, self.partitions.hi))
            .map(|_| {
                let from_ms = rng.range(10, duration_ms.saturating_sub(80).max(11));
                let len_ms = rng.range(20, 80);
                // Cut either the CTA↔CPF hop or a CPF↔CPF pair; never the
                // UE side, so the retry machinery always keeps cycling.
                let (a, b) = if rng.range(0, 1) == 0 {
                    (
                        EndpointPlan { kind: "cta".into(), index: 0 },
                        EndpointPlan { kind: "cpf".into(), index: rng.range(0, 4) },
                    )
                } else {
                    let x = rng.range(0, 4);
                    (
                        EndpointPlan { kind: "cpf".into(), index: x },
                        EndpointPlan { kind: "cpf".into(), index: (x + 1 + rng.range(0, 3)) % 5 },
                    )
                };
                PartitionPlan {
                    from_ms,
                    until_ms: (from_ms + len_ms).min(duration_ms),
                    a,
                    b,
                }
            })
            .collect();
        // Field draws stay in this exact order: reordering them would
        // silently change every existing (scenario, seed) plan.
        let rate_pps = rng.range(self.rate_pps.lo, self.rate_pps.hi);
        let ues = rng.range(self.ues.lo, self.ues.hi);
        let loss_ppm = rng.range(self.loss_ppm.lo, self.loss_ppm.hi);
        let duplicate_ppm = rng.range(self.duplicate_ppm.lo, self.duplicate_ppm.hi);
        let reorder_ppm = rng.range(self.reorder_ppm.lo, self.reorder_ppm.hi);
        let reorder_window_us = rng.range(100, 400);
        let jitter_us = rng.range(self.jitter_us.lo, self.jitter_us.hi);
        // Storm draws come after every pre-existing draw, so non-storm
        // scenarios (which skip this block) keep their historic plans.
        let mut crashes: Vec<CrashPlan> = crashes;
        let storm = self.storm.map(|sp| {
            let admission_rate_pps = rng.range(sp.admission_rate_pps.lo, sp.admission_rate_pps.hi);
            let plan = StormPlan {
                shape: sp.shape.to_string(),
                admission_rate_pps,
                queue_cap: AdmissionParams::for_rate(admission_rate_pps).queue_cap,
                steady_ms: duration_ms,
                surge_delay_ms: rng.range(200, 500),
                surge_rate_pps: rate_pps * rng.range(sp.surge_mult.lo.max(1), sp.surge_mult.hi.max(1)),
                tail_ms: 1_000,
                pulses: rng.range(sp.pulses.lo, sp.pulses.hi),
                period_ms: rng.range(sp.period_ms.lo, sp.period_ms.hi),
                window_ms: rng.range(sp.window_ms.lo, sp.window_ms.hi),
            };
            if sp.shape == "flash-crowd" {
                // The blackout IS the regional failure: every scheduled
                // crash lands exactly when the steady phase ends.
                for c in &mut crashes {
                    c.at_ms = plan.steady_ms;
                }
            }
            plan
        });
        CasePlan {
            scenario: self.name.to_string(),
            seed,
            system: self.system.to_string(),
            kind: self.kind.to_string(),
            rate_pps,
            ues,
            duration_ms,
            drain_ms: 10_000,
            check_interval_ms: 25,
            loss_ppm,
            duplicate_ppm,
            reorder_ppm,
            reorder_window_us,
            jitter_us,
            crashes,
            partitions,
            invariants: self.invariants.iter().map(|s| s.to_string()).collect(),
            storm,
            choice_trace: Vec::new(),
            small_model: None,
        }
    }
}

/// Baseline plan for the small-model registry: every fault dimension off,
/// every field explicit so the configs below only state what they change.
fn small_model_base(name: &str, seed: u64) -> CasePlan {
    CasePlan {
        scenario: name.to_string(),
        seed,
        system: "neutrino".to_string(),
        kind: "initial-attach".to_string(),
        rate_pps: 0,
        ues: 2,
        duration_ms: 3,
        drain_ms: 20,
        check_interval_ms: 1,
        loss_ppm: 0,
        duplicate_ppm: 0,
        reorder_ppm: 0,
        reorder_window_us: 0,
        jitter_us: 0,
        crashes: Vec::new(),
        partitions: Vec::new(),
        invariants: NEUTRINO_INVARIANTS.iter().map(|s| s.to_string()).collect(),
        storm: None,
        choice_trace: Vec::new(),
        small_model: None,
    }
}

/// Named small-model configurations for the exhaustive interleaving
/// checker. These are separate from [`Scenario::all`]: a scenario is a
/// randomization *family*, while a small-model config is one hand-built
/// cluster state whose contended deliveries the checker enumerates — the
/// seed only salts link-layer draws (which the healthy configs do not
/// use), so the plans here are essentially seed-independent.
pub fn small_model_plan(name: &str, seed: u64) -> Option<CasePlan> {
    match name {
        // Two UEs attach on the same tick, CPF 0 crashes, then both issue
        // same-tick service requests that ride the failover path. Every
        // attach step yields same-destination delivery ties at the CTA,
        // the UE population, and the CPF, so the contended-delivery tree
        // is deep enough to exceed 1,000 interleavings by bound 12 while
        // each path still runs in milliseconds.
        "mcheck-attach-failover" => {
            let mut plan = small_model_base(name, seed);
            plan.crashes = vec![CrashPlan { at_ms: 1, cpf_index: 0 }];
            plan.small_model = Some(SmallModelPlan {
                cpfs_per_region: 2,
                bss_per_region: 1,
                upfs_per_region: 1,
                arrivals: vec![
                    ArrivalPlan { at_us: 10, ue: 0, kind: "initial-attach".into() },
                    ArrivalPlan { at_us: 10, ue: 1, kind: "initial-attach".into() },
                    ArrivalPlan { at_us: 2_000, ue: 0, kind: "service-request".into() },
                    ArrivalPlan { at_us: 2_000, ue: 1, kind: "service-request".into() },
                ],
            });
            Some(plan)
        }
        // Rate-based two-UE run under heavy loss with a mid-run CPF
        // crash: the regression model for the PR 4 `replay_floor` fix.
        // Loss makes fault draws depend on dispatch order, so the checker
        // runs this config with partial-order reduction and state
        // deduplication off (every branch is a genuinely different run).
        "mcheck-replay-floor" => {
            let mut plan = small_model_base(name, seed);
            plan.kind = "service-request".to_string();
            plan.rate_pps = 50;
            plan.duration_ms = 3_000;
            plan.drain_ms = 12_000;
            plan.loss_ppm = 200_000;
            plan.crashes = vec![CrashPlan { at_ms: 1_800, cpf_index: 0 }];
            plan.invariants = vec!["consistency".to_string()];
            Some(plan)
        }
        _ => None,
    }
}

/// Names registered in [`small_model_plan`], for `explore --list`.
pub const SMALL_MODEL_NAMES: &[&str] = &["mcheck-attach-failover", "mcheck-replay-floor"];

/// Resolves a plan by name: small-model registry first, then the scenario
/// families.
pub fn plan_by_name(name: &str, seed: u64) -> Option<CasePlan> {
    small_model_plan(name, seed).or_else(|| Scenario::by_name(name).map(|s| s.plan(seed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let s = Scenario::by_name("failover").unwrap();
        assert_eq!(s.plan(7), s.plan(7));
        assert_ne!(s.plan(7), s.plan(8));
    }

    #[test]
    fn scenario_names_are_unique_and_resolvable() {
        let all = Scenario::all();
        for s in &all {
            assert_eq!(Scenario::by_name(s.name).unwrap().name, s.name);
        }
        let names: std::collections::HashSet<_> = all.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn plans_round_trip_through_json() {
        for s in Scenario::all() {
            let plan = s.plan(42);
            let json = serde_json::to_string_pretty(&plan).unwrap();
            let back: CasePlan = serde_json::from_str(&json).unwrap();
            assert_eq!(back, plan);
        }
    }

    #[test]
    fn pre_mcheck_json_without_new_fields_still_parses() {
        // A corpus file pinned before `choice_trace`/`small_model` existed
        // omits both keys; parsing must fill in the defaults.
        let plan = Scenario::by_name("failover").unwrap().plan(3);
        let json = serde_json::to_string_pretty(&plan)
            .unwrap()
            .replace(",\n  \"choice_trace\": []", "")
            .replace(",\n  \"small_model\": null", "");
        assert!(!json.contains("choice_trace"), "test setup: key not stripped");
        let back: CasePlan = serde_json::from_str(&json).unwrap();
        assert!(back.choice_trace.is_empty());
        assert!(back.small_model.is_none());
        assert_eq!(back, plan);
    }

    #[test]
    fn small_model_registry_resolves_and_round_trips() {
        for name in SMALL_MODEL_NAMES {
            let plan = plan_by_name(name, 0).unwrap();
            assert_eq!(&plan.scenario, name);
            let json = serde_json::to_string_pretty(&plan).unwrap();
            let back: CasePlan = serde_json::from_str(&json).unwrap();
            assert_eq!(back, plan);
        }
        assert!(small_model_plan("failover", 0).is_none());
        assert!(plan_by_name("failover", 0).is_some());
    }

    #[test]
    fn draws_land_in_their_spans() {
        let s = Scenario::by_name("chaos").unwrap();
        for seed in 0..50 {
            let p = s.plan(seed);
            assert!(p.rate_pps >= s.rate_pps.lo && p.rate_pps <= s.rate_pps.hi);
            assert!(p.ues >= s.ues.lo && p.ues <= s.ues.hi);
            assert!(p.duration_ms >= s.duration_ms.lo && p.duration_ms <= s.duration_ms.hi);
            assert!(p.crashes.len() as u64 <= s.crashes.hi);
            assert!(p.partitions.len() as u64 <= s.partitions.hi);
            for w in &p.partitions {
                assert!(w.from_ms < w.until_ms);
                assert!(w.until_ms <= p.duration_ms);
            }
        }
    }
}
