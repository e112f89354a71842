//! Tests of the benchmark's own code: metric names, the parity gate, the
//! wire gate, the seed map, and the run loop against `run_experiment`.

use super::*;
use crate::report::valid_name;
use crate::workloads::{paper_faults, trace_mix, SimInputs};
use neutrino_common::time::{Duration as SimDuration, Instant as SimInstant};
use neutrino_common::UeId;
use neutrino_core::experiment::{primary_cpf_for, run_experiment, ExperimentSpec, FailureSpec};
use neutrino_core::uepop::Arrival;
use neutrino_messages::procedures::ProcedureKind;

/// 300 attaches, one every 100 µs, from `first_ue` on.
fn tiny_attach(first_ue: u64, extra: bool) -> SimInputs {
    let n = if extra { 301 } else { 300 };
    let arrivals = (0..n)
        .map(|i| Arrival {
            at: SimInstant::ZERO + SimDuration::from_micros(100 * i),
            ue: UeId::new(first_ue + i),
            kind: ProcedureKind::InitialAttach,
        })
        .collect();
    SimInputs::new(arrivals, SimDuration::from_secs(1))
}

/// `tiny_attach` on lossy links with the first UE's CPF crashing mid-run.
fn tiny_failover(seed: u64) -> SimInputs {
    let mut inputs = tiny_attach(0, false);
    let cpf = primary_cpf_for(&inputs.config, Default::default(), UeId::new(0)).expect("a CPF");
    inputs.failure = Some(FailureSpec {
        at: SimInstant::ZERO + SimDuration::from_millis(15),
        cpf,
    });
    inputs.links.faults = paper_faults();
    inputs.link_seed = seed;
    inputs
}

fn tiny_rep(make: impl FnOnce() -> SimInputs) -> Rep {
    rep_of(make, &mut Reference::new())
}

/// The `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let k = format!("\"{key}\": \"");
        let at = entry.find(&k).expect("key present") + k.len();
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn emitted(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn metric_names_are_valid_and_match_benchmark_json() {
    let mut e2e = Report::default();
    end_to_end(&mut e2e, &[tiny_rep(|| tiny_attach(0, false))]);
    let (traced, trace) = run_traced(tiny_attach(0, false));
    let pair = Pair {
        plain: tiny_rep(|| tiny_attach(0, false)),
        traced,
        trace,
        framing: None,
    };
    let mut layers = Report::default();
    layer_metrics(&mut layers, &[pair], None);
    for r in [&e2e, &layers] {
        for m in &r.metrics {
            assert!(valid_name(&m.name), "{} is not [A-Za-z0-9_.-]+", m.name);
        }
    }
    assert_eq!(emitted(&e2e), declared("end_to_end"));
    assert_eq!(emitted(&layers), declared("per_layer"));
    for bad in ["", "a b", "x/y", "-lead", "é", &"a".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
    let mut r = Report::default();
    r.metric("run_s", 1.0, "s");
    r.metric("run_s", 2.0, "s");
    r.attempted = 1;
    assert!(!r.finish(), "a duplicate name must fail the report");
}

#[test]
fn parity_gate_holds_for_the_mirror_and_fires_on_divergence() {
    for make in [|| tiny_attach(0, false), || tiny_failover(3)] {
        let plain = tiny_rep(make).outcome;
        let (traced, trace) = run_traced(make());
        assert!(
            parity(&traced, &plain),
            "traced mirror diverged: {traced:?} vs {plain:?}"
        );
        assert!(trace.layers.iter().all(|t| t.calls > 0 || t.nanos == 0));
    }
    let plain = tiny_rep(|| tiny_attach(0, false)).outcome;
    let (divergent, _) = run_traced(tiny_attach(0, true));
    assert!(
        !parity(&divergent, &plain),
        "one extra arrival must break parity"
    );
    let mut nudged = plain.clone();
    nudged.pct_tail_ms = f64::from_bits(nudged.pct_tail_ms.to_bits() + 1);
    assert!(
        !parity(&nudged, &plain),
        "a one-ulp PCT change must break parity"
    );
}

#[test]
fn wire_gate_fires_on_a_corrupted_frame() {
    let captured = Arc::new(Mutex::new(Vec::new()));
    run_untraced(
        || tiny_attach(0, false),
        Some(wire::capture_tap(Arc::clone(&captured))),
    );
    let frames = std::mem::take(&mut *captured.lock().expect("not poisoned"));
    assert!(!frames.is_empty());
    assert_eq!(
        wire::verify(&frames).0,
        0,
        "captured traffic must round-trip"
    );
    let mut buf = Vec::new();
    for (codec, name) in wire::CODECS {
        for msg in &frames[..20] {
            neutrino_net::framing::encode_sysmsg(msg, codec, &mut buf).expect("encodes");
            assert!(
                wire::frame_matches(msg, codec, &buf),
                "{name}: clean frame rejected"
            );
            let mut truncated = buf.clone();
            truncated.pop();
            assert!(
                !wire::frame_matches(msg, codec, &truncated),
                "{name}: truncated frame passed"
            );
            let mut retagged = buf.clone();
            retagged[0] ^= 0xff;
            assert!(
                !wire::frame_matches(msg, codec, &retagged),
                "{name}: bad tag passed"
            );
        }
    }
    let mut r = Report::default();
    wire_gate(&mut r, frames.len(), 1);
    r.attempted = 1;
    assert!(!r.finish(), "one failed round trip must fail the run");
}

#[test]
fn seeds_give_distinct_inputs_that_repeat_exactly() {
    for w in Workload::ALL {
        let (a, b, c) = (sim_inputs(w, 1), sim_inputs(w, 1), sim_inputs(w, 2));
        assert!(
            a.arrivals == b.arrivals && a.link_seed == b.link_seed,
            "{}: seed 1 twice differs",
            w.name()
        );
        assert!(
            a.arrivals != c.arrivals || a.link_seed != c.link_seed,
            "{}: seeds 1 and 2 agree",
            w.name()
        );
    }
    let run = |seed| tiny_rep(move || trace_mix(seed, 300, 1)).outcome;
    assert_eq!(run(1), run(1));
    assert_ne!(
        run(1).events,
        run(2).events,
        "two trace seeds must give different event counts"
    );
    let lossy = |seed| tiny_rep(move || tiny_failover(seed)).outcome;
    assert_ne!(
        lossy(1).events,
        lossy(2).events,
        "two fault seeds must give different event counts"
    );
}

#[test]
fn untraced_runner_matches_run_experiment() {
    for make in [|| tiny_attach(0, false), || tiny_failover(5)] {
        let rep = tiny_rep(make);
        let inputs = make();
        let mut spec = ExperimentSpec::new(
            inputs.config.clone(),
            neutrino_core::Workload::from_vec(inputs.arrivals),
        );
        spec.horizon = inputs.horizon;
        spec.uecfg = inputs.uecfg;
        spec.links = inputs.links;
        spec.seed = inputs.link_seed;
        spec.shards = 1;
        spec.failures = inputs.failure.into_iter().collect();
        let mut res = run_experiment(spec);
        assert_eq!(rep.outcome.events, res.sim.events_processed);
        assert_eq!(rep.outcome.started, res.started);
        assert_eq!(rep.outcome.completed, res.completed);
        assert_eq!(
            rep.outcome.failed,
            res.failed_procedures + res.retries_exhausted
        );
        assert_eq!(rep.outcome.pct_p50_ms, res.median_pct_ms());
        let audit = res
            .audit
            .as_ref()
            .map(|a| (a.passes, a.ues_checked))
            .unwrap_or((0, 0));
        assert_eq!((rep.audit.passes, rep.audit.ues_checked), audit);
    }
}
