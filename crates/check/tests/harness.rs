//! End-to-end tests of the checking harness itself.
//!
//! Simulation-scale cases are release-gated (`cargo test --release`), and
//! the explorer-scale sweep is `#[ignore]`d for the `check-long` CI job —
//! see TESTING.md.

use neutrino_bench::sweep::run_cells_with;
use neutrino_check::corpus::{self, CorpusCase};
use neutrino_check::run::{run_case, CheckReport};
use neutrino_check::scenario::{CasePlan, Scenario};
use neutrino_check::shrink::shrink;

/// The harness's own determinism: same plan, same bytes.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn failover_seed_is_clean_and_replays_byte_identically() {
    let plan = Scenario::by_name("failover").unwrap().plan(1);
    let first = run_case(&plan);
    assert!(
        first.is_clean(),
        "failover seed 1 must be clean on a healthy tree:\n{}",
        first.to_json()
    );
    assert!(first.passes > 2, "oracle must actually pause the run");
    assert!(
        first.fingerprint.completed > 0,
        "the measured phase must complete procedures"
    );
    let second = run_case(&plan);
    assert_eq!(first.to_json(), second.to_json(), "replay must be byte-identical");
}

/// Self-test of the detect→shrink→pin pipeline, with no code sabotage
/// needed: the existing EPC *does* violate continuous consistency after a
/// CPF crash (the paper's motivating observation), so running it with the
/// `consistency` invariant forced on is a guaranteed, deterministic
/// failure.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn epc_violation_is_detected_shrunk_and_pinned() {
    let mut plan = Scenario::by_name("epc-reattach").unwrap().plan(3);
    plan.invariants.push("consistency".to_string());
    let report = run_case(&plan);
    assert!(
        !report.is_clean(),
        "EPC + crash must violate continuous consistency"
    );
    assert!(report
        .violations
        .iter()
        .any(|v| v.invariant == "consistency"));

    let outcome = shrink(&plan, 40);
    assert!(!outcome.report.is_clean());
    assert!(
        outcome.plan.ues <= plan.ues && outcome.plan.duration_ms <= plan.duration_ms,
        "shrinking must not grow the plan"
    );

    // Pin it, reload it, and prove byte-identical replay of the pin.
    let dir = std::env::temp_dir().join(format!("neutrino-check-pin-{}", std::process::id()));
    let case = CorpusCase {
        violation: outcome.report.violations.first().cloned(),
        fingerprint: outcome.report.fingerprint.clone(),
        plan: outcome.plan,
    };
    let path = corpus::save(&dir, &case).unwrap();
    let loaded = corpus::load(&path).unwrap();
    assert_eq!(loaded, case);
    let replayed = run_case(&loaded.plan);
    assert_eq!(
        replayed.to_json(),
        outcome.report.to_json(),
        "pinned case must replay byte-identically"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every pinned corpus case replays clean and byte-identically on this
/// tree (the corpus contract).
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn corpus_cases_replay_clean() {
    for (path, case) in corpus::load_dir(&corpus::corpus_dir()).unwrap() {
        let first = run_case(&case.plan);
        assert!(
            first.is_clean(),
            "{} must replay clean on a healthy tree:\n{}",
            path.display(),
            first.to_json()
        );
        let second = run_case(&case.plan);
        assert_eq!(
            first.to_json(),
            second.to_json(),
            "{} must replay byte-identically",
            path.display()
        );
    }
}

/// The flash-crowd storm under admission control: clean, and not
/// vacuously — the gate must actually shed part of the herd, the UEs must
/// see `Reject`s, and the queue must stay under the plan's cap.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn flash_crowd_is_clean_and_actually_sheds() {
    let plan = Scenario::by_name("flash-crowd-reattach").unwrap().plan(1);
    let storm = plan.storm.as_ref().unwrap();
    let report = run_case(&plan);
    assert!(
        report.is_clean(),
        "flash-crowd seed 1 must be clean on a healthy tree:\n{}",
        report.to_json()
    );
    let f = &report.fingerprint;
    let shed: u64 = f.shed.iter().sum();
    let admitted: u64 = f.admitted.iter().sum();
    assert!(shed > 0, "the herd must overrun the gate (nothing was shed)");
    assert!(admitted > 0, "the gate must admit the paced retries");
    assert!(f.rejected > 0, "UEs must observe Reject frames");
    assert!(
        f.max_queue_depth <= storm.queue_cap,
        "queue depth {} exceeds cap {}",
        f.max_queue_depth,
        storm.queue_cap
    );
    assert!(
        f.completed > 0 && f.started > 0,
        "admitted work must complete"
    );
}

/// The same storm with the admission gate disabled must demonstrably
/// violate `bounded-queue` — the invariant is falsifiable, and admission
/// is what holds it.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn flash_crowd_without_admission_overflows_the_queue() {
    let mut plan = Scenario::by_name("flash-crowd-reattach").unwrap().plan(1);
    plan.storm.as_mut().unwrap().admission_rate_pps = 0;
    let report = run_case(&plan);
    assert!(
        !report.is_clean(),
        "an ungated flash crowd must violate at least bounded-queue"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "bounded-queue"),
        "bounded-queue must be among the violations:\n{}",
        report.to_json()
    );
    assert_eq!(
        report.fingerprint.rejected, 0,
        "no gate, no rejects — the overload is pure queue growth"
    );
}

/// The IoT pulse storm under admission control: clean, sheds, and every
/// pulse's retries drain before the run ends.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn iot_burst_storm_is_clean_and_actually_sheds() {
    let plan = Scenario::by_name("iot-burst-storm").unwrap().plan(1);
    let storm = plan.storm.as_ref().unwrap();
    let report = run_case(&plan);
    assert!(
        report.is_clean(),
        "iot-burst seed 1 must be clean on a healthy tree:\n{}",
        report.to_json()
    );
    let f = &report.fingerprint;
    assert!(f.shed.iter().sum::<u64>() > 0, "pulses must overrun the gate");
    assert!(f.rejected > 0, "UEs must observe Reject frames");
    assert!(f.max_queue_depth <= storm.queue_cap);
}

/// Same-seed replay across worker counts (the overload-control
/// determinism witness): identical plans produce byte-identical reports —
/// including the shed/admit class counters — whether the sweep runs on 1
/// or 8 jobs.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn storm_reports_are_independent_of_jobs() {
    let scenario = Scenario::by_name("flash-crowd-reattach").unwrap();
    let run_sweep = |jobs: usize| -> Vec<String> {
        let cells = (1..4u64)
            .map(|seed| {
                let plan = scenario.plan(seed);
                Box::new(move || run_case(&plan).to_json())
                    as Box<dyn FnOnce() -> String + Send>
            })
            .collect();
        run_cells_with(jobs, cells)
    };
    let (one, eight) = (run_sweep(1), run_sweep(8));
    assert_eq!(one, eight, "storm reports must not depend on --jobs");
    for json in &one {
        assert!(
            json.contains("\"shed\""),
            "the replay witness must cover the shed/admit sequence"
        );
    }
}

/// Results are input-ordered regardless of worker count, so a sweep's
/// output is byte-identical for any `--jobs`.
#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn sweep_output_is_independent_of_jobs() {
    let scenario = Scenario::by_name("failover").unwrap();
    let run_sweep = |jobs: usize| -> Vec<String> {
        let cells = (40..44u64)
            .map(|seed| {
                let plan = scenario.plan(seed);
                Box::new(move || run_case(&plan).to_json())
                    as Box<dyn FnOnce() -> String + Send>
            })
            .collect();
        run_cells_with(jobs, cells)
    };
    assert_eq!(run_sweep(1), run_sweep(4));
}

/// Explorer-scale sweep: 100 seeds across two scenarios, all clean.
#[test]
#[ignore = "explorer-scale; run via the check-long CI job (cargo test --release -- --ignored)"]
fn explorer_sweep_stays_clean() {
    for name in ["failover", "chaos"] {
        let scenario = Scenario::by_name(name).unwrap();
        let plans: Vec<CasePlan> = (0..50).map(|seed| scenario.plan(seed)).collect();
        let cells = plans
            .iter()
            .cloned()
            .map(|plan| {
                Box::new(move || run_case(&plan)) as Box<dyn FnOnce() -> CheckReport + Send>
            })
            .collect();
        let reports = run_cells_with(8, cells);
        for (plan, report) in plans.iter().zip(&reports) {
            assert!(
                report.is_clean(),
                "scenario {} seed {} violated:\n{}",
                name,
                plan.seed,
                report.to_json()
            );
        }
    }
}
