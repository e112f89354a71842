//! The parallel sweep must be invisible in the results: the same figure
//! run with 1 worker and with 8 workers serializes to byte-identical JSON.

use neutrino_bench::figures::{failure, pct, Profile};
use neutrino_bench::sweep::{self, Cell};
use neutrino_common::time::Duration;
use neutrino_core::SystemConfig;

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn jobs_1_and_jobs_8_serialize_byte_identically() {
    // One test drives both worker counts: `set_jobs` is process-global, so
    // the sequence must not interleave with other sweeps.
    sweep::set_jobs(1);
    let sequential = serde_json::to_string_pretty(&pct::fig8(Profile::Quick)).expect("ser");
    sweep::set_jobs(8);
    let parallel = serde_json::to_string_pretty(&pct::fig8(Profile::Quick)).expect("ser");
    sweep::set_jobs(0);
    assert_eq!(
        sequential, parallel,
        "figure JSON must not depend on the worker count"
    );
}

/// A miniature fault-injected failure grid (the `--faults` fig10 shape at a
/// fraction of the load), so the worker pool runs more cells than workers.
fn fault_grid() -> Vec<failure::FailurePoint> {
    let links = neutrino_core::LinkProfile {
        faults: failure::paper_fault_profile(),
        ..neutrino_core::LinkProfile::default()
    };
    let duration = Duration::from_millis(40);
    let mut cells: Vec<Cell<failure::FailurePoint>> = Vec::new();
    for &rate in &[20_000u64, 40_000] {
        for config in [SystemConfig::existing_epc(), SystemConfig::neutrino()] {
            cells.push(Box::new(move || {
                let name = config.name;
                let mut o = failure::failure_cell_outcome(config, rate, duration, links);
                failure::FailurePoint {
                    x: rate,
                    system: name.to_string(),
                    summary: o.pct.summary(),
                    audit_passes: o.audit_passes,
                    audit_divergences: o.audit_divergences,
                    audit_ues_checked: o.audit_ues_checked,
                    retransmissions: o.retransmissions,
                    resyncs_requested: o.resyncs_requested,
                    failed_procedures: o.failed_procedures,
                }
            }));
        }
    }
    sweep::run_cells(cells)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "simulation-scale test; run with --release")]
fn fault_injected_cells_are_worker_count_independent() {
    sweep::set_jobs(1);
    let sequential = serde_json::to_string_pretty(&fault_grid()).expect("ser");
    sweep::set_jobs(8);
    let parallel = serde_json::to_string_pretty(&fault_grid()).expect("ser");
    sweep::set_jobs(0);
    assert_eq!(
        sequential, parallel,
        "fault-injected figure JSON must not depend on the worker count"
    );
}
