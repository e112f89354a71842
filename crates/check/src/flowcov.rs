//! Static-vs-dynamic protocol-flow coverage (`explore --flow-coverage`).
//!
//! The flow registry ([`neutrino_messages::flow::FLOWS`]) declares which
//! `(variant, src role, dst role)` edges the protocol may use, and
//! `neutrino-lint`'s flow pass proves the *code* agrees with it. This
//! module closes the loop dynamically: it runs scenario plans on the
//! sequential engine with a delivery tap installed, records every edge the
//! simulator actually carries, and diffs witnessed against declared:
//!
//! * **witnessed-but-undeclared** edges are spec drift — the running
//!   system uses a flow the registry does not admit. Fatal (the nightly
//!   `flow-coverage` job fails on any).
//! * **declared-but-never-witnessed** edges are dead paths — either an
//!   unreachable declaration or a scenario-coverage gap. Advisory.
//!
//! Witness sets are unions, so the merged result is independent of the
//! order cells complete in: the report is byte-identical across reruns and
//! any `--jobs` value.

use crate::run::run_case_witnessed;
use crate::scenario::Scenario;
use neutrino_core::SimMsg;
use neutrino_messages::flow::{self, Role, FLOWS};
use std::collections::BTreeSet;
use std::cell::RefCell;
use std::rc::Rc;

/// One `(variant, src role, dst role)` edge in canonical string form.
pub type Edge = (String, String, String);

/// The scenario families the nightly coverage job sweeps: every
/// deterministic non-storm family. The storm families exercise the same
/// flows at higher volume and add no new edges, so they stay out of the
/// sweep budget.
pub const CORE_SCENARIOS: &[&str] =
    &["failover", "partition", "chaos", "handover-failover", "epc-reattach"];

/// The declared edge set, in canonical form.
pub fn declared_edges() -> BTreeSet<Edge> {
    FLOWS
        .iter()
        .flat_map(|spec| {
            spec.edges.iter().map(move |(s, d)| {
                (spec.variant.to_string(), s.name().to_string(), d.name().to_string())
            })
        })
        .collect()
}

/// Runs `scenario` at `seed` on the sequential engine with a delivery tap
/// installed and returns the witnessed edge set. Non-protocol messages
/// (the arrival-pump `Kick`) and nodes outside the role bands are ignored
/// rather than invented.
pub fn witness_case(scenario: &Scenario, seed: u64) -> BTreeSet<Edge> {
    let seen: Rc<RefCell<BTreeSet<Edge>>> = Rc::default();
    let sink = Rc::clone(&seen);
    run_case_witnessed(
        &scenario.plan(seed),
        Box::new(move |from, to, msg| {
            let SimMsg::Sys(sys) = msg else { return };
            let (Some(src), Some(dst)) =
                (Role::of_node_raw(from.raw()), Role::of_node_raw(to.raw()))
            else {
                return;
            };
            sink.borrow_mut().insert((
                flow::variant_name(sys).to_string(),
                src.name().to_string(),
                dst.name().to_string(),
            ));
        }),
    );
    Rc::try_unwrap(seen)
        .expect("tap dropped with the sim")
        .into_inner()
}

/// One edge in the JSON report.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EdgeRecord {
    /// `SysMsg` variant name.
    pub variant: String,
    /// Sending role.
    pub src: String,
    /// Receiving role.
    pub dst: String,
}

fn records(set: &BTreeSet<Edge>) -> Vec<EdgeRecord> {
    set.iter()
        .map(|(v, s, d)| EdgeRecord { variant: v.clone(), src: s.clone(), dst: d.clone() })
        .collect()
}

/// The coverage diff (`explore --flow-coverage --json`). Every list is
/// sorted; serialization is byte-stable.
#[derive(Debug, serde::Serialize)]
pub struct CoverageReport {
    /// Scenario families swept.
    pub scenarios: Vec<String>,
    /// Seeds per family.
    pub seeds: u64,
    /// Edges declared in the flow registry.
    pub declared: Vec<EdgeRecord>,
    /// Edges witnessed at least once.
    pub witnessed: Vec<EdgeRecord>,
    /// Declared but never witnessed — dead paths (advisory).
    pub dead_declared: Vec<EdgeRecord>,
    /// Witnessed but not declared — spec drift (fatal).
    pub undeclared_witnessed: Vec<EdgeRecord>,
}

impl CoverageReport {
    /// Diffs a merged witnessed set against the registry.
    pub fn diff(scenarios: Vec<String>, seeds: u64, witnessed: &BTreeSet<Edge>) -> CoverageReport {
        let declared = declared_edges();
        CoverageReport {
            scenarios,
            seeds,
            dead_declared: records(&declared.difference(witnessed).cloned().collect()),
            undeclared_witnessed: records(&witnessed.difference(&declared).cloned().collect()),
            declared: records(&declared),
            witnessed: records(witnessed),
        }
    }

    /// True when no witnessed edge falls outside the registry.
    pub fn is_clean(&self) -> bool {
        self.undeclared_witnessed.is_empty()
    }

    /// Deterministic pretty JSON (trailing newline included).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes") + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_set_matches_registry_size() {
        let edges = declared_edges();
        let total: usize = FLOWS.iter().map(|s| s.edges.len()).sum();
        assert_eq!(edges.len(), total, "registry edges must be distinct");
    }

    #[test]
    fn witnessed_subset_is_clean_and_missing_edges_are_dead() {
        let mut witnessed = declared_edges();
        let dropped = witnessed.pop_first().expect("non-empty registry");
        let report =
            CoverageReport::diff(vec!["unit".into()], 1, &witnessed);
        assert!(report.is_clean());
        assert_eq!(report.dead_declared.len(), 1);
        assert_eq!(report.dead_declared[0].variant, dropped.0);
    }

    #[test]
    fn undeclared_edge_is_fatal() {
        let mut witnessed = BTreeSet::new();
        witnessed.insert(("Control".to_string(), "upf".to_string(), "cta".to_string()));
        let report = CoverageReport::diff(vec!["unit".into()], 1, &witnessed);
        assert!(!report.is_clean());
        assert_eq!(report.undeclared_witnessed.len(), 1);
    }

    #[test]
    fn report_json_is_byte_stable() {
        let witnessed = declared_edges();
        let a = CoverageReport::diff(vec!["x".into()], 3, &witnessed).to_json();
        let b = CoverageReport::diff(vec!["x".into()], 3, &witnessed).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn one_small_case_witnesses_only_declared_edges() {
        // The cheapest real run: a small-model plan carries real traffic
        // through every node band; whatever it witnesses must be declared.
        let scenario = Scenario::by_name("failover").expect("failover exists");
        let witnessed = witness_case(&scenario, 0);
        assert!(!witnessed.is_empty(), "a failover run delivers messages");
        let report = CoverageReport::diff(vec!["failover".into()], 1, &witnessed);
        assert!(
            report.is_clean(),
            "undeclared edges witnessed: {:?}",
            report.undeclared_witnessed
        );
    }
}
