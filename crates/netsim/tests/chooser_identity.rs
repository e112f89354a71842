//! Identity-chooser property: `run_until_chosen` with [`IdentityChooser`]
//! dispatches random multi-region topologies in exactly the `(at, seq)`
//! order of the uninstrumented sequential engine — observed through
//! per-node arrival logs (sender, payload, virtual time), per-node
//! counters, final clock, event counts, and drop counters. This is the
//! instrumentation layer's whole contract: goldens and corpus pins must
//! not be able to observe chosen mode.
//!
//! The generators (`common`) mix equal-time ties, zero-delay self-sends,
//! timers, and crash/recover barriers into every run. A final
//! deterministic test drives a *non*-identity chooser through an
//! equal-time tie and asserts the delivery order actually changes —
//! proving the mechanism can express a reordering at all (a chooser that
//! was silently never consulted would pass the identity property
//! vacuously).

mod common;

use common::{build, fault_strategy, observe, run_plain, Observables, Scenario};
use neutrino_common::time::Instant;
use neutrino_netsim::{ChoiceCtx, Chooser, Enabled, IdentityChooser, NodeId};
use proptest::prelude::*;

/// Runs through the chosen-mode loop with the identity chooser, pausing
/// at an arbitrary mid-run deadline to also cover resume behaviour.
fn run_chosen(sc: &Scenario) -> Observables {
    let (mut sim, all) = build(sc);
    let mut id = IdentityChooser;
    sim.run_until_chosen(Instant::from_micros(900), &mut id);
    sim.run_until_chosen(Instant::FAR_FUTURE, &mut id);
    observe(&mut sim, &all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random multi-region topologies observe byte-identical behaviour
    /// under `run_until` and `run_until_chosen(IdentityChooser)`.
    #[test]
    fn identity_chooser_matches_sequential(
        sc in common::scenario_strategy(proptest::option::of(fault_strategy())),
    ) {
        prop_assert_eq!(run_plain(&sc), run_chosen(&sc));
    }
}

/// A chooser that always picks the *last* enabled delivery, recording how
/// often it was actually consulted.
struct ReverseChooser {
    consulted: usize,
}

impl Chooser<u64> for ReverseChooser {
    fn choose(&mut self, _ctx: &ChoiceCtx, enabled: &[Enabled<'_, u64>]) -> usize {
        self.consulted += 1;
        enabled.len() - 1
    }
}

/// Two messages injected at the same tick to the same node: the reverse
/// chooser must be consulted and must flip the arrival order relative to
/// the sequential engine — the mechanism demonstrably expresses a
/// reordering (and only reorders; the delivered *set* is unchanged).
#[test]
fn reverse_chooser_flips_an_equal_time_tie() {
    let sc = Scenario {
        region_sizes: vec![2],
        intra_us: vec![10, 10, 10, 10],
        cross_us: 100,
        service_ns: 100,
        timer_us: 50,
        injections: vec![(500, 0, 1, 7), (500, 0, 1, 9)],
        fault: None,
    };
    let (mut sim, all) = build(&sc);
    let mut rev = ReverseChooser { consulted: 0 };
    sim.run_until_chosen(Instant::FAR_FUTURE, &mut rev);
    let chosen = observe(&mut sim, &all);
    let plain = run_plain(&sc);
    assert!(rev.consulted > 0, "tie never reached the chooser");
    assert_ne!(
        plain.logs, chosen.logs,
        "reverse chooser did not change any delivery order"
    );
    // Same multiset of arrivals per node, just reordered.
    let canon = |logs: &[Vec<(NodeId, u64, Instant)>]| {
        logs.iter()
            .map(|l| {
                let mut l: Vec<_> = l.iter().map(|&(f, m, _)| (f, m)).collect();
                l.sort_unstable();
                l
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(canon(&plain.logs), canon(&chosen.logs));
    assert_eq!(plain.events, chosen.events, "event count must not change");
}
