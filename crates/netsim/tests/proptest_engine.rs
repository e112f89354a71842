//! Property-based tests of the discrete-event engine: conservation, queue
//! discipline, and work accounting over random workloads; and run-loop
//! segmentation: stopping and resuming `run_until` at arbitrary points,
//! across a crash and a recovery, dispatches exactly what one
//! `run_to_completion` does.

mod common;

use common::{build, fault_strategy, observe, run_plain, scenario_strategy, Observables, Scenario};
use neutrino_common::time::{Duration, Instant};
use neutrino_netsim::{LinkSpec, Links, Node, NodeEvent, NodeId, Outbox, Sim};
use proptest::prelude::*;
use std::any::Any;

/// Records everything it processes.
struct Sink {
    service_us: u64,
    cores: usize,
    seen: Vec<(u64, Instant)>,
}

impl Node<u64> for Sink {
    fn service_time(&self, _msg: &u64) -> Duration {
        Duration::from_micros(self.service_us)
    }
    fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
        if let NodeEvent::Message { msg, .. } = event {
            self.seen.push((msg, out.now()));
        }
    }
    fn cores(&self) -> usize {
        self.cores
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Runs to each of `cuts` in turn, then steps through the rest with
/// `next_event_at`, stopping `gaps_us` (cycled) past each next event.
fn run_segmented(sc: &Scenario, cuts: &[Instant], gaps_us: &[u64]) -> Observables {
    let (mut sim, all) = build(sc);
    for &cut in cuts {
        sim.run_until(cut);
    }
    for gap in gaps_us.iter().cycle() {
        let Some(next) = sim.next_event_at() else {
            break;
        };
        sim.run_until(next + Duration::from_micros(*gap));
    }
    observe(&mut sim, &all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every injected message is processed exactly once, in FIFO order for
    /// a single-core node, and the makespan matches total work.
    #[test]
    fn conservation_and_fifo(
        arrivals in proptest::collection::vec(0u64..1_000, 1..60),
        service_us in 1u64..50,
    ) {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let node = NodeId::new(1);
        sim.add_node(node, Box::new(Sink { service_us, cores: 1, seen: Vec::new() }));
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        for (i, &at) in sorted.iter().enumerate() {
            sim.inject_at(Instant::from_micros(at), node, i as u64);
        }
        let end = sim.run_to_completion();
        let stats = sim.stats(node).unwrap().clone();
        prop_assert_eq!(stats.processed, sorted.len() as u64);
        // Single core: completion no earlier than total work, no later than
        // last arrival + total work.
        let total_work = service_us * sorted.len() as u64;
        prop_assert!(end.as_nanos() >= Duration::from_micros(total_work).as_nanos());
        let bound = sorted.last().unwrap() + total_work;
        prop_assert!(end <= Instant::from_micros(bound));
        prop_assert_eq!(stats.busy, Duration::from_micros(total_work));
        // FIFO: messages complete in injection order (ties broken by seq).
        let sink = sim.node_as::<Sink>(node).unwrap();
        let ids: Vec<u64> = sink.seen.iter().map(|(m, _)| *m).collect();
        let mut expect: Vec<u64> = (0..sorted.len() as u64).collect();
        expect.sort_by_key(|&i| (sorted[i as usize], i));
        prop_assert_eq!(ids, expect);
    }

    /// More cores never increase the makespan; `cores >= n` pins it to
    /// last-arrival + service.
    #[test]
    fn multicore_speedup(
        n in 1usize..40,
        service_us in 1u64..40,
        spacing_us in 0u64..10,
    ) {
        let run = |cores: usize| {
            let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
            let mut sim = Sim::new(links);
            let node = NodeId::new(1);
            sim.add_node(node, Box::new(Sink { service_us, cores, seen: Vec::new() }));
            for i in 0..n {
                sim.inject_at(Instant::from_micros(i as u64 * spacing_us), node, i as u64);
            }
            sim.run_to_completion()
        };
        let one = run(1);
        let many = run(4);
        let all = run(n.max(1));
        prop_assert!(many <= one);
        prop_assert!(all <= many);
        let last_arrival = (n as u64 - 1) * spacing_us;
        prop_assert_eq!(
            all,
            Instant::from_micros(last_arrival + service_us)
                .max(Instant::from_micros((n as u64 - 1) * spacing_us + service_us))
        );
    }

    /// Crashing a node mid-run loses exactly the queued + in-flight work;
    /// dropped + processed accounts for every injection.
    #[test]
    fn crash_accounting(
        n in 1u64..50,
        service_us in 5u64..50,
        crash_at_us in 0u64..2_000,
    ) {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let node = NodeId::new(1);
        sim.add_node(node, Box::new(Sink { service_us, cores: 1, seen: Vec::new() }));
        for i in 0..n {
            sim.inject_at(Instant::from_micros(i * 10), node, i);
        }
        sim.crash_at(Instant::from_micros(crash_at_us), node);
        sim.run_to_completion();
        let stats = sim.stats(node).unwrap();
        prop_assert_eq!(
            stats.processed + stats.dropped_crash + stats.dropped_down,
            n,
            "every message is either processed or accounted as dropped"
        );
    }

    /// A run split into random `run_until` segments, stepping with
    /// `next_event_at`, dispatches the same per-node trace and the same
    /// event count as one `run_to_completion`.
    #[test]
    fn segmented_run_matches_one_shot(
        sc in scenario_strategy(proptest::option::of(fault_strategy())),
        cuts_us in proptest::collection::vec(0u64..4_000, 0..6),
        gaps_us in proptest::collection::vec(0u64..300, 1..6),
    ) {
        let mut cuts: Vec<Instant> = cuts_us.into_iter().map(Instant::from_micros).collect();
        cuts.sort();
        prop_assert_eq!(run_segmented(&sc, &cuts, &gaps_us), run_plain(&sc));
    }

    /// A crash and a later recovery in the middle of a segmented run, with
    /// a stop at the crash and one inside the down window, match the
    /// one-shot run.
    #[test]
    fn crash_and_recover_mid_run_match_one_shot(
        sc in scenario_strategy(fault_strategy().prop_map(Some)),
        gaps_us in proptest::collection::vec(0u64..300, 1..6),
    ) {
        let (_, crash_us, down_us) = sc.fault.unwrap();
        let crash = Instant::from_micros(crash_us);
        let cuts = [crash, crash + Duration::from_nanos(down_us * 500)];
        let expect = run_plain(&sc);
        prop_assert!(expect.counters.iter().all(|c| c.4), "every node ends up");
        prop_assert_eq!(run_segmented(&sc, &cuts, &gaps_us), expect);
    }
}
