//! Small-model exhaustive interleaving checking (stateless-search DPOR).
//!
//! The netsim engine is deterministic: one seed fixes the entire event
//! stream. That buys replayability, but it also means a seed sweep only
//! ever sees *one* dispatch order per seed — same-tick deliveries always
//! land in `(at, seq)` order, and a race the protocol loses only under a
//! different service order stays invisible. This module enumerates those
//! orders for *small models*: hand-built clusters (two CPFs, two UEs, one
//! crash) whose simultaneously enabled deliveries form a tree shallow
//! enough to walk completely.
//!
//! The search is stateless in the jbsimsa/Shuttle style: the engine is
//! never forked. Each path re-runs the plan from the root through
//! [`run_case_with`] with a script chooser; at every choice point (≥ 2
//! deliveries enabled at one tick) the script says which enabled delivery
//! to dispatch, and past the script's end the identity choice (lowest
//! sequence number — the sequential engine's order) finishes the run.
//! Re-running from the root costs `O(depth)` per path, but small-model
//! runs are milliseconds and the approach needs no engine snapshotting —
//! determinism *is* the snapshot.
//!
//! Three prunes keep the tree honest without losing soundness of what is
//! reported (every explored path is a real, replayable run — a violation
//! found here is a violation, full stop; the prunes only risk *missing*
//! paths, and each one's assumption is stated where it is applied):
//!
//! * **per-stream FIFO** — two enabled deliveries on the same (source,
//!   destination, UE) stream never reorder: links are FIFO per stream, so
//!   only stream *heads* are schedulable candidates.
//! * **independence** — a candidate whose destination node differs from
//!   every earlier candidate's destination is not branched to: deliveries
//!   to different nodes touch disjoint state and commute, so some explored
//!   schedule already covers that order. Crash/recover barriers at the
//!   same tick void the assumption, so choice points that jump across a
//!   staged non-delivery event (`barrier` in [`ChoiceCtx`]) branch fully.
//! * **state deduplication** — the engine's order-canonical per-node
//!   dispatch-history hash ([`choice_state_hash`]
//!   (neutrino_netsim::Sim::choice_state_hash)) identifies states already
//!   expanded at the same or shallower depth. The hash is approximate
//!   (bitstate hashing): a collision can hide a path, never invent a
//!   violation.
//!
//! Fault-ful plans (loss/duplication/reorder/jitter) disable the latter
//! two prunes: fault draws are salted by per-link send sequence, so
//! dispatch order feeds back into *which messages exist* — neither the
//! commutativity argument nor the state hash's "same history ⇒ same
//! future" premise holds. Such plans still explore, just without
//! reduction.

use crate::run::{run_case_with, CheckReport};
use crate::scenario::CasePlan;
use neutrino_core::SimMsg;
use neutrino_messages::SysMsg;
use neutrino_netsim::{ChoiceCtx, Chooser, Enabled, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Replays a pinned choice trace: the k-th consultation dispatches the
/// `script[k]`-th enabled delivery; identity (index 0) past the end.
///
/// Picks are clamped into range rather than panicking: a shrunk plan can
/// reach a choice point with fewer enabled deliveries than the original
/// run had, and the shrinker's replay check — not the chooser — decides
/// whether the result still fails.
pub struct ScriptChooser<'a> {
    script: &'a [u32],
    pos: usize,
}

impl<'a> ScriptChooser<'a> {
    /// A chooser that follows `script`, then identity.
    pub fn new(script: &'a [u32]) -> Self {
        ScriptChooser { script, pos: 0 }
    }
}

impl<M> Chooser<M> for ScriptChooser<'_> {
    fn choose(&mut self, _ctx: &ChoiceCtx, enabled: &[Enabled<'_, M>]) -> usize {
        let pick = self.script.get(self.pos).copied().unwrap_or(0) as usize;
        self.pos += 1;
        pick.min(enabled.len() - 1)
    }
}

/// One schedulable candidate at a choice point: the head of one delivery
/// stream.
#[derive(Debug, Clone)]
struct CandidateRec {
    /// Index into the engine's enabled array (what a script entry means).
    idx: u32,
    /// Destination node — the independence rule's commutativity key.
    to: NodeId,
}

/// The record of one chooser consultation along a path.
#[derive(Debug)]
struct ChoicePointRec {
    /// The enabled index actually dispatched.
    chosen: u32,
    /// Stream-head candidates, in enabled (ascending-seq) order.
    candidates: Vec<CandidateRec>,
    /// True when the enabled set jumped across a staged non-delivery
    /// event (crash/recover/timer at the same tick) — commutativity does
    /// not hold across it, so independence pruning is off here.
    barrier: bool,
    /// Engine state hash *before* this dispatch (deduplication key).
    state_hash: u64,
}

/// FIFO stream identity of an enabled delivery. Control-plane messages
/// for different UEs share physical links but are logically independent
/// flows — the upstream arrival race between two UEs' messages on one
/// BS→CTA link is exactly the kind of reordering the checker must
/// explore. Messages of the *same* UE on one link stay FIFO (in-order
/// transport), as does every non-control stream.
fn stream_key(e: &Enabled<'_, SimMsg>) -> (u64, u64, u64, u64) {
    match e.msg {
        SimMsg::Sys(SysMsg::Control(env)) => (e.from.raw(), e.to.raw(), 1, env.ue.raw()),
        _ => (e.from.raw(), e.to.raw(), 0, 0),
    }
}

/// Follows a script, then identity — while recording every consultation
/// (candidates, barrier flag, state hash) for the driver to expand.
struct ExploringChooser {
    script: Vec<u32>,
    log: Vec<ChoicePointRec>,
}

impl Chooser<SimMsg> for ExploringChooser {
    fn choose(&mut self, ctx: &ChoiceCtx, enabled: &[Enabled<'_, SimMsg>]) -> usize {
        let k = self.log.len();
        let mut keys: Vec<(u64, u64, u64, u64)> = Vec::with_capacity(enabled.len());
        let mut candidates = Vec::new();
        for (i, e) in enabled.iter().enumerate() {
            let key = stream_key(e);
            if !keys.contains(&key) {
                keys.push(key);
                candidates.push(CandidateRec {
                    idx: i as u32,
                    to: e.to,
                });
            }
        }
        let chosen = match self.script.get(k) {
            Some(&s) => {
                debug_assert!(
                    (s as usize) < enabled.len(),
                    "scripted pick out of range on a deterministic replay"
                );
                s.min(enabled.len() as u32 - 1)
            }
            None => 0,
        };
        self.log.push(ChoicePointRec {
            chosen,
            candidates,
            barrier: ctx.barrier,
            state_hash: ctx.state_hash,
        });
        chosen as usize
    }
}

/// Exhaustive-exploration bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct McheckOptions {
    /// Branch-point depth: only the first `bound` *dependent* choice
    /// points of a path (consultations offering at least one unpruned
    /// alternative) spawn branches; deeper ones run identity. This bounds
    /// the tree by contended deliveries, not events — one binary tie per
    /// attach step means `bound` 12 covers a full two-UE
    /// attach-plus-failover small model with up to `2^12` schedules.
    pub bound: usize,
    /// Hard ceiling on explored paths (a safety valve against a
    /// mis-sized model, not a tuning knob — hitting it sets
    /// [`McheckStats::truncated`]).
    pub max_paths: u64,
}

impl Default for McheckOptions {
    fn default() -> Self {
        McheckOptions {
            bound: 12,
            max_paths: 200_000,
        }
    }
}

/// Byte-stable exploration counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct McheckStats {
    /// Complete root-to-leaf runs executed.
    pub paths_explored: u64,
    /// Expansions cut because the state hash was already expanded at the
    /// same or shallower depth.
    pub states_deduped: u64,
    /// Largest depth-first frontier (pending alternative scripts).
    pub max_frontier: u64,
    /// Alternatives skipped by the independence (commuting-destinations)
    /// rule.
    pub pruned_independent: u64,
    /// Choice points consulted on the identity (first) path.
    pub identity_choice_points: u64,
    /// True when `max_paths` stopped the search before the tree was
    /// exhausted.
    pub truncated: bool,
}

/// A violating interleaving: the choice trace that reaches it and the
/// report of that run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McheckViolation {
    /// Executed choice trace (trailing identity picks trimmed); replay
    /// by setting [`CasePlan::choice_trace`] to this.
    pub trace: Vec<u32>,
    /// The violating run's full report.
    pub report: CheckReport,
}

/// Outcome of one exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McheckOutcome {
    /// Exploration counters (byte-stable for a given plan and options).
    pub stats: McheckStats,
    /// First violating interleaving found, if any (the search stops on
    /// it).
    pub violation: Option<McheckViolation>,
}

/// Walks every schedule of the plan's contended deliveries up to
/// `opts.bound`, depth-first, stopping at the first invariant violation.
///
/// Single-threaded and fully deterministic: the same `(plan, opts)` pair
/// produces the identical outcome — and therefore byte-identical JSON —
/// on every run.
pub fn explore_exhaustive(plan: &CasePlan, opts: &McheckOptions) -> McheckOutcome {
    // Fault draws are salted by per-link send sequence: dispatch order
    // changes which messages exist, so neither commutativity nor
    // same-hash-same-future holds. Explore fault-ful plans unreduced.
    let has_faults = plan.loss_ppm > 0
        || plan.duplicate_ppm > 0
        || plan.reorder_ppm > 0
        || plan.jitter_us > 0;
    let reduce = !has_faults;
    let mut stats = McheckStats::default();
    // Depth-first worklist of alternative scripts still to run.
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
    // State hash → shallowest depth at which it was expanded. A state
    // reached again at the same or greater depth has nothing new below
    // it (the earlier expansion covered a superset of remaining budget).
    let mut visited: BTreeMap<u64, usize> = BTreeMap::new();
    let mut violation = None;
    while let Some(script) = stack.pop() {
        if stats.paths_explored >= opts.max_paths {
            stats.truncated = true;
            break;
        }
        let mut chooser = ExploringChooser {
            script,
            log: Vec::new(),
        };
        let report = run_case_with(plan, Some(&mut chooser));
        stats.paths_explored += 1;
        if stats.paths_explored == 1 {
            stats.identity_choice_points = chooser.log.len() as u64;
        }
        if !report.is_clean() {
            let mut trace: Vec<u32> = chooser.log.iter().map(|c| c.chosen).collect();
            while trace.last() == Some(&0) {
                trace.pop();
            }
            violation = Some(McheckViolation { trace, report });
            break;
        }
        // Expand alternatives at every *branch point* this path reached
        // beyond its scripted prefix (earlier points were expanded when
        // the prefix itself ran). A branch point is a choice point with at
        // least one unpruned alternative; only those count against the
        // bound — a consultation whose candidates all commute away
        // contributes nothing to the interleaving tree and must not eat
        // exploration depth.
        let from = chooser.script.len();
        let mut branch_points = 0usize;
        for (k, cp) in chooser.log.iter().enumerate() {
            if branch_points >= opts.bound {
                break;
            }
            let mut alts: Vec<u32> = Vec::new();
            for (ci, cand) in cp.candidates.iter().enumerate() {
                if cand.idx == cp.chosen {
                    continue;
                }
                // Independence: only branch to a candidate that races an
                // earlier candidate for the same destination node —
                // deliveries to different nodes commute (void across
                // crash/recover barriers, hence the flag).
                if reduce
                    && !cp.barrier
                    && !cp.candidates[..ci].iter().any(|e| e.to == cand.to)
                {
                    if k >= from {
                        stats.pruned_independent += 1;
                    }
                    continue;
                }
                alts.push(cand.idx);
            }
            if alts.is_empty() {
                continue;
            }
            branch_points += 1;
            if k < from {
                continue; // an ancestor already expanded this point
            }
            if reduce {
                match visited.get(&cp.state_hash) {
                    Some(&d) if d <= k => {
                        stats.states_deduped += 1;
                        break;
                    }
                    _ => {
                        visited.insert(cp.state_hash, k);
                    }
                }
            }
            for alt in alts {
                let mut child: Vec<u32> = Vec::with_capacity(k + 1);
                child.extend(chooser.log[..k].iter().map(|c| c.chosen));
                child.push(alt);
                stack.push(child);
            }
            stats.max_frontier = stats.max_frontier.max(stack.len() as u64);
        }
    }
    McheckOutcome { stats, violation }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutrino_common::time::Instant;

    #[test]
    fn script_chooser_follows_then_identity_and_clamps() {
        let script = vec![1u32, 7];
        let mut c = ScriptChooser::new(&script);
        let msgs = [0u64, 1, 2];
        let enabled: Vec<Enabled<'_, u64>> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| Enabled {
                seq: i as u64,
                from: NodeId::new(1),
                to: NodeId::new(2),
                msg: m,
            })
            .collect();
        let ctx = ChoiceCtx {
            now: Instant::ZERO,
            deliveries: 0,
            state_hash: 0,
            barrier: false,
        };
        assert_eq!(Chooser::<u64>::choose(&mut c, &ctx, &enabled), 1);
        // Out-of-range script entries clamp (shrunk plans may shrink the
        // enabled set).
        assert_eq!(Chooser::<u64>::choose(&mut c, &ctx, &enabled), 2);
        // Past the script: identity.
        assert_eq!(Chooser::<u64>::choose(&mut c, &ctx, &enabled), 0);
    }
}
