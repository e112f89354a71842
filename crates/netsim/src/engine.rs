//! The discrete-event engine.
//!
//! Each node is a multi-core FIFO queueing server running a [`Node`] state
//! machine. The engine pops time-ordered events; `Deliver` enqueues a
//! message at its destination, `JobComplete` runs the node's handler at
//! service completion (charging the declared service time), `Timer` runs
//! zero-cost internal work, `Crash`/`Recover` inject failures.
//!
//! Determinism: the event queue orders by `(time, sequence)` where the
//! sequence is assigned at scheduling time, so ties break identically on
//! every run.

use crate::links::{Delivery, Links};
use crate::stats::{NodeStats, SimStats};
use crate::wheel::{SchedKey, Wheel};
use neutrino_common::time::{Duration, Instant};
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;

/// Identifies a node inside a simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u64);

impl NodeId {
    /// Sender id used for externally injected traffic.
    pub const EXTERNAL: NodeId = NodeId(u64::MAX);

    /// Wraps a raw id.
    pub const fn new(raw: u64) -> Self {
        NodeId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == NodeId::EXTERNAL {
            write!(f, "node-external")
        } else {
            write!(f, "node-{}", self.0)
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// What a node is asked to handle.
#[derive(Debug)]
pub enum NodeEvent<M> {
    /// A message finished service (the node now reacts to it).
    Message {
        /// The sending node.
        from: NodeId,
        /// The message.
        msg: M,
    },
    /// A timer set earlier fired.
    Timer {
        /// The id passed to [`Outbox::set_timer`].
        id: u64,
    },
    /// The node just recovered from a crash (state was NOT preserved by the
    /// engine; the node decides what recovery means).
    Recovered,
}

/// The only way a node affects the world: messages out and timers.
pub struct Outbox<M> {
    now: Instant,
    sends: Vec<(NodeId, M, Duration)>,
    timers: Vec<(Duration, u64)>,
}

impl<M> Outbox<M> {
    fn new(now: Instant) -> Self {
        Outbox {
            now,
            sends: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Re-arms a recycled outbox: buffers are kept (already drained by
    /// `flush_outbox`), only the clock is reset.
    fn rearm(&mut self, now: Instant) {
        debug_assert!(self.sends.is_empty() && self.timers.is_empty());
        self.now = now;
    }

    /// The current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Sends a message; it leaves the node immediately and arrives after the
    /// link delay.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.sends.push((to, msg, Duration::ZERO));
    }

    /// Sends a message after an extra local delay (e.g. modeling work done
    /// off the critical path).
    pub fn send_after(&mut self, to: NodeId, msg: M, extra: Duration) {
        self.sends.push((to, msg, extra));
    }

    /// Arms a timer that fires after `delay` with the given id.
    pub fn set_timer(&mut self, delay: Duration, id: u64) {
        self.timers.push((delay, id));
    }
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new(Instant::ZERO)
    }
}

/// A delivery witness: `tap(from, to, &msg)` runs for every message
/// actually enqueued at an up node (after loss/partition/down filtering,
/// before service). See [`Sim::set_delivery_tap`].
pub type DeliveryTap<M> = Box<dyn FnMut(NodeId, NodeId, &M)>;

/// A protocol state machine living at one node.
pub trait Node<M>: Any {
    /// Service time charged for a message *before* [`Node::handle`] runs —
    /// the CPU the node burns parsing, processing, and building responses.
    /// Zero means the message is pure bookkeeping.
    fn service_time(&self, msg: &M) -> Duration;

    /// Reacts to an event. All effects go through the outbox.
    fn handle(&mut self, event: NodeEvent<M>, out: &mut Outbox<M>);

    /// Number of cores serving this node's queue.
    fn cores(&self) -> usize {
        1
    }

    /// Downcast support (retrieving results after a run).
    fn as_any(&mut self) -> &mut dyn Any;
}

enum EventKind<M> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    JobComplete { node: NodeId, epoch: u64, job: u64 },
    Timer { node: NodeId, id: u64, epoch: u64 },
    Crash { node: NodeId },
    Recover { node: NodeId },
}

impl<M> EventKind<M> {
    /// The node this event is dispatched at: the destination of a
    /// `Deliver`, the owning node of every other kind.
    fn target(&self) -> NodeId {
        match self {
            EventKind::Deliver { to, .. } => *to,
            EventKind::JobComplete { node, .. }
            | EventKind::Timer { node, .. }
            | EventKind::Crash { node }
            | EventKind::Recover { node } => *node,
        }
    }
}

struct NodeEntry<M> {
    id: NodeId,
    node: Box<dyn Node<M>>,
    queue: VecDeque<(NodeId, M, Instant)>,
    busy_cores: usize,
    /// In-flight jobs tagged by job id (multicore jobs finish out of
    /// order). At most `cores()` entries, so a linear scan beats hashing.
    running: Vec<(u64, NodeId, M)>,
    up: bool,
    epoch: u64,
    stats: NodeStats,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hard cap on processed events (guards against runaway loops).
    pub max_events: u64,
}

impl SimConfig {
    /// Events the cap allows per microsecond of simulated horizon. Real
    /// workloads in this repo stay under ~2 events/µs even at the highest
    /// figure rates, so 64 only trips on genuine feedback loops.
    const EVENTS_PER_US: u64 = 64;
    /// Fixed allowance so short horizons still permit startup chatter.
    const SLACK_EVENTS: u64 = 4_000_000;

    /// Derives the runaway-loop cap from the experiment's time horizon
    /// instead of one hard-wired constant.
    pub fn for_horizon(horizon: Duration) -> Self {
        let us = horizon.as_nanos() / 1_000;
        SimConfig {
            max_events: us
                .saturating_mul(Self::EVENTS_PER_US)
                .saturating_add(Self::SLACK_EVENTS),
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_events: 2_000_000_000,
        }
    }
}

/// Raw node ids the dense index will allocate slots for. The id bands in
/// use (UE PoP 0, CTAs 1000+, CPFs 100_000+, UPFs 200_000+) stay far
/// below this; it only guards against accidentally indexing by a huge id.
const MAX_DENSE_ID: u64 = 1 << 24;

/// Slot sentinel meaning "no node registered at this raw id".
const NO_SLOT: u32 = u32::MAX;

/// The simulator.
pub struct Sim<M> {
    now: Instant,
    seq: u64,
    job_seq: u64,
    link_seq: u64,
    /// The calendar-queue scheduler; dispatch order is ascending
    /// [`SchedKey`] — see [`crate::wheel`] for the ordering definition.
    queue: Wheel<EventKind<M>>,
    /// Dense node slab; slots are assigned in `add_node` order.
    nodes: Vec<NodeEntry<M>>,
    /// Sparse raw-id → slot map (`NO_SLOT` = absent). Node ids are banded,
    /// not sequential, so a direct `Vec` index needs this indirection.
    slots: Vec<u32>,
    links: Links,
    config: SimConfig,
    events_processed: u64,
    /// Host time spent inside `run_until`, for events/sec reporting.
    wall: std::time::Duration,
    /// Heap allocations observed across `run_until` calls (zero unless a
    /// counting allocator reports into [`crate::alloc_count`]).
    allocs: u64,
    /// Fault-layer and routing counters (see [`SimStats`]).
    dropped_loss: u64,
    dropped_partition: u64,
    duplicated: u64,
    reordered: u64,
    dropped_unroutable: u64,
    /// Recycled outbox: send/timer buffers are reused across `handle`
    /// calls instead of being reallocated per event.
    scratch: Outbox<M>,
    /// Chosen-mode bookkeeping (state-hash chains, delivery count);
    /// `None` until the first [`Sim::run_until_chosen`] call, so plain
    /// runs carry no instrumentation cost.
    choice: Option<Box<crate::choice::ChoiceState>>,
    /// Optional delivery witness (flow-coverage tooling): called for every
    /// message actually enqueued at an up node, after fault filtering and
    /// before service. `None` on plain runs, so the hot path pays exactly
    /// one branch.
    tap: Option<DeliveryTap<M>>,
}

impl<M: Clone + 'static> Sim<M> {
    /// Creates a simulator over the given link table.
    pub fn new(links: Links) -> Self {
        Self::with_config(links, SimConfig::default())
    }

    /// Creates a simulator with explicit config.
    pub fn with_config(links: Links, config: SimConfig) -> Self {
        Sim {
            now: Instant::ZERO,
            seq: 0,
            job_seq: 0,
            link_seq: 0,
            queue: Wheel::new(),
            nodes: Vec::new(),
            slots: Vec::new(),
            links,
            config,
            events_processed: 0,
            wall: std::time::Duration::ZERO,
            allocs: 0,
            dropped_loss: 0,
            dropped_partition: 0,
            duplicated: 0,
            reordered: 0,
            dropped_unroutable: 0,
            scratch: Outbox::default(),
            choice: None,
            tap: None,
        }
    }

    /// Installs a delivery witness: `tap(from, to, &msg)` runs for every
    /// message actually enqueued at an up node (after loss/partition/down
    /// filtering, before service). Used by `explore --flow-coverage` to
    /// record witnessed protocol-flow edges; plain runs never install one.
    pub fn set_delivery_tap(&mut self, tap: DeliveryTap<M>) {
        self.tap = Some(tap);
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Engine-level throughput counters for this simulation so far.
    pub fn sim_stats(&self) -> SimStats {
        SimStats {
            events_processed: self.events_processed,
            wall: self.wall,
            dropped_loss: self.dropped_loss,
            dropped_partition: self.dropped_partition,
            duplicated: self.duplicated,
            reordered: self.reordered,
            dropped_unroutable: self.dropped_unroutable,
            max_queue_depth: self
                .nodes
                .iter()
                .map(|n| n.stats.max_queue_depth)
                .max()
                .unwrap_or(0),
            max_sched_depth: self.queue.max_depth() as u64,
            allocs: self.allocs,
        }
    }

    /// Slot of `id` in the dense slab, if registered.
    #[inline]
    fn slot(&self, id: NodeId) -> Option<usize> {
        match self.slots.get(id.raw() as usize) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    #[inline]
    fn entry_mut(&mut self, id: NodeId) -> Option<&mut NodeEntry<M>> {
        let slot = self.slot(id)?;
        Some(&mut self.nodes[slot])
    }

    /// Registers a node. Panics on duplicate ids.
    pub fn add_node(&mut self, id: NodeId, node: Box<dyn Node<M>>) {
        let raw = id.raw();
        assert!(
            raw < MAX_DENSE_ID,
            "node id {id} outside the dense-index range"
        );
        if self.slots.len() <= raw as usize {
            self.slots.resize(raw as usize + 1, NO_SLOT);
        }
        assert!(self.slots[raw as usize] == NO_SLOT, "duplicate node id {id}");
        self.slots[raw as usize] = self.nodes.len() as u32;
        self.nodes.push(NodeEntry {
            id,
            node,
            queue: VecDeque::new(),
            busy_cores: 0,
            running: Vec::new(),
            up: true,
            epoch: 0,
            stats: NodeStats::default(),
        });
    }

    /// Mutable access to the links table (topology changes mid-run).
    pub fn links_mut(&mut self) -> &mut Links {
        &mut self.links
    }

    fn push(&mut self, at: Instant, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(SchedKey { at, seq }, kind);
    }

    /// Injects a message from outside the simulated network, arriving at
    /// `to` at absolute time `at` (no link delay applied).
    pub fn inject_at(&mut self, at: Instant, to: NodeId, msg: M) {
        self.push(
            at,
            EventKind::Deliver {
                to,
                from: NodeId::EXTERNAL,
                msg,
            },
        );
    }

    /// Schedules a crash of `node` at `at`: its queue and in-flight work are
    /// discarded and later arrivals are dropped until recovery.
    pub fn crash_at(&mut self, at: Instant, node: NodeId) {
        self.push(at, EventKind::Crash { node });
    }

    /// Schedules a recovery of `node` at `at`.
    pub fn recover_at(&mut self, at: Instant, node: NodeId) {
        self.push(at, EventKind::Recover { node });
    }

    /// Whether a node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.slot(node).map(|s| self.nodes[s].up).unwrap_or(false)
    }

    /// Statistics of a node.
    pub fn stats(&self, node: NodeId) -> Option<&NodeStats> {
        self.slot(node).map(|s| &self.nodes[s].stats)
    }

    /// Downcasts a node to retrieve results after (or during) a run.
    pub fn node_as<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.entry_mut(id)?.node.as_any().downcast_mut::<T>()
    }

    /// Drains a borrowed outbox into the event queue, leaving its buffers
    /// empty for reuse. Every send consults the fault layer: the link
    /// sequence advances exactly once per send (fault draws use salted
    /// hashes of the same sequence), so a fault-free run schedules the
    /// identical event stream the pre-fault-layer engine did.
    fn flush_outbox(&mut self, from: NodeId, out: &mut Outbox<M>, epoch: u64) {
        let now = out.now;
        for (to, msg, extra) in out.sends.drain(..) {
            let sequence = self.link_seq;
            self.link_seq += 1;
            match self.links.plan_delivery(from, to, sequence, now) {
                Delivery::Lost => self.dropped_loss += 1,
                Delivery::Partitioned => self.dropped_partition += 1,
                Delivery::Deliver {
                    delay,
                    duplicate,
                    reordered,
                } => {
                    if reordered {
                        self.reordered += 1;
                    }
                    if let Some(dup_delay) = duplicate {
                        self.duplicated += 1;
                        self.push(
                            now + extra + dup_delay,
                            EventKind::Deliver {
                                to,
                                from,
                                msg: msg.clone(),
                            },
                        );
                    }
                    self.push(now + extra + delay, EventKind::Deliver { to, from, msg });
                }
            }
        }
        for (delay, id) in out.timers.drain(..) {
            self.push(
                now + delay,
                EventKind::Timer {
                    node: from,
                    id,
                    epoch,
                },
            );
        }
    }

    /// Runs `entry.node.handle(event)` through the recycled scratch outbox
    /// and flushes the effects. `slot` must be valid.
    fn handle_at(&mut self, slot: usize, event: NodeEvent<M>) {
        let mut out = std::mem::take(&mut self.scratch);
        out.rearm(self.now);
        let entry = &mut self.nodes[slot];
        entry.node.handle(event, &mut out);
        let (id, epoch) = (entry.id, entry.epoch);
        self.flush_outbox(id, &mut out, epoch);
        self.scratch = out;
    }

    fn try_start_jobs(&mut self, slot: usize) {
        loop {
            let entry = &mut self.nodes[slot];
            if !entry.up || entry.busy_cores >= entry.node.cores() || entry.queue.is_empty() {
                return;
            }
            let (from, msg, enq) = entry.queue.pop_front().expect("non-empty");
            let st = entry.node.service_time(&msg);
            entry.busy_cores += 1;
            entry.stats.total_wait += self.now.saturating_since(enq);
            entry.stats.busy += st;
            let job = self.job_seq;
            self.job_seq += 1;
            entry.running.push((job, from, msg));
            let (node, epoch) = (entry.id, entry.epoch);
            let at = self.now + st;
            self.push(at, EventKind::JobComplete { node, epoch, job });
        }
    }

    /// Dispatches one already-popped event at `self.now`. Shared between
    /// `run_until` and `run_until_chosen` so both loops run the identical
    /// per-event state machine.
    #[inline(always)]
    fn dispatch(&mut self, kind: EventKind<M>) {
        match kind {
            EventKind::Deliver { to, from, msg } => {
                let slot = match self.slot(to) {
                    Some(s) => s,
                    None => {
                        // Unknown destination: count it — a misrouted
                        // message vanishing silently is undebuggable.
                        self.dropped_unroutable += 1;
                        return;
                    }
                };
                if !self.nodes[slot].up {
                    self.nodes[slot].stats.dropped_down += 1;
                    return;
                }
                if let Some(tap) = self.tap.as_mut() {
                    tap(from, to, &msg);
                }
                let entry = &mut self.nodes[slot];
                entry.queue.push_back((from, msg, self.now));
                let depth = entry.queue.len();
                if depth > entry.stats.max_queue_depth {
                    entry.stats.max_queue_depth = depth;
                }
                self.try_start_jobs(slot);
            }
            EventKind::JobComplete { node, epoch, job } => {
                let slot = match self.slot(node) {
                    Some(s) => s,
                    // A completion for a node that was never registered is
                    // just as misrouted as an unknown-destination Deliver:
                    // count it instead of vanishing silently.
                    None => {
                        self.dropped_unroutable += 1;
                        return;
                    }
                };
                let entry = &mut self.nodes[slot];
                if entry.epoch != epoch || !entry.up {
                    return; // stale: node crashed since this job began
                }
                let pos = entry
                    .running
                    .iter()
                    .position(|&(j, _, _)| j == job)
                    .expect("job was running");
                let (_, from, msg) = entry.running.swap_remove(pos);
                entry.busy_cores -= 1;
                entry.stats.processed += 1;
                self.handle_at(slot, NodeEvent::Message { from, msg });
                self.try_start_jobs(slot);
            }
            EventKind::Timer { node, id, epoch } => {
                let slot = match self.slot(node) {
                    Some(s) => s,
                    // Same unroutable accounting as Deliver/JobComplete.
                    None => {
                        self.dropped_unroutable += 1;
                        return;
                    }
                };
                let entry = &mut self.nodes[slot];
                if entry.epoch != epoch || !entry.up {
                    return;
                }
                entry.stats.timers += 1;
                self.handle_at(slot, NodeEvent::Timer { id });
                self.try_start_jobs(slot);
            }
            EventKind::Crash { node } => {
                if let Some(entry) = self.entry_mut(node) {
                    entry.up = false;
                    entry.epoch += 1;
                    entry.stats.dropped_crash += (entry.queue.len() + entry.running.len()) as u64;
                    entry.queue.clear();
                    entry.running.clear();
                    entry.busy_cores = 0;
                }
            }
            EventKind::Recover { node } => {
                if let Some(slot) = self.slot(node) {
                    let entry = &mut self.nodes[slot];
                    if !entry.up {
                        entry.up = true;
                        entry.epoch += 1;
                        self.handle_at(slot, NodeEvent::Recovered);
                        // Recovery handlers may self-enqueue work via a
                        // zero-delay self-send; like every other arm, give
                        // the node a chance to start service immediately
                        // instead of stalling until the next external
                        // event. (The queue is empty at this point unless
                        // the handler filled it: crashing cleared it and
                        // arrivals while down were dropped.)
                        self.try_start_jobs(slot);
                    }
                }
            }
        }
    }

    /// Diagnostic panic when the event budget trips: reports where the
    /// simulation was and which node was drowning.
    fn panic_event_budget(&self, at: Instant) -> ! {
        let busiest = self
            .nodes
            .iter()
            .max_by_key(|e| e.queue.len())
            .map(|e| format!("{} with {} queued messages", e.id, e.queue.len()))
            .unwrap_or_else(|| "no nodes registered".to_string());
        panic!(
            "event budget of {} exhausted at virtual time {:.3}ms \
             ({} events in the heap; deepest backlog: {}) — \
             runaway feedback loop, or raise SimConfig::max_events",
            self.config.max_events,
            at.as_millis_f64(),
            self.queue.len(),
            busiest,
        );
    }

    /// Runs until the event queue drains or `deadline` passes. Returns the
    /// time of the last processed event.
    ///
    /// The runaway-loop event budget is enforced at dispatch-slice
    /// boundaries rather than per event; slices are truncated so the check
    /// trips at exactly the event the per-event check would have caught
    /// (same panic, same reported virtual time).
    pub fn run_until(&mut self, deadline: Instant) -> Instant {
        /// Events dispatched between budget checks.
        const SLICE: u64 = 1024;
        // The engine's only wall-clock read: one start sample per call (plus
        // `.elapsed()` at the exits), batched across the whole dispatch run —
        // observability-only, never feeds simulated state.
        // lint-allow(wall-clock): observability-only events/sec wall timer; never feeds simulated state
        let wall_start = std::time::Instant::now();
        let alloc_start = crate::alloc_count::current();
        let mut slice_left = 0u64;
        loop {
            if slice_left == 0 {
                if self.events_processed > self.config.max_events {
                    // Symmetric with the normal exit below: both samples
                    // must land before unwinding, or allocs_per_event()
                    // silently under-reports on budget-truncated runs.
                    self.wall += wall_start.elapsed();
                    self.allocs += crate::alloc_count::current().wrapping_sub(alloc_start);
                    self.panic_event_budget(self.now);
                }
                // Truncate so the next boundary lands exactly on the first
                // event past the budget. The subtraction is safe (the check
                // above guarantees events_processed <= max_events); the +1
                // must saturate for max_events == u64::MAX.
                slice_left =
                    SLICE.min((self.config.max_events - self.events_processed).saturating_add(1));
            }
            let Some(key) = self.queue.peek_key() else {
                break;
            };
            if key.at > deadline {
                break;
            }
            let (key, kind) = self.queue.pop().expect("peeked");
            self.events_processed += 1;
            slice_left -= 1;
            debug_assert!(key.at >= self.now, "time went backwards");
            self.now = key.at;
            self.dispatch(kind);
        }
        self.wall += wall_start.elapsed();
        self.allocs += crate::alloc_count::current().wrapping_sub(alloc_start);
        self.now
    }

    /// Runs until the queue is fully drained.
    pub fn run_to_completion(&mut self) -> Instant {
        self.run_until(Instant::FAR_FUTURE)
    }

    /// Time of the next scheduled event, if any. A checking harness that
    /// pauses the run at fixed invariant intervals uses this to skip over
    /// stretches of empty virtual time (long drain tails, sparse periodic
    /// timers) without perturbing the event stream: between two events the
    /// cluster state cannot change, so a skipped pause would have observed
    /// exactly what the previous one did.
    pub fn next_event_at(&self) -> Option<Instant> {
        self.queue.min_key().map(|k| k.at)
    }

    /// Runs until the event queue drains or `deadline` passes, consulting
    /// `chooser` whenever ≥2 deliveries are simultaneously enabled at the
    /// same tick. With [`crate::IdentityChooser`] this dispatches the
    /// exact `(at, seq)` stream of [`Sim::run_until`]: the identity pick
    /// is always the lowest-seq staged delivery, non-delivery events run
    /// whenever they head the staging buffer (i.e. in seq order), and
    /// same-tick pushes join the staging buffer with strictly larger seq,
    /// exactly where the wheel would have popped them.
    ///
    /// A chooser may also run a delivery *across* a staged non-delivery
    /// event (delivering before vs. after a same-tick crash is a
    /// meaningful ordering); [`crate::ChoiceCtx::barrier`] flags such
    /// choice points so a pruning policy can treat them as dependent.
    pub fn run_until_chosen(
        &mut self,
        deadline: Instant,
        chooser: &mut dyn crate::Chooser<M>,
    ) -> Instant {
        if self.choice.is_none() {
            self.choice = Some(Box::new(crate::choice::ChoiceState::new(self.nodes.len())));
        }
        // One tick's events, kept in ascending seq order (wheel pop order;
        // same-tick pushes always carry a strictly larger seq).
        let mut staging: Vec<(SchedKey, EventKind<M>)> = Vec::new();
        while let Some(head) = self.queue.peek_key() {
            if head.at > deadline {
                break;
            }
            let tick = head.at;
            debug_assert!(tick >= self.now, "time went backwards");
            self.now = tick;
            while self.queue.peek_key().is_some_and(|k| k.at == tick) {
                staging.push(self.queue.pop().expect("peeked"));
            }
            while !staging.is_empty() {
                let idx = self.choose_staged(tick, &staging, chooser);
                let (key, kind) = staging.remove(idx);
                self.events_processed += 1;
                if self.events_processed > self.config.max_events {
                    self.panic_event_budget(tick);
                }
                self.note_chosen_dispatch(&kind, key.seq, tick);
                self.dispatch(kind);
                // Zero-delay effects land at this same tick; merge them so
                // later choices at this tick see them as enabled.
                while self.queue.peek_key().is_some_and(|k| k.at == tick) {
                    let ev = self.queue.pop().expect("peeked");
                    debug_assert!(
                        staging.last().is_none_or(|(k, _)| k.seq < ev.0.seq),
                        "same-tick push with non-monotone seq"
                    );
                    staging.push(ev);
                }
            }
        }
        self.now
    }

    /// Picks the staging index to dispatch next. Non-delivery events run
    /// in seq order whenever one heads the buffer; otherwise the choice
    /// set is every staged delivery, and the chooser is consulted only
    /// when there are at least two.
    fn choose_staged(
        &self,
        tick: Instant,
        staging: &[(SchedKey, EventKind<M>)],
        chooser: &mut dyn crate::Chooser<M>,
    ) -> usize {
        if !matches!(staging[0].1, EventKind::Deliver { .. }) {
            return 0;
        }
        let mut enabled: Vec<crate::Enabled<'_, M>> = Vec::new();
        let mut positions: Vec<usize> = Vec::new();
        for (i, (key, kind)) in staging.iter().enumerate() {
            if let EventKind::Deliver { to, from, msg } = kind {
                enabled.push(crate::Enabled {
                    seq: key.seq,
                    from: *from,
                    to: *to,
                    msg,
                });
                positions.push(i);
            }
        }
        if enabled.len() < 2 {
            return 0; // the head is the only enabled delivery
        }
        let st = self.choice.as_ref().expect("chosen mode");
        let ctx = crate::ChoiceCtx {
            now: tick,
            deliveries: st.deliveries,
            state_hash: self.choice_state_hash(),
            barrier: enabled.len() != staging.len(),
        };
        let pick = chooser.choose(&ctx, &enabled);
        assert!(
            pick < enabled.len(),
            "chooser returned {pick} for {} enabled deliveries",
            enabled.len()
        );
        positions[pick]
    }

    /// Folds one about-to-dispatch event into the chosen-mode state hash
    /// and delivery counter.
    fn note_chosen_dispatch(&mut self, kind: &EventKind<M>, seq: u64, tick: Instant) {
        let slot = self.slot(kind.target());
        let st = self.choice.as_mut().expect("chosen mode");
        if matches!(kind, EventKind::Deliver { .. }) {
            st.deliveries += 1;
        }
        let Some(slot) = slot else { return };
        if st.chains.len() <= slot {
            st.chains.resize(slot + 1, 0);
        }
        // Message payloads are deliberately not hashed: under a
        // deterministic protocol they are a function of the per-node
        // arrival histories the chains already encode, and hashing them
        // would demand `M: Hash` of every node implementation. The
        // scheduling `seq` stands in for message identity instead — it is
        // unique per event and, being assigned at push time, identical
        // across replays of the same prefix, so reordering two deliveries
        // that share (source, destination, tick) still changes the chain.
        let (tag, detail) = match kind {
            EventKind::Deliver { from, .. } => (1u64, from.raw()),
            EventKind::JobComplete { .. } => (2, 0),
            EventKind::Timer { id, .. } => (3, *id),
            EventKind::Crash { .. } => (4, 0),
            EventKind::Recover { .. } => (5, 0),
        };
        use crate::choice::mix64;
        let c = &mut st.chains[slot];
        *c = mix64(mix64(mix64(mix64(*c ^ tag) ^ detail) ^ seq) ^ tick.as_nanos());
    }

    /// Order-canonical hash of the chosen-mode dispatch history: each
    /// node's events are chained in their dispatch order, but chains of
    /// *different* nodes combine commutatively, so two interleavings that
    /// only permute deliveries to independent nodes hash identically — the
    /// property a visited-state set needs to merge equivalent states. Two
    /// *different* states may also collide (this is approximate, bitstate
    /// style); a checker using it for pruning trades a sliver of coverage
    /// for a tractable frontier, never soundness of reported violations.
    ///
    /// Zero until the first `run_until_chosen` call; plain `run_until`
    /// dispatches are not recorded.
    pub fn choice_state_hash(&self) -> u64 {
        use crate::choice::mix64;
        let Some(st) = &self.choice else { return 0 };
        let mut h = mix64(st.deliveries ^ 0x6E75_6D64_656C_6976) ^ mix64(self.now.as_nanos());
        for (slot, &c) in st.chains.iter().enumerate() {
            if c != 0 {
                h ^= mix64(c ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::LinkSpec;

    /// Echoes every message back to its sender after a fixed service time.
    struct Echo {
        service: Duration,
        seen: Vec<u64>,
    }

    impl Node<u64> for Echo {
        fn service_time(&self, _msg: &u64) -> Duration {
            self.service
        }
        fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
            if let NodeEvent::Message { from, msg } = event {
                self.seen.push(msg);
                if from != NodeId::EXTERNAL {
                    out.send(from, msg + 1000);
                }
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_node_sim(service: Duration, latency: Duration) -> (Sim<u64>, NodeId, NodeId) {
        let links = Links::with_default(LinkSpec::fixed(latency));
        let mut sim = Sim::new(links);
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        sim.add_node(
            a,
            Box::new(Kicker {
                peer: b,
                count: 3,
                replies: Vec::new(),
            }),
        );
        sim.add_node(
            b,
            Box::new(Echo {
                service,
                seen: Vec::new(),
            }),
        );
        (sim, a, b)
    }

    /// Replies to an external kick by pinging its peer `count` times.
    struct Kicker {
        peer: NodeId,
        count: u64,
        replies: Vec<(u64, Instant)>,
    }

    impl Node<u64> for Kicker {
        fn service_time(&self, _msg: &u64) -> Duration {
            Duration::ZERO
        }
        fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
            if let NodeEvent::Message { from, msg } = event {
                if from == NodeId::EXTERNAL {
                    for i in 0..self.count {
                        out.send(self.peer, i);
                    }
                } else {
                    self.replies.push((msg, out.now()));
                }
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn request_response_round_trip_timing() {
        let links = Links::with_default(LinkSpec::fixed(Duration::from_micros(50)));
        let mut sim = Sim::new(links);
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        sim.add_node(
            a,
            Box::new(Kicker {
                peer: b,
                count: 1,
                replies: Vec::new(),
            }),
        );
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(10),
                seen: Vec::new(),
            }),
        );
        sim.inject_at(Instant::ZERO, a, 0);
        sim.run_to_completion();
        let kicker = sim.node_as::<Kicker>(a).unwrap();
        // 50µs there + 10µs service + 50µs back = 110µs.
        assert_eq!(kicker.replies, vec![(1000, Instant::from_micros(110))]);
    }

    #[test]
    fn fifo_single_core_queueing() {
        // 3 simultaneous messages, 10µs service: completions at 10/20/30µs.
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(10),
                seen: Vec::new(),
            }),
        );
        for i in 0..3 {
            sim.inject_at(Instant::ZERO, b, i);
        }
        let end = sim.run_to_completion();
        assert_eq!(end, Instant::from_micros(30));
        let stats = sim.stats(b).unwrap();
        assert_eq!(stats.processed, 3);
        // Waits: 0 + 10 + 20 = 30µs.
        assert_eq!(stats.total_wait, Duration::from_micros(30));
        // msg0 starts service on arrival, so only msg1+msg2 ever queue.
        assert_eq!(stats.max_queue_depth, 2);
        let echo = sim.node_as::<Echo>(b).unwrap();
        assert_eq!(echo.seen, vec![0, 1, 2], "FIFO order preserved");
    }

    /// Echo with two cores.
    struct Echo2(Echo);
    impl Node<u64> for Echo2 {
        fn service_time(&self, msg: &u64) -> Duration {
            self.0.service_time(msg)
        }
        fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
            self.0.handle(event, out)
        }
        fn cores(&self) -> usize {
            2
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn multicore_halves_completion_time() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo2(Echo {
                service: Duration::from_micros(10),
                seen: Vec::new(),
            })),
        );
        for i in 0..4 {
            sim.inject_at(Instant::ZERO, b, i);
        }
        let end = sim.run_to_completion();
        assert_eq!(end, Instant::from_micros(20), "4 jobs on 2 cores at 10µs");
    }

    #[test]
    fn crash_drops_queue_and_in_flight_work() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(100),
                seen: Vec::new(),
            }),
        );
        for i in 0..5 {
            sim.inject_at(Instant::ZERO, b, i);
        }
        // Crash mid-service of the first job.
        sim.crash_at(Instant::from_micros(50), b);
        // A message arriving while down is dropped.
        sim.inject_at(Instant::from_micros(60), b, 100);
        sim.run_to_completion();
        let stats = sim.stats(b).unwrap();
        assert_eq!(stats.processed, 0, "nothing completed before the crash");
        assert_eq!(stats.dropped_crash, 5);
        assert_eq!(stats.dropped_down, 1);
    }

    #[test]
    fn recovery_resumes_processing() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(10),
                seen: Vec::new(),
            }),
        );
        sim.crash_at(Instant::ZERO, b);
        sim.recover_at(Instant::from_micros(100), b);
        sim.inject_at(Instant::from_micros(50), b, 1); // dropped (down)
        sim.inject_at(Instant::from_micros(150), b, 2); // processed
        sim.run_to_completion();
        let stats = sim.stats(b).unwrap();
        assert_eq!(stats.dropped_down, 1);
        assert_eq!(stats.processed, 1);
        assert!(sim.is_up(b));
    }

    #[test]
    fn link_latency_delays_delivery() {
        let (mut sim, a, _b) = two_node_sim(Duration::ZERO, Duration::from_millis(1));
        sim.inject_at(Instant::ZERO, a, 0);
        sim.run_to_completion();
        // 3 pings: out at t=0, arrive 1ms, replies arrive 2ms.
        assert_eq!(sim.now(), Instant::from_millis(2));
        let kicker = sim.node_as::<Kicker>(a).unwrap();
        assert_eq!(kicker.replies.len(), 3);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let (mut sim, _a, b) =
                two_node_sim(Duration::from_micros(13), Duration::from_micros(97));
            for i in 0..50 {
                sim.inject_at(Instant::from_micros(i * 7), b, i);
            }
            sim.run_to_completion();
            (
                sim.now(),
                sim.events_processed(),
                sim.stats(b).unwrap().total_wait,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_node_panics() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim: Sim<u64> = Sim::new(links);
        sim.add_node(
            NodeId::new(1),
            Box::new(Echo {
                service: Duration::ZERO,
                seen: Vec::new(),
            }),
        );
        sim.add_node(
            NodeId::new(1),
            Box::new(Echo {
                service: Duration::ZERO,
                seen: Vec::new(),
            }),
        );
    }

    /// Echo whose service time is the message value in microseconds.
    struct VarEcho {
        cores: usize,
        seen: Vec<u64>,
    }

    impl Node<u64> for VarEcho {
        fn service_time(&self, msg: &u64) -> Duration {
            Duration::from_micros(*msg)
        }
        fn handle(&mut self, event: NodeEvent<u64>, _out: &mut Outbox<u64>) {
            if let NodeEvent::Message { msg, .. } = event {
                self.seen.push(msg);
            }
        }
        fn cores(&self) -> usize {
            self.cores
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn multicore_jobs_complete_out_of_submission_order() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(b, Box::new(VarEcho { cores: 2, seen: Vec::new() }));
        // Job 0 takes 100µs, job 1 takes 10µs: both start at t=0 on separate
        // cores, and the later-submitted job finishes first.
        sim.inject_at(Instant::ZERO, b, 100);
        sim.inject_at(Instant::ZERO, b, 10);
        sim.run_to_completion();
        let echo = sim.node_as::<VarEcho>(b).unwrap();
        assert_eq!(echo.seen, vec![10, 100], "completion order, not FIFO");
    }

    #[test]
    fn stale_job_completions_dropped_across_epoch_bump() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(b, Box::new(VarEcho { cores: 2, seen: Vec::new() }));
        // Two in-flight jobs: the short one (10µs) completes before the
        // crash at 50µs, the long one (100µs) is still running and its
        // completion event must be ignored as stale after the epoch bump.
        sim.inject_at(Instant::ZERO, b, 100);
        sim.inject_at(Instant::ZERO, b, 10);
        sim.crash_at(Instant::from_micros(50), b);
        sim.recover_at(Instant::from_micros(60), b);
        // Post-recovery work processes under the new epoch.
        sim.inject_at(Instant::from_micros(70), b, 5);
        sim.run_to_completion();
        let stats = sim.stats(b).unwrap();
        assert_eq!(stats.processed, 2, "short pre-crash job + post-recovery job");
        assert_eq!(stats.dropped_crash, 1, "long job was in flight at the crash");
        let echo = sim.node_as::<VarEcho>(b).unwrap();
        assert_eq!(echo.seen, vec![10, 5], "stale completion never ran handle");
        assert!(sim.is_up(b));
    }

    #[test]
    fn horizon_derived_budget_scales_with_horizon() {
        let short = SimConfig::for_horizon(Duration::from_millis(1));
        let long = SimConfig::for_horizon(Duration::from_secs(10));
        assert!(short.max_events < long.max_events);
        // 1ms horizon: 1000µs * 64 + slack.
        assert_eq!(short.max_events, 1000 * 64 + 4_000_000);
        // Degenerate horizons still leave room for startup work.
        assert!(SimConfig::for_horizon(Duration::ZERO).max_events >= 4_000_000);
    }

    #[test]
    #[should_panic(expected = "event budget")]
    fn event_budget_panic_is_descriptive() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::with_config(links, SimConfig { max_events: 4 });
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(10),
                seen: Vec::new(),
            }),
        );
        for i in 0..10 {
            sim.inject_at(Instant::ZERO, b, i);
        }
        sim.run_to_completion();
    }

    /// The budget check runs once per dispatch slice, but slices are
    /// truncated so it still trips at exactly the event the old per-event
    /// check caught: events_processed stops at `max_events + 1`, never
    /// rounded up to a slice boundary. Uses a budget that is neither a
    /// multiple of the slice size nor smaller than one slice.
    #[test]
    fn budget_trips_at_exactly_the_per_event_boundary() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let max_events = 1500u64;
        let mut sim = Sim::with_config(links, SimConfig { max_events });
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(1),
                seen: Vec::new(),
            }),
        );
        for i in 0..2_000u64 {
            sim.inject_at(Instant::from_micros(i), b, i);
        }
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_to_completion();
        }));
        let msg = panicked
            .expect_err("budget must trip")
            .downcast::<String>()
            .expect("panic payload is a formatted string");
        assert!(msg.contains("event budget of 1500 exhausted"), "{msg}");
        assert_eq!(
            sim.events_processed(),
            max_events + 1,
            "slice truncation must stop at the first over-budget event"
        );
    }

    /// `max_events: u64::MAX` is the natural "disable the budget" value;
    /// the slice-size computation must not overflow on it (debug panic /
    /// release wrap to a zero-sized slice).
    #[test]
    fn unbounded_event_budget_does_not_overflow_slice_math() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::with_config(
            links,
            SimConfig {
                max_events: u64::MAX,
            },
        );
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(1),
                seen: Vec::new(),
            }),
        );
        for i in 0..10u64 {
            sim.inject_at(Instant::from_micros(i), b, i);
        }
        sim.run_to_completion();
        let echo = sim.node_as::<Echo>(b).unwrap();
        assert_eq!(echo.seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn unroutable_deliveries_are_counted() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let a = NodeId::new(1);
        let ghost = NodeId::new(99);
        sim.add_node(
            a,
            Box::new(Kicker {
                peer: ghost, // pings a node that was never registered
                count: 3,
                replies: Vec::new(),
            }),
        );
        sim.inject_at(Instant::ZERO, a, 0);
        sim.run_to_completion();
        assert_eq!(sim.sim_stats().dropped_unroutable, 3);
    }

    /// Pin: a `JobComplete` for a node that was never registered is
    /// misrouted exactly like an unknown-destination `Deliver` and must
    /// hit the same counter instead of vanishing silently.
    #[test]
    fn unroutable_job_completions_are_counted() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim: Sim<u64> = Sim::new(links);
        sim.push(
            Instant::from_micros(1),
            EventKind::JobComplete {
                node: NodeId::new(99),
                epoch: 0,
                job: 0,
            },
        );
        sim.run_to_completion();
        assert_eq!(sim.sim_stats().dropped_unroutable, 1);
    }

    /// Pin: same accounting for a `Timer` aimed at an unknown node.
    #[test]
    fn unroutable_timers_are_counted() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim: Sim<u64> = Sim::new(links);
        sim.push(
            Instant::from_micros(1),
            EventKind::Timer {
                node: NodeId::new(99),
                id: 0,
                epoch: 0,
            },
        );
        sim.run_to_completion();
        assert_eq!(sim.sim_stats().dropped_unroutable, 1);
    }

    /// Reports one fake heap allocation per handled message, exercising
    /// the [`crate::alloc_count`] sampling in `run_until`.
    struct Alloky;

    impl Node<u64> for Alloky {
        fn service_time(&self, _msg: &u64) -> Duration {
            Duration::from_micros(1)
        }
        fn handle(&mut self, event: NodeEvent<u64>, _out: &mut Outbox<u64>) {
            if let NodeEvent::Message { .. } = event {
                crate::alloc_count::record(1);
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Pin: the budget-panic exit must take the same allocation sample the
    /// normal exit takes, or `allocs_per_event()` silently reads zero for
    /// exactly the truncated runs whose panic message people debug with.
    #[test]
    fn budget_panic_exit_still_accumulates_allocs() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::with_config(links, SimConfig { max_events: 6 });
        let b = NodeId::new(2);
        sim.add_node(b, Box::new(Alloky));
        for i in 0..20u64 {
            sim.inject_at(Instant::from_micros(i), b, i);
        }
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_to_completion();
        }));
        assert!(panicked.is_err(), "budget must trip");
        assert!(
            sim.sim_stats().allocs >= 1,
            "allocations recorded before the budget panic must survive it"
        );
    }

    /// On `Recovered`, sends itself fresh work (zero link latency).
    struct Phoenix {
        me: NodeId,
        processed: Vec<u64>,
    }

    impl Node<u64> for Phoenix {
        fn service_time(&self, _msg: &u64) -> Duration {
            Duration::from_micros(1)
        }
        fn handle(&mut self, event: NodeEvent<u64>, out: &mut Outbox<u64>) {
            match event {
                NodeEvent::Recovered => out.send(self.me, 7),
                NodeEvent::Message { msg, .. } => self.processed.push(msg),
                NodeEvent::Timer { .. } => {}
            }
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Pin: a recovered node that self-enqueues work in its `Recovered`
    /// handler processes it with no further external events — the
    /// `Recover` arm starts service like every other dispatch arm.
    #[test]
    fn recovered_node_immediately_starts_self_enqueued_work() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Phoenix {
                me: b,
                processed: Vec::new(),
            }),
        );
        sim.crash_at(Instant::ZERO, b);
        sim.recover_at(Instant::from_micros(10), b);
        sim.run_to_completion();
        assert_eq!(sim.stats(b).unwrap().processed, 1);
        let phoenix = sim.node_as::<Phoenix>(b).unwrap();
        assert_eq!(phoenix.processed, vec![7], "self-enqueued work ran");
    }

    #[test]
    fn routable_traffic_never_touches_the_unroutable_counter() {
        let (mut sim, a, _b) = two_node_sim(Duration::from_micros(5), Duration::from_micros(20));
        sim.inject_at(Instant::ZERO, a, 0);
        sim.run_to_completion();
        let stats = sim.sim_stats();
        debug_assert_eq!(stats.dropped_unroutable, 0);
        assert_eq!(stats.dropped_unroutable, 0);
    }

    #[test]
    fn total_loss_blackholes_the_link() {
        let (mut sim, a, b) = two_node_sim(Duration::ZERO, Duration::from_micros(10));
        sim.links_mut().set_fault(
            a,
            b,
            crate::links::FaultSpec {
                loss: 1.0,
                ..crate::links::FaultSpec::NONE
            },
        );
        sim.inject_at(Instant::ZERO, a, 0);
        sim.run_to_completion();
        let echo = sim.node_as::<Echo>(b).unwrap();
        assert!(echo.seen.is_empty(), "every ping was lost");
        assert_eq!(sim.sim_stats().dropped_loss, 3);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let (mut sim, a, b) = two_node_sim(Duration::ZERO, Duration::from_micros(10));
        sim.links_mut().set_fault(
            a,
            b,
            crate::links::FaultSpec {
                duplicate: 1.0,
                ..crate::links::FaultSpec::NONE
            },
        );
        sim.inject_at(Instant::ZERO, a, 0);
        sim.run_to_completion();
        let stats = sim.sim_stats();
        assert_eq!(stats.duplicated, 3);
        let echo = sim.node_as::<Echo>(b).unwrap();
        assert_eq!(echo.seen.len(), 6, "each of 3 pings arrived twice");
    }

    #[test]
    fn partition_window_drops_then_heals() {
        let (mut sim, a, b) = two_node_sim(Duration::ZERO, Duration::ZERO);
        // Kicker sends its pings at t=0; partition covers that instant.
        sim.links_mut()
            .add_partition(a, b, Instant::ZERO, Instant::from_micros(1));
        sim.inject_at(Instant::ZERO, a, 0);
        // A second kick after the window: traffic flows again.
        sim.inject_at(Instant::from_micros(5), a, 0);
        sim.run_to_completion();
        let stats = sim.sim_stats();
        assert_eq!(stats.dropped_partition, 3);
        let echo = sim.node_as::<Echo>(b).unwrap();
        assert_eq!(echo.seen.len(), 3, "only the post-heal pings arrived");
    }

    #[test]
    fn faulty_runs_replay_identically() {
        let run = || {
            let (mut sim, a, b) =
                two_node_sim(Duration::from_micros(13), Duration::from_micros(97));
            sim.links_mut().set_seed(7);
            sim.links_mut().set_fault_default(crate::links::FaultSpec {
                loss: 0.2,
                duplicate: 0.2,
                reorder: 0.3,
                reorder_window: Duration::from_micros(200),
            });
            for i in 0..50 {
                sim.inject_at(Instant::from_micros(i * 7), a, i);
            }
            sim.run_to_completion();
            let stats = sim.sim_stats();
            (
                sim.now(),
                sim.events_processed(),
                stats.dropped_loss,
                stats.duplicated,
                stats.reordered,
                sim.node_as::<Echo>(b).unwrap().seen.clone(),
            )
        };
        let first = run();
        assert!(
            first.2 > 0 && first.3 > 0 && first.4 > 0,
            "faults actually fired: {first:?}"
        );
        assert_eq!(first, run());
    }

    #[test]
    fn sim_stats_tracks_events_and_wall_clock() {
        let (mut sim, _a, b) = two_node_sim(Duration::from_micros(5), Duration::from_micros(20));
        for i in 0..100 {
            sim.inject_at(Instant::from_micros(i), b, i);
        }
        sim.run_to_completion();
        let stats = sim.sim_stats();
        assert_eq!(stats.events_processed, sim.events_processed());
        assert!(stats.events_processed > 100);
        assert!(stats.events_per_sec() >= 0.0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let links = Links::with_default(LinkSpec::fixed(Duration::ZERO));
        let mut sim = Sim::new(links);
        let b = NodeId::new(2);
        sim.add_node(
            b,
            Box::new(Echo {
                service: Duration::from_micros(10),
                seen: Vec::new(),
            }),
        );
        for i in 0..10 {
            sim.inject_at(Instant::from_micros(i * 100), b, i);
        }
        sim.run_until(Instant::from_micros(450));
        let stats = sim.stats(b).unwrap();
        assert_eq!(stats.processed, 5);
        sim.run_to_completion();
        assert_eq!(sim.stats(b).unwrap().processed, 10);
    }
}
