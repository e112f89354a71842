//! `neutrino-check`: the deterministic simulation-testing harness.
//!
//! The netsim engine is already a deterministic discrete-event simulator:
//! one seed fixes the entire event stream, faults included. This crate
//! turns that property into a FoundationDB-style checking loop:
//!
//! * [`scenario`] — a DSL of named chaos families (topology + traffic +
//!   fault grids) that expand, per seed, into self-contained serializable
//!   [`CasePlan`](scenario::CasePlan)s.
//! * [`invariants`] — the invariant catalog behind
//!   [`neutrino_core::Invariant`]: no-lost-procedure, bounded-stall,
//!   session-ownership, bounded-retry, monotonic-checkpoint, plus the
//!   consistency audit in oracle form.
//! * [`run`] — executes a plan with in-run oracle passes at configurable
//!   sim-time intervals, pausing only at instants where events actually
//!   occurred (so long drain tails cost nothing) and never perturbing the
//!   event schedule. Produces a byte-stable [`CheckReport`](run::CheckReport).
//! * [`mcheck`] — the small-model exhaustive interleaving checker: a DFS
//!   over every schedule of simultaneously enabled deliveries (bounded by
//!   contended-delivery count), with sleep-set-style independence pruning
//!   and fingerprint-based state deduplication.
//! * [`shrink`] — minimizes a failing plan (drop partitions and crashes,
//!   zero fault rates, shorten the horizon, fewer UEs, truncate the
//!   choice trace) while it keeps failing.
//! * [`corpus`] — pinned regression cases under `crates/check/corpus/`:
//!   shrunk plans that must replay clean and byte-identically on a healthy
//!   tree.
//!
//! The `explore` binary drives thousands of seeds per scenario over the
//! bench crate's parallel sweep runner; results are input-ordered, so the
//! outcome is byte-identical for any `--jobs`.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod corpus;
pub mod flowcov;
pub mod invariants;
pub mod mcheck;
pub mod run;
pub mod scenario;
pub mod shrink;

pub use corpus::CorpusCase;
pub use invariants::{invariant_by_name, ALL_INVARIANTS};
pub use mcheck::{explore_exhaustive, McheckOptions, McheckOutcome, McheckStats};
pub use run::{run_case, run_case_with, CheckReport, Fingerprint, ViolationRecord};
pub use scenario::{plan_by_name, small_model_plan, CasePlan, Scenario, SMALL_MODEL_NAMES};
pub use shrink::{shrink, ShrinkOutcome};
