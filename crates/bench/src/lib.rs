//! The experiment harness: one module per paper figure.
//!
//! Every public `figN` function regenerates the corresponding figure's data
//! series and returns it as structured rows; the `repro` binary renders them
//! as text tables and optionally JSON. The mapping from figure to module is
//! indexed in DESIGN.md; paper-vs-measured numbers live in EXPERIMENTS.md.
//!
//! Absolute latencies are not expected to match the authors' testbed — the
//! substrate here is a calibrated simulator (see DESIGN.md §3) — but the
//! *shape* of every figure (which system wins, by what factor, where the
//! saturation knees fall) is the reproduction target.

// `count-allocs` needs one unsafe impl (the counting GlobalAlloc below);
// everything else stays unsafe-free in both configurations.
#![cfg_attr(not(feature = "count-allocs"), forbid(unsafe_code))]
#![cfg_attr(feature = "count-allocs", deny(unsafe_code))]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod figures;
pub mod render;
pub mod schedbench;
pub mod sweep;

pub use figures::*;

/// A counting global allocator: every allocation bumps
/// `neutrino_netsim::alloc_count`, which the engine samples around
/// `run_until` to surface `SimStats::allocs` / allocs-per-event. The
/// netsim crate forbids `unsafe`, so the allocator lives here, in the
/// harness that consumes the metric.
#[cfg(feature = "count-allocs")]
mod alloc_meter {
    use std::alloc::{GlobalAlloc, Layout, System};

    struct CountingAlloc;

    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            neutrino_netsim::alloc_count::record(1);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A realloc that moves is a fresh allocation from the pressure
            // perspective; count it like one.
            neutrino_netsim::alloc_count::record(1);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;
}
