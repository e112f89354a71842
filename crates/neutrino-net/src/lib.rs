//! Real-time drivers for the sans-IO protocol cores.
//!
//! The same [`CtaCore`](neutrino_cta::CtaCore), [`CpfCore`](neutrino_cpf::CpfCore)
//! and [`UpfCore`](neutrino_upf::UpfCore) state machines that run inside the
//! discrete-event simulator also run here, against real time and real
//! transports:
//!
//! * [`framing`] — the wire format for [`SysMsg`](neutrino_messages::SysMsg):
//!   a fixed header plus codec-encoded payloads (control messages travel in
//!   the system's configured serialization — ASN.1 PER for the EPC
//!   baselines, optimized fastbuf for Neutrino — exactly as on the paper's
//!   testbed wire).
//! * [`mesh`] — an in-process deployment: every node on its own thread,
//!   `std::sync::mpsc` channels as links. This is what the runnable examples use.
//! * [`udp`] — a UDP transport binding node addresses to sockets, using
//!   [`framing`]; demonstrates the cores over a real network stack.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod framing;
pub mod mesh;
pub mod udp;

pub use framing::{decode_sysmsg, encode_sysmsg};
pub use mesh::{Mesh, MeshConfig, NodeAddr};
