//! An in-process real-time deployment: every node on its own thread,
//! `std::sync::mpsc` channels as links.
//!
//! The mesh runs the *same* sans-IO cores as the simulator, against the
//! wall clock. When [`MeshConfig::serialize_on_wire`] is set, every message
//! is actually encoded with [`framing`](crate::framing) and decoded on the
//! receiving thread — the live path exercises the real serialization
//! engine, exactly like the paper's testbed.

use crate::framing::{decode_sysmsg, encode_sysmsg};
use neutrino_codec::CodecKind;
use neutrino_common::time::Instant;
use neutrino_common::{BsId, CpfId, CtaId, UpfId};
use neutrino_cpf::{CpfCore, CpfOutput};
use neutrino_cta::{CtaCore, CtaOutput};
use neutrino_messages::SysMsg;
use neutrino_upf::{UpfCore, UpfOutput};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Addresses on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeAddr {
    /// The UE/BS side (the example process itself).
    Client,
    /// A CTA.
    Cta(CtaId),
    /// A CPF.
    Cpf(CpfId),
    /// A UPF.
    Upf(UpfId),
}

enum MeshMsg {
    /// A (possibly wire-encoded) system message.
    Sys(Vec<u8>),
    /// Direct (no serialization) variant.
    Direct(Box<SysMsg>),
    Stop,
}

/// Mesh configuration.
#[derive(Debug, Clone, Copy)]
pub struct MeshConfig {
    /// Codec used when messages are serialized hop-by-hop.
    pub codec: CodecKind,
    /// Encode/decode every hop through the real framing layer.
    pub serialize_on_wire: bool,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            codec: CodecKind::FastbufOptimized,
            serialize_on_wire: true,
        }
    }
}

#[derive(Clone)]
struct Router {
    config: MeshConfig,
    links: Arc<Mutex<HashMap<NodeAddr, Sender<MeshMsg>>>>,
    epoch: std::time::Instant,
}

impl Router {
    /// The link table. The lock is only held for one lookup or insert,
    /// which leaves the map valid even if its holder panics, so a poisoned
    /// lock is recovered rather than propagated.
    fn links(&self) -> MutexGuard<'_, HashMap<NodeAddr, Sender<MeshMsg>>> {
        self.links.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now(&self) -> Instant {
        Instant::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn send(&self, to: NodeAddr, msg: &SysMsg) {
        let tx = match self.links().get(&to) {
            Some(tx) => tx.clone(),
            None => return, // destination gone (shutdown)
        };
        let payload = if self.config.serialize_on_wire {
            // The frame crosses a channel, so it must be owned — but one
            // Vec instead of the old BytesMut-then-copy pair.
            let mut frame = Vec::new();
            match encode_sysmsg(msg, self.config.codec, &mut frame) {
                Ok(()) => MeshMsg::Sys(frame),
                Err(_) => return,
            }
        } else {
            MeshMsg::Direct(Box::new(msg.clone()))
        };
        let _ = tx.send(payload);
    }

    fn decode(&self, m: MeshMsg) -> Option<SysMsg> {
        match m {
            MeshMsg::Sys(frame) => decode_sysmsg(&frame, self.config.codec).ok(),
            MeshMsg::Direct(msg) => Some(*msg),
            MeshMsg::Stop => None,
        }
    }
}

/// A running mesh.
pub struct Mesh {
    router: Router,
    handles: Vec<JoinHandle<()>>,
    client_rx: Receiver<MeshMsg>,
}

impl Mesh {
    /// Builds a mesh and registers the client endpoint.
    pub fn new(config: MeshConfig) -> Mesh {
        let router = Router {
            config,
            links: Arc::new(Mutex::new(HashMap::new())),
            epoch: std::time::Instant::now(),
        };
        let (tx, rx) = channel();
        router.links().insert(NodeAddr::Client, tx);
        Mesh {
            router,
            handles: Vec::new(),
            client_rx: rx,
        }
    }

    fn register(&self, addr: NodeAddr) -> Receiver<MeshMsg> {
        let (tx, rx) = channel();
        self.router.links().insert(addr, tx);
        rx
    }

    /// Spawns a CTA node.
    pub fn spawn_cta(&mut self, core: CtaCore) {
        let addr = NodeAddr::Cta(core.id());
        let rx = self.register(addr);
        let router = self.router.clone();
        self.handles.push(std::thread::spawn(move || {
            let mut core = core;
            for m in rx.iter() {
                let msg = match router.decode(m) {
                    Some(msg) => msg,
                    None => break,
                };
                for out in core.handle(msg, router.now()) {
                    match out {
                        CtaOutput::ToCpf { cpf, msg } => router.send(NodeAddr::Cpf(cpf), &msg),
                        CtaOutput::ToBs { msg, .. } => router.send(NodeAddr::Client, &msg),
                    }
                }
            }
        }));
    }

    /// Spawns a CPF node.
    pub fn spawn_cpf(&mut self, core: CpfCore) {
        let addr = NodeAddr::Cpf(core.id());
        let rx = self.register(addr);
        let router = self.router.clone();
        self.handles.push(std::thread::spawn(move || {
            let mut core = core;
            for m in rx.iter() {
                let msg = match router.decode(m) {
                    Some(msg) => msg,
                    None => break,
                };
                for out in core.handle(msg) {
                    match out {
                        CpfOutput::ToCta { cta, msg } => router.send(NodeAddr::Cta(cta), &msg),
                        CpfOutput::ToCpf { cpf, msg } => router.send(NodeAddr::Cpf(cpf), &msg),
                        CpfOutput::ToUpf { upf, msg } => router.send(NodeAddr::Upf(upf), &msg),
                    }
                }
            }
        }));
    }

    /// Spawns a UPF node.
    pub fn spawn_upf(&mut self, core: UpfCore) {
        let addr = NodeAddr::Upf(core.id());
        let rx = self.register(addr);
        let router = self.router.clone();
        self.handles.push(std::thread::spawn(move || {
            let mut core = core;
            for m in rx.iter() {
                let msg = match router.decode(m) {
                    Some(msg) => msg,
                    None => break,
                };
                for out in core.handle(msg) {
                    match out {
                        UpfOutput::ToCpf { cpf, msg } => router.send(NodeAddr::Cpf(cpf), &msg),
                        UpfOutput::ToCta { cta, msg } => router.send(NodeAddr::Cta(cta), &msg),
                        // Data-plane outcomes surface to the client side.
                        UpfOutput::Delivered { ue } => {
                            router.send(NodeAddr::Client, &SysMsg::DownlinkData { ue })
                        }
                        UpfOutput::Undeliverable { .. } => {}
                    }
                }
            }
        }));
    }

    /// Sends a message into the mesh (as the UE/BS side).
    pub fn send(&self, to: NodeAddr, msg: &SysMsg) {
        self.router.send(to, msg);
    }

    /// Receives the next message addressed to the client, with a timeout.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<SysMsg> {
        let m = self.client_rx.recv_timeout(timeout).ok()?;
        match m {
            MeshMsg::Stop => None,
            other => self.router.decode(other),
        }
    }

    /// The elapsed mesh clock.
    pub fn now(&self) -> Instant {
        self.router.now()
    }

    /// Stops every node thread and joins them.
    pub fn shutdown(mut self) {
        let links: Vec<Sender<MeshMsg>> = self.router.links().values().cloned().collect();
        for tx in links {
            let _ = tx.send(MeshMsg::Stop);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Convenience: the ids a small single-region mesh uses.
#[derive(Debug, Clone)]
pub struct SmallDeployment {
    /// The CTA.
    pub cta: CtaId,
    /// The CPF pool.
    pub cpfs: Vec<CpfId>,
    /// The UPF.
    pub upf: UpfId,
    /// The client-side BS id.
    pub bs: BsId,
}

impl Default for SmallDeployment {
    fn default() -> Self {
        SmallDeployment {
            cta: CtaId::new(0),
            cpfs: (0..5).map(CpfId::new).collect(),
            upf: UpfId::new(0),
            bs: BsId::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutrino_common::{ProcedureId, UeId};
    use neutrino_cpf::CpfConfig;
    use neutrino_cta::CtaConfig;
    use neutrino_geo::RingStack;
    use neutrino_messages::procedures::ProcedureKind;
    use neutrino_messages::{ControlMessage, Direction, Envelope, MessageKind};

    fn build_mesh(config: MeshConfig) -> (Mesh, SmallDeployment) {
        let dep = SmallDeployment::default();
        let ring = RingStack::new(&dep.cpfs, &[], 2);
        let mut mesh = Mesh::new(config);
        mesh.spawn_cta(CtaCore::new(
            CtaConfig::neutrino(dep.cta, config.codec),
            ring.clone(),
        ));
        for &cpf in &dep.cpfs {
            mesh.spawn_cpf(CpfCore::new(CpfConfig::neutrino(
                cpf,
                ring.clone(),
                vec![dep.upf],
            )));
        }
        mesh.spawn_upf(UpfCore::new(dep.upf));
        (mesh, dep)
    }

    /// Drives a full attach through the live mesh as the UE/BS.
    fn attach(mesh: &Mesh, dep: &SmallDeployment, ue: u64) {
        let timeout = std::time::Duration::from_secs(5);
        let send_ul = |kind: MessageKind, eop: bool| {
            let mut env = Envelope::uplink(
                UeId::new(ue),
                ProcedureId::new(1),
                ProcedureKind::InitialAttach,
                kind.sample(ue),
            )
            .from_bs(dep.bs);
            if eop {
                env = env.ending_procedure();
            }
            mesh.send(NodeAddr::Cta(dep.cta), &SysMsg::Control(env));
        };
        let expect_dl = |kind: MessageKind| {
            let dl = mesh.recv_timeout(timeout).expect("downlink arrives");
            match dl {
                SysMsg::Control(env) => {
                    assert_eq!(env.direction, Direction::Downlink);
                    assert_eq!(env.msg.kind(), kind);
                }
                other => panic!("unexpected {}", other.label()),
            }
        };
        send_ul(MessageKind::InitialUeMessage, false);
        expect_dl(MessageKind::AuthenticationRequest);
        send_ul(MessageKind::AuthenticationResponse, false);
        expect_dl(MessageKind::SecurityModeCommand);
        send_ul(MessageKind::SecurityModeComplete, false);
        let dl = mesh.recv_timeout(timeout).expect("ICS request arrives");
        assert!(matches!(
            dl,
            SysMsg::Control(ref env)
                if matches!(env.msg, ControlMessage::InitialContextSetupRequest(_))
        ));
        send_ul(MessageKind::InitialContextSetupResponse, false);
        send_ul(MessageKind::AttachComplete, true);
    }

    #[test]
    fn live_mesh_completes_attach_with_wire_serialization() {
        let (mesh, dep) = build_mesh(MeshConfig {
            codec: CodecKind::FastbufOptimized,
            serialize_on_wire: true,
        });
        attach(&mesh, &dep, 7);
        // A follow-up service request also completes.
        let env = Envelope::uplink(
            UeId::new(7),
            ProcedureId::new(2),
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest.sample(7),
        )
        .from_bs(dep.bs);
        mesh.send(NodeAddr::Cta(dep.cta), &SysMsg::Control(env));
        let dl = mesh
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("bearer restore arrives");
        assert!(matches!(
            dl,
            SysMsg::Control(e) if e.msg.kind() == MessageKind::InitialContextSetupRequest
        ));
        mesh.shutdown();
    }

    #[test]
    fn live_mesh_works_with_asn1_wire() {
        let (mesh, dep) = build_mesh(MeshConfig {
            codec: CodecKind::Asn1Per,
            serialize_on_wire: true,
        });
        attach(&mesh, &dep, 9);
        mesh.shutdown();
    }

    #[test]
    fn stale_ue_is_asked_to_re_attach_live() {
        let (mesh, dep) = build_mesh(MeshConfig::default());
        let env = Envelope::uplink(
            UeId::new(1234),
            ProcedureId::new(5),
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest.sample(1234),
        )
        .from_bs(dep.bs);
        mesh.send(NodeAddr::Cta(dep.cta), &SysMsg::Control(env));
        let resp = mesh
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("a response");
        assert!(matches!(resp, SysMsg::AskReAttach { ue } if ue == UeId::new(1234)));
        mesh.shutdown();
    }
}
