//! Wire framing for [`SysMsg`] over byte transports.
//!
//! Layout: a 1-byte message tag, fixed-width header fields, then the
//! payload. Control-message payloads are encoded with the *system's* codec
//! (the serialization under evaluation); state snapshots travel as fastbuf
//! regardless (replication is Neutrino-internal and not part of the ASN.1
//! comparison surface). Length-prefixed throughout so frames survive
//! stream transports.
//!
//! Encoding writes into a caller-supplied `Vec<u8>` so transports can
//! recycle frame buffers ([`neutrino_codec::scratch`]); interior payload
//! temporaries come from the same pool, keeping the steady-state encode
//! path allocation-free.

use neutrino_codec::{scratch, CodecKind, WireFormat};
use neutrino_common::clock::ClockTick;
use neutrino_common::{BsId, CpfId, CtaId, Error, ProcedureId, Result, SessionId, UeId, UpfId};
use neutrino_messages::control::{ControlMessage, Direction, Envelope, MessageKind};
use neutrino_messages::procedures::ProcedureKind;
use neutrino_messages::state::UeState;
use neutrino_messages::sysmsg::{
    AdmissionClass, MarkOutdated, Replay, S11Request, S11Response, SessionOp, StateSync, SyncAck,
    SyncPurpose, SysMsg,
};
use neutrino_messages::Wire;

const TAG_CONTROL: u8 = 1;
const TAG_STATE_SYNC: u8 = 2;
const TAG_SYNC_ACK: u8 = 3;
const TAG_MARK_OUTDATED: u8 = 4;
const TAG_REPLAY: u8 = 5;
const TAG_FETCH_STATE: u8 = 6;
const TAG_FETCH_RESP: u8 = 7;
const TAG_S11: u8 = 8;
const TAG_S11_RESP: u8 = 9;
const TAG_ASK_RE_ATTACH: u8 = 10;
const TAG_MIGRATION_ACK: u8 = 11;
const TAG_RELAY_RE_ATTACH: u8 = 12;
const TAG_CPF_FAILURE: u8 = 13;
const TAG_DOWNLINK_DATA: u8 = 14;
const TAG_DDN: u8 = 15;
const TAG_RESYNC_REQUEST: u8 = 16;
const TAG_RESYNC_BEHIND: u8 = 17;
const TAG_REJECT: u8 = 18;

fn err(detail: impl Into<String>) -> Error {
    Error::codec("framing", detail.into())
}

fn kind_code(kind: MessageKind) -> u16 {
    MessageKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("kind enumerated") as u16
}

fn kind_from_code(code: u16) -> Result<MessageKind> {
    MessageKind::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| err(format!("bad message kind code {code}")))
}

fn proc_kind_code(kind: ProcedureKind) -> u8 {
    ProcedureKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("kind enumerated") as u8
}

fn proc_kind_from_code(code: u8) -> Result<ProcedureKind> {
    ProcedureKind::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| err(format!("bad procedure kind code {code}")))
}

/// Splits `N` bytes off the front of `buf`. Every caller checks the length
/// first (`need`, `take_*`, or an explicit `len` test) and returns a
/// framing error on short input, so a short buffer here is a bug.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, tail) = buf.split_first_chunk::<N>().expect("length checked");
    *buf = tail;
    *head
}

fn get_u8(buf: &mut &[u8]) -> u8 {
    u8::from_be_bytes(take(buf))
}

fn get_u16(buf: &mut &[u8]) -> u16 {
    u16::from_be_bytes(take(buf))
}

fn get_u32(buf: &mut &[u8]) -> u32 {
    u32::from_be_bytes(take(buf))
}

fn get_u64(buf: &mut &[u8]) -> u64 {
    u64::from_be_bytes(take(buf))
}

fn put_block(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    buf.extend_from_slice(bytes);
}

fn get_block<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8]> {
    if buf.len() < 4 {
        return Err(err("truncated block length"));
    }
    let len = get_u32(buf) as usize;
    if buf.len() < len {
        return Err(err("truncated block body"));
    }
    let (head, tail) = buf.split_at(len);
    *buf = tail;
    Ok(head)
}

fn put_envelope(env: &Envelope, codec: &dyn WireFormat, buf: &mut Vec<u8>) -> Result<()> {
    buf.extend_from_slice(&env.ue.raw().to_be_bytes());
    buf.extend_from_slice(&env.procedure.raw().to_be_bytes());
    buf.push(proc_kind_code(env.proc_kind));
    buf.extend_from_slice(&env.bs.raw().to_be_bytes());
    match env.via_cta {
        Some(c) => {
            buf.push(1);
            buf.extend_from_slice(&c.raw().to_be_bytes());
        }
        None => buf.push(0),
    }
    buf.extend_from_slice(&env.clock.raw().to_be_bytes());
    buf.push(match env.direction {
        Direction::Uplink => 0,
        Direction::Downlink => 1,
    });
    buf.push(u8::from(env.end_of_procedure));
    buf.extend_from_slice(&kind_code(env.msg.kind()).to_be_bytes());
    scratch::with_buf(|payload| {
        env.msg.encode(codec, payload)?;
        put_block(buf, payload);
        Ok(())
    })
}

fn take_u64(buf: &mut &[u8]) -> Result<u64> {
    need(buf, 8)?;
    Ok(get_u64(buf))
}

fn take_u16(buf: &mut &[u8]) -> Result<u16> {
    need(buf, 2)?;
    Ok(get_u16(buf))
}

fn take_u8(buf: &mut &[u8]) -> Result<u8> {
    need(buf, 1)?;
    Ok(get_u8(buf))
}

fn get_envelope(buf: &mut &[u8], codec: &dyn WireFormat) -> Result<Envelope> {
    let ue = UeId::new(take_u64(buf)?);
    let procedure = ProcedureId::new(take_u64(buf)?);
    let proc_kind = proc_kind_from_code(take_u8(buf)?)?;
    let bs = BsId::new(take_u64(buf)?);
    let via_cta = if take_u8(buf)? == 1 {
        Some(CtaId::new(take_u64(buf)?))
    } else {
        None
    };
    let clock = ClockTick(take_u64(buf)?);
    let direction = match take_u8(buf)? {
        0 => Direction::Uplink,
        1 => Direction::Downlink,
        other => return Err(err(format!("bad direction {other}"))),
    };
    let end_of_procedure = take_u8(buf)? == 1;
    let kind = kind_from_code(take_u16(buf)?)?;
    let payload = get_block(buf)?;
    let msg = ControlMessage::decode(kind, codec, payload)?;
    Ok(Envelope {
        ue,
        procedure,
        proc_kind,
        bs,
        via_cta,
        clock,
        direction,
        end_of_procedure,
        msg,
    })
}

fn put_state(state: &UeState, buf: &mut Vec<u8>) -> Result<()> {
    // State snapshots always travel as fastbuf: they are Neutrino-internal.
    let codec = neutrino_codec::fastbuf::Fastbuf::optimized();
    scratch::with_buf(|payload| {
        state.encode(&codec, payload)?;
        put_block(buf, payload);
        Ok(())
    })
}

fn get_state(buf: &mut &[u8]) -> Result<UeState> {
    let codec = neutrino_codec::fastbuf::Fastbuf::optimized();
    let payload = get_block(buf)?;
    UeState::decode(&codec, payload)
}

/// Encodes a [`SysMsg`] as a self-contained frame into `buf`.
///
/// `buf` is cleared first so callers can recycle one buffer across frames
/// (e.g. via [`scratch::with_buf`]); on error its contents are unspecified.
pub fn encode_sysmsg(msg: &SysMsg, codec_kind: CodecKind, buf: &mut Vec<u8>) -> Result<()> {
    let codec = codec_kind.instance();
    buf.clear();
    buf.reserve(64);
    match msg {
        SysMsg::Control(env) => {
            buf.push(TAG_CONTROL);
            put_envelope(env, codec.as_ref(), buf)?;
        }
        SysMsg::StateSync(s) => {
            buf.push(TAG_STATE_SYNC);
            buf.extend_from_slice(&s.ue.raw().to_be_bytes());
            buf.extend_from_slice(&s.primary.raw().to_be_bytes());
            buf.extend_from_slice(&s.cta.raw().to_be_bytes());
            buf.extend_from_slice(&s.procedure.raw().to_be_bytes());
            buf.extend_from_slice(&s.end_clock.raw().to_be_bytes());
            buf.push(match s.purpose {
                SyncPurpose::Checkpoint => 0,
                SyncPurpose::Migration => 1,
            });
            put_state(&s.state, buf)?;
        }
        SysMsg::SyncAck(a) => {
            buf.push(TAG_SYNC_ACK);
            buf.extend_from_slice(&a.ue.raw().to_be_bytes());
            buf.extend_from_slice(&a.replica.raw().to_be_bytes());
            buf.extend_from_slice(&a.procedure.raw().to_be_bytes());
            buf.extend_from_slice(&a.end_clock.raw().to_be_bytes());
        }
        SysMsg::MarkOutdated(m) => {
            buf.push(TAG_MARK_OUTDATED);
            buf.extend_from_slice(&m.ue.raw().to_be_bytes());
            buf.extend_from_slice(&m.clock.raw().to_be_bytes());
            buf.extend_from_slice(&(m.up_to_date.len() as u16).to_be_bytes());
            for c in &m.up_to_date {
                buf.extend_from_slice(&c.raw().to_be_bytes());
            }
        }
        SysMsg::Replay(r) => {
            buf.push(TAG_REPLAY);
            buf.extend_from_slice(&r.ue.raw().to_be_bytes());
            buf.extend_from_slice(&(r.messages.len() as u32).to_be_bytes());
            for env in &r.messages {
                put_envelope(env, codec.as_ref(), buf)?;
            }
        }
        SysMsg::FetchState { ue, requester } => {
            buf.push(TAG_FETCH_STATE);
            buf.extend_from_slice(&ue.raw().to_be_bytes());
            buf.extend_from_slice(&requester.raw().to_be_bytes());
        }
        SysMsg::FetchStateResp { ue, state } => {
            buf.push(TAG_FETCH_RESP);
            buf.extend_from_slice(&ue.raw().to_be_bytes());
            match state {
                Some(s) => {
                    buf.push(1);
                    put_state(s, buf)?;
                }
                None => buf.push(0),
            }
        }
        SysMsg::S11(r) => {
            buf.push(TAG_S11);
            buf.extend_from_slice(&r.ue.raw().to_be_bytes());
            buf.extend_from_slice(&r.cpf.raw().to_be_bytes());
            buf.push(session_op_code(r.op));
            put_opt_u64(buf, r.session.map(|s| s.raw()));
        }
        SysMsg::S11Resp(r) => {
            buf.push(TAG_S11_RESP);
            buf.extend_from_slice(&r.ue.raw().to_be_bytes());
            buf.push(session_op_code(r.op));
            buf.extend_from_slice(&r.upf.raw().to_be_bytes());
            put_opt_u64(buf, r.session.map(|s| s.raw()));
            buf.push(u8::from(r.ok));
        }
        SysMsg::AskReAttach { ue } => {
            buf.push(TAG_ASK_RE_ATTACH);
            buf.extend_from_slice(&ue.raw().to_be_bytes());
        }
        SysMsg::MigrationAck { ue } => {
            buf.push(TAG_MIGRATION_ACK);
            buf.extend_from_slice(&ue.raw().to_be_bytes());
        }
        SysMsg::RelayReAttach { ue, bs } => {
            buf.push(TAG_RELAY_RE_ATTACH);
            buf.extend_from_slice(&ue.raw().to_be_bytes());
            buf.extend_from_slice(&bs.raw().to_be_bytes());
        }
        SysMsg::CpfFailure { cpf } => {
            buf.push(TAG_CPF_FAILURE);
            buf.extend_from_slice(&cpf.raw().to_be_bytes());
        }
        SysMsg::DownlinkData { ue } => {
            buf.push(TAG_DOWNLINK_DATA);
            buf.extend_from_slice(&ue.raw().to_be_bytes());
        }
        SysMsg::DdnRequest { ue, upf } => {
            buf.push(TAG_DDN);
            buf.extend_from_slice(&ue.raw().to_be_bytes());
            buf.extend_from_slice(&upf.raw().to_be_bytes());
        }
        SysMsg::ResyncRequest { ue, procedure, cta } => {
            buf.push(TAG_RESYNC_REQUEST);
            buf.extend_from_slice(&ue.raw().to_be_bytes());
            buf.extend_from_slice(&procedure.raw().to_be_bytes());
            buf.extend_from_slice(&cta.raw().to_be_bytes());
        }
        SysMsg::ResyncBehind { ue, have, cpf } => {
            buf.push(TAG_RESYNC_BEHIND);
            buf.extend_from_slice(&ue.raw().to_be_bytes());
            buf.extend_from_slice(&have.raw().to_be_bytes());
            buf.extend_from_slice(&cpf.raw().to_be_bytes());
        }
        SysMsg::Reject {
            ue,
            class,
            retry_after_ms,
        } => {
            buf.push(TAG_REJECT);
            buf.extend_from_slice(&ue.raw().to_be_bytes());
            buf.push(class.raw());
            buf.extend_from_slice(&retry_after_ms.to_be_bytes());
        }
    }
    Ok(())
}

fn session_op_code(op: SessionOp) -> u8 {
    match op {
        SessionOp::Create => 0,
        SessionOp::Modify => 1,
        SessionOp::Delete => 2,
    }
}

fn session_op_from(code: u8) -> Result<SessionOp> {
    Ok(match code {
        0 => SessionOp::Create,
        1 => SessionOp::Modify,
        2 => SessionOp::Delete,
        other => return Err(err(format!("bad session op {other}"))),
    })
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            buf.push(1);
            buf.extend_from_slice(&x.to_be_bytes());
        }
        None => buf.push(0),
    }
}

fn get_opt_u64(buf: &mut &[u8]) -> Result<Option<u64>> {
    if buf.is_empty() {
        return Err(err("truncated option"));
    }
    if get_u8(buf) == 1 {
        if buf.len() < 8 {
            return Err(err("truncated option body"));
        }
        Ok(Some(get_u64(buf)))
    } else {
        Ok(None)
    }
}

fn need(buf: &&[u8], n: usize) -> Result<()> {
    if buf.len() < n {
        Err(err("truncated frame"))
    } else {
        Ok(())
    }
}

/// Decodes a frame produced by [`encode_sysmsg`] with the same codec.
pub fn decode_sysmsg(frame: &[u8], codec_kind: CodecKind) -> Result<SysMsg> {
    let codec = codec_kind.instance();
    let mut buf = frame;
    need(&buf, 1)?;
    let tag = get_u8(&mut buf);
    let msg = match tag {
        TAG_CONTROL => SysMsg::Control(get_envelope(&mut buf, codec.as_ref())?),
        TAG_STATE_SYNC => {
            need(&buf, 8 * 5 + 1)?;
            let ue = UeId::new(get_u64(&mut buf));
            let primary = CpfId::new(get_u64(&mut buf));
            let cta = CtaId::new(get_u64(&mut buf));
            let procedure = ProcedureId::new(get_u64(&mut buf));
            let end_clock = ClockTick(get_u64(&mut buf));
            let purpose = match get_u8(&mut buf) {
                0 => SyncPurpose::Checkpoint,
                1 => SyncPurpose::Migration,
                other => return Err(err(format!("bad purpose {other}"))),
            };
            let state = get_state(&mut buf)?;
            SysMsg::StateSync(StateSync {
                ue,
                primary,
                cta,
                state,
                procedure,
                end_clock,
                purpose,
            })
        }
        TAG_SYNC_ACK => {
            need(&buf, 8 * 4)?;
            SysMsg::SyncAck(SyncAck {
                ue: UeId::new(get_u64(&mut buf)),
                replica: CpfId::new(get_u64(&mut buf)),
                procedure: ProcedureId::new(get_u64(&mut buf)),
                end_clock: ClockTick(get_u64(&mut buf)),
            })
        }
        TAG_MARK_OUTDATED => {
            need(&buf, 8 * 2 + 2)?;
            let ue = UeId::new(get_u64(&mut buf));
            let clock = ClockTick(get_u64(&mut buf));
            let n = get_u16(&mut buf) as usize;
            need(&buf, 8 * n)?;
            let up_to_date = (0..n).map(|_| CpfId::new(get_u64(&mut buf))).collect();
            SysMsg::MarkOutdated(MarkOutdated {
                ue,
                clock,
                up_to_date,
            })
        }
        TAG_REPLAY => {
            need(&buf, 8 + 4)?;
            let ue = UeId::new(get_u64(&mut buf));
            let n = get_u32(&mut buf) as usize;
            let mut messages = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                messages.push(get_envelope(&mut buf, codec.as_ref())?);
            }
            SysMsg::Replay(Replay { ue, messages })
        }
        TAG_FETCH_STATE => {
            need(&buf, 16)?;
            SysMsg::FetchState {
                ue: UeId::new(get_u64(&mut buf)),
                requester: CpfId::new(get_u64(&mut buf)),
            }
        }
        TAG_FETCH_RESP => {
            need(&buf, 9)?;
            let ue = UeId::new(get_u64(&mut buf));
            let state = if get_u8(&mut buf) == 1 {
                Some(Box::new(get_state(&mut buf)?))
            } else {
                None
            };
            SysMsg::FetchStateResp { ue, state }
        }
        TAG_S11 => {
            need(&buf, 17)?;
            let ue = UeId::new(get_u64(&mut buf));
            let cpf = CpfId::new(get_u64(&mut buf));
            let op = session_op_from(get_u8(&mut buf))?;
            let session = get_opt_u64(&mut buf)?.map(SessionId::new);
            SysMsg::S11(S11Request {
                ue,
                cpf,
                op,
                session,
            })
        }
        TAG_S11_RESP => {
            need(&buf, 17)?;
            let ue = UeId::new(get_u64(&mut buf));
            let op = session_op_from(get_u8(&mut buf))?;
            let upf = UpfId::new(get_u64(&mut buf));
            let session = get_opt_u64(&mut buf)?.map(SessionId::new);
            need(&buf, 1)?;
            let ok = get_u8(&mut buf) == 1;
            SysMsg::S11Resp(S11Response {
                ue,
                op,
                upf,
                session,
                ok,
            })
        }
        TAG_ASK_RE_ATTACH => {
            need(&buf, 8)?;
            SysMsg::AskReAttach {
                ue: UeId::new(get_u64(&mut buf)),
            }
        }
        TAG_MIGRATION_ACK => {
            need(&buf, 8)?;
            SysMsg::MigrationAck {
                ue: UeId::new(get_u64(&mut buf)),
            }
        }
        TAG_RELAY_RE_ATTACH => {
            need(&buf, 16)?;
            SysMsg::RelayReAttach {
                ue: UeId::new(get_u64(&mut buf)),
                bs: BsId::new(get_u64(&mut buf)),
            }
        }
        TAG_CPF_FAILURE => {
            need(&buf, 8)?;
            SysMsg::CpfFailure {
                cpf: CpfId::new(get_u64(&mut buf)),
            }
        }
        TAG_DOWNLINK_DATA => {
            need(&buf, 8)?;
            SysMsg::DownlinkData {
                ue: UeId::new(get_u64(&mut buf)),
            }
        }
        TAG_DDN => {
            need(&buf, 16)?;
            SysMsg::DdnRequest {
                ue: UeId::new(get_u64(&mut buf)),
                upf: UpfId::new(get_u64(&mut buf)),
            }
        }
        TAG_RESYNC_REQUEST => {
            need(&buf, 24)?;
            SysMsg::ResyncRequest {
                ue: UeId::new(get_u64(&mut buf)),
                procedure: ProcedureId::new(get_u64(&mut buf)),
                cta: CtaId::new(get_u64(&mut buf)),
            }
        }
        TAG_RESYNC_BEHIND => {
            need(&buf, 24)?;
            SysMsg::ResyncBehind {
                ue: UeId::new(get_u64(&mut buf)),
                have: ProcedureId::new(get_u64(&mut buf)),
                cpf: CpfId::new(get_u64(&mut buf)),
            }
        }
        TAG_REJECT => {
            need(&buf, 17)?;
            let ue = UeId::new(get_u64(&mut buf));
            let raw = get_u8(&mut buf);
            let class = AdmissionClass::from_raw(raw)
                .ok_or_else(|| err(format!("bad admission class {raw}")))?;
            SysMsg::Reject {
                ue,
                class,
                retry_after_ms: get_u64(&mut buf),
            }
        }
        other => return Err(err(format!("unknown frame tag {other}"))),
    };
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(msg: &SysMsg, codec: CodecKind) -> Result<Vec<u8>> {
        let mut frame = Vec::new();
        encode_sysmsg(msg, codec, &mut frame)?;
        Ok(frame)
    }

    fn round_trip(msg: SysMsg, codec: CodecKind) {
        let frame = encode(&msg, codec).unwrap();
        let back = decode_sysmsg(&frame, codec).unwrap();
        assert_eq!(back, msg, "codec {codec}");

        // A recycled dirty buffer must produce the identical frame.
        let mut reused = vec![0xFF; 32];
        encode_sysmsg(&msg, codec, &mut reused).unwrap();
        assert_eq!(reused, frame, "recycled buffer must be cleared first");
    }

    fn sample_envelope() -> Envelope {
        let mut e = Envelope::uplink(
            UeId::new(42),
            ProcedureId::new(3),
            ProcedureKind::ServiceRequest,
            MessageKind::ServiceRequest.sample(42),
        )
        .from_bs(BsId::new(7));
        e.via_cta = Some(CtaId::new(1));
        e.clock = ClockTick(99);
        e
    }

    #[test]
    fn control_frames_round_trip_in_both_codecs() {
        for codec in [CodecKind::Asn1Per, CodecKind::FastbufOptimized] {
            round_trip(SysMsg::Control(sample_envelope()), codec);
            round_trip(
                SysMsg::Control(
                    Envelope::downlink(
                        UeId::new(2),
                        ProcedureId::new(1),
                        ProcedureKind::InitialAttach,
                        MessageKind::InitialContextSetupRequest.sample(2),
                    )
                    .ending_procedure(),
                ),
                codec,
            );
        }
    }

    #[test]
    fn replication_frames_round_trip() {
        let state = UeState::sample(11);
        round_trip(
            SysMsg::StateSync(StateSync {
                ue: UeId::new(11),
                primary: CpfId::new(1),
                cta: CtaId::new(0),
                state: state.clone(),
                procedure: ProcedureId::new(5),
                end_clock: ClockTick(77),
                purpose: SyncPurpose::Checkpoint,
            }),
            CodecKind::FastbufOptimized,
        );
        round_trip(
            SysMsg::SyncAck(SyncAck {
                ue: UeId::new(11),
                replica: CpfId::new(9),
                procedure: ProcedureId::new(5),
                end_clock: ClockTick(77),
            }),
            CodecKind::FastbufOptimized,
        );
        round_trip(
            SysMsg::MarkOutdated(MarkOutdated {
                ue: UeId::new(11),
                clock: ClockTick(80),
                up_to_date: vec![CpfId::new(1), CpfId::new(2)],
            }),
            CodecKind::FastbufOptimized,
        );
        round_trip(
            SysMsg::FetchStateResp {
                ue: UeId::new(11),
                state: Some(Box::new(state)),
            },
            CodecKind::FastbufOptimized,
        );
        round_trip(
            SysMsg::FetchStateResp {
                ue: UeId::new(11),
                state: None,
            },
            CodecKind::FastbufOptimized,
        );
    }

    #[test]
    fn replay_frames_round_trip() {
        round_trip(
            SysMsg::Replay(Replay {
                ue: UeId::new(42),
                messages: vec![sample_envelope(), sample_envelope()],
            }),
            CodecKind::Asn1Per,
        );
    }

    #[test]
    fn s11_and_misc_frames_round_trip() {
        for op in [SessionOp::Create, SessionOp::Modify, SessionOp::Delete] {
            round_trip(
                SysMsg::S11(S11Request {
                    ue: UeId::new(1),
                    cpf: CpfId::new(2),
                    op,
                    session: Some(SessionId::new(5)),
                }),
                CodecKind::FastbufOptimized,
            );
            round_trip(
                SysMsg::S11Resp(S11Response {
                    ue: UeId::new(1),
                    op,
                    upf: UpfId::new(3),
                    session: None,
                    ok: op != SessionOp::Modify,
                }),
                CodecKind::FastbufOptimized,
            );
        }
        round_trip(SysMsg::AskReAttach { ue: UeId::new(4) }, CodecKind::Asn1Per);
        round_trip(
            SysMsg::MigrationAck { ue: UeId::new(4) },
            CodecKind::Asn1Per,
        );
        round_trip(
            SysMsg::RelayReAttach {
                ue: UeId::new(4),
                bs: BsId::new(2),
            },
            CodecKind::Asn1Per,
        );
        round_trip(
            SysMsg::CpfFailure { cpf: CpfId::new(3) },
            CodecKind::Asn1Per,
        );
        round_trip(
            SysMsg::ResyncRequest {
                ue: UeId::new(4),
                procedure: ProcedureId::new(7),
                cta: CtaId::new(1),
            },
            CodecKind::Asn1Per,
        );
        round_trip(
            SysMsg::ResyncBehind {
                ue: UeId::new(4),
                have: ProcedureId::new(2),
                cpf: CpfId::new(3),
            },
            CodecKind::Asn1Per,
        );
        for class in AdmissionClass::ALL {
            round_trip(
                SysMsg::Reject {
                    ue: UeId::new(4),
                    class: *class,
                    retry_after_ms: 250,
                },
                CodecKind::Asn1Per,
            );
        }
    }

    #[test]
    fn reject_with_bad_class_errors() {
        let mut frame = encode(
            &SysMsg::Reject {
                ue: UeId::new(4),
                class: AdmissionClass::Attach,
                retry_after_ms: 100,
            },
            CodecKind::FastbufOptimized,
        )
        .unwrap();
        frame[9] = 200;
        assert!(decode_sysmsg(&frame, CodecKind::FastbufOptimized).is_err());
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let frame = encode(
            &SysMsg::Control(sample_envelope()),
            CodecKind::FastbufOptimized,
        )
        .unwrap();
        for cut in 0..frame.len() {
            assert!(
                decode_sysmsg(&frame[..cut], CodecKind::FastbufOptimized).is_err(),
                "cut at {cut} must error"
            );
        }
    }

    #[test]
    fn codec_mismatch_is_detected_or_rejected() {
        let frame = encode(
            &SysMsg::Control(sample_envelope()),
            CodecKind::FastbufOptimized,
        )
        .unwrap();
        // Decoding fastbuf bytes as PER must not panic; it may error or
        // produce a different message, never UB.
        let _ = decode_sysmsg(&frame, CodecKind::Asn1Per);
    }
}
