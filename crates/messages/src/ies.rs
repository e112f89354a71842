//! Common information elements (IEs) shared by NAS and S1AP messages.
//!
//! Field layouts follow TS 36.413 / TS 24.301 closely enough that the
//! serialization benchmarks exercise the same structure the paper measured:
//! nested SEQUENCEs, small constrained integers, octet strings for
//! transport containers, and CHOICEs for UE identities.

use crate::wire::{field_err, optional, wire_struct, Field};
use neutrino_codec::value::{FieldType, Value, Variant};
use neutrino_common::Result;

wire_struct! {
    /// Tracking Area Identity: PLMN (3 octets worth) + 16-bit TAC.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct Tai {
        /// Packed MCC/MNC (3 octets of BCD in real networks; carried as u32).
        pub plmn: u32 => FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// Tracking area code.
        pub tac: u16 => FieldType::UInt { bits: 16 },
    }

    fn sample(seed: u64) -> Self {
        Tai {
            plmn: 0x13_00_14, // mcc 310 / mnc 410 style packing
            tac: (seed % 0xFFFF) as u16,
        }
    }
}

wire_struct! {
    /// E-UTRAN Cell Global Identifier: PLMN + 28-bit cell id.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct Cgi {
        /// Packed MCC/MNC.
        pub plmn: u32 => FieldType::Constrained { lo: 0, hi: 0xFF_FFFF },
        /// 28-bit cell identity (eNB id + cell within eNB).
        pub cell_id: u32 => FieldType::Constrained { lo: 0, hi: 0x0FFF_FFFF },
    }

    fn sample(seed: u64) -> Self {
        Cgi {
            plmn: 0x13_00_14,
            cell_id: (seed.wrapping_mul(2654435761) % 0x0FFF_FFFF) as u32,
        }
    }
}

/// UE identity CHOICE: S-TMSI (the common case) or IMSI digits — the union
/// shape the svtable optimization targets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum UeIdentity {
    /// Temporary identity: MME code + M-TMSI.
    STmsi(u32),
    /// Permanent identity as a decimal digit string.
    Imsi(String),
}

impl UeIdentity {
    /// The CHOICE field type.
    pub fn field_type() -> FieldType {
        FieldType::Choice(vec![
            Variant {
                name: "s_tmsi".into(),
                ty: FieldType::UInt { bits: 32 },
            },
            Variant {
                name: "imsi".into(),
                ty: FieldType::Utf8 { max: Some(15) },
            },
        ])
    }
}

impl Field for UeIdentity {
    fn to_field(&self) -> Value {
        match self {
            UeIdentity::STmsi(t) => Value::choice(0, t.to_field()),
            UeIdentity::Imsi(s) => Value::choice(1, s.to_field()),
        }
    }

    fn from_field(v: &Value, msg: &str, field: &str) -> Result<Self> {
        match v {
            Value::Choice { index: 0, value } => {
                Ok(UeIdentity::STmsi(u32::from_field(value, msg, "s_tmsi")?))
            }
            Value::Choice { index: 1, value } => {
                Ok(UeIdentity::Imsi(String::from_field(value, msg, "imsi")?))
            }
            _ => Err(field_err(msg, field)),
        }
    }
}

wire_struct! {
    /// An E-RAB (bearer) requested for setup.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ErabToSetup {
        /// E-RAB id (0..=15).
        pub erab_id: u8 => FieldType::Constrained { lo: 0, hi: 15 },
        /// QoS class identifier (1..=9).
        pub qci: u8 => FieldType::Constrained { lo: 1, hi: 9 },
        /// Allocation/retention priority (1..=15).
        pub arp: u8 => FieldType::Constrained { lo: 1, hi: 15 },
        /// Transport layer address of the UPF endpoint (4 or 16 octets).
        pub transport_address: Vec<u8> => FieldType::Bytes { max: Some(16) },
        /// GTP tunnel endpoint id on the UPF.
        pub gtp_teid: u32 => FieldType::UInt { bits: 32 },
        /// Piggy-backed NAS PDU, when present.
        pub nas_pdu: Option<Vec<u8>> => optional(FieldType::Bytes { max: None }),
    }

    fn sample(seed: u64) -> Self {
        ErabToSetup {
            erab_id: (seed % 16) as u8,
            qci: 1 + (seed % 9) as u8,
            arp: 1 + (seed % 15) as u8,
            transport_address: vec![10, 0, (seed >> 8) as u8, seed as u8],
            gtp_teid: (seed.wrapping_mul(0x9E3779B9) & 0xFFFF_FFFF) as u32,
            nas_pdu: if seed.is_multiple_of(2) {
                Some(vec![0x27; 46]) // typical piggy-backed activate-default-bearer
            } else {
                None
            },
        }
    }
}

wire_struct! {
    /// An E-RAB successfully set up (response list item).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ErabSetupItem {
        /// E-RAB id.
        pub erab_id: u8 => FieldType::Constrained { lo: 0, hi: 15 },
        /// Transport layer address of the eNB endpoint.
        pub transport_address: Vec<u8> => FieldType::Bytes { max: Some(16) },
        /// GTP tunnel endpoint id on the eNB.
        pub gtp_teid: u32 => FieldType::UInt { bits: 32 },
    }

    fn sample(seed: u64) -> Self {
        ErabSetupItem {
            erab_id: (seed % 16) as u8,
            transport_address: vec![10, 1, (seed >> 8) as u8, seed as u8],
            gtp_teid: (seed.wrapping_mul(0x85EB_CA6B) & 0xFFFF_FFFF) as u32,
        }
    }
}

wire_struct! {
    /// An E-RAB that failed to set up.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ErabFailedItem {
        /// E-RAB id.
        pub erab_id: u8 => FieldType::Constrained { lo: 0, hi: 15 },
        /// Failure cause code.
        pub cause: u8 => FieldType::Enum { variants: 16 },
    }

    fn sample(seed: u64) -> Self {
        ErabFailedItem {
            erab_id: (seed % 16) as u8,
            cause: (seed % 16) as u8,
        }
    }
}

wire_struct! {
    /// UE aggregate maximum bit rate (downlink + uplink, bits/s).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct UeAmbr {
        /// Downlink AMBR.
        pub downlink: u64 => FieldType::UInt { bits: 64 },
        /// Uplink AMBR.
        pub uplink: u64 => FieldType::UInt { bits: 64 },
    }

    fn sample(_seed: u64) -> Self {
        UeAmbr {
            downlink: 1_000_000_000,
            uplink: 500_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::testutil::round_trip_all_codecs;
    use crate::wire::Wire;

    #[test]
    fn tai_round_trips() {
        round_trip_all_codecs(&Tai::sample(7));
    }

    #[test]
    fn cgi_round_trips() {
        round_trip_all_codecs(&Cgi::sample(12345));
    }

    #[test]
    fn erab_to_setup_round_trips_with_and_without_pdu() {
        round_trip_all_codecs(&ErabToSetup::sample(2)); // even seed → pdu present
        round_trip_all_codecs(&ErabToSetup::sample(3)); // odd seed → absent
    }

    #[test]
    fn erab_setup_item_round_trips() {
        round_trip_all_codecs(&ErabSetupItem::sample(99));
    }

    #[test]
    fn erab_failed_item_round_trips() {
        round_trip_all_codecs(&ErabFailedItem::sample(5));
    }

    #[test]
    fn ue_ambr_round_trips() {
        round_trip_all_codecs(&UeAmbr::sample(0));
    }

    #[test]
    fn ue_identity_choice_values() {
        let t = UeIdentity::STmsi(0xDEAD_BEEF);
        let i = UeIdentity::Imsi("310410123456789".into());
        assert_eq!(UeIdentity::from_field(&t.to_field(), "M", "id").unwrap(), t);
        assert_eq!(UeIdentity::from_field(&i.to_field(), "M", "id").unwrap(), i);
    }

    #[test]
    fn sample_values_validate() {
        Tai::schema().validate(&Tai::sample(1).to_value()).unwrap();
        Cgi::schema().validate(&Cgi::sample(1).to_value()).unwrap();
        ErabToSetup::schema()
            .validate(&ErabToSetup::sample(4).to_value())
            .unwrap();
    }
}
