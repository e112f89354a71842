//! The `from_value` rejection path: a decoded value whose shape does not
//! match the message must be refused, never turned into a message.
//!
//! For every message kind and for `UeState`, the tests take the value of a
//! valid sample and break it one field at a time: once by dropping the
//! field (arity), once by swapping it for a value of the wrong variant.

use neutrino_codec::value::{Schema, Value};
use neutrino_messages::state::UeState;
use neutrino_messages::{MessageKind, Wire};

/// Sample seeds, chosen so optional fields and CHOICEs take both shapes.
const SEEDS: [u64; 4] = [0, 1, 2, 5];

/// Parses a value as one message type, keeping only the error text.
type Parse = Box<dyn Fn(&Value) -> Result<(), String>>;

/// One valid sample value, with what it takes to parse it.
struct Case {
    name: String,
    fields: Vec<String>,
    value: Value,
    parse: Parse,
}

fn field_names(schema: &Schema) -> Vec<String> {
    schema.fields.iter().map(|f| f.name.clone()).collect()
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for &kind in MessageKind::ALL {
        for seed in SEEDS {
            out.push(Case {
                name: kind.name().to_owned(),
                fields: field_names(&kind.schema()),
                value: kind.sample(seed).to_value(),
                parse: Box::new(move |v| kind.from_value(v).map(drop).map_err(|e| e.to_string())),
            });
        }
    }
    for seed in SEEDS {
        out.push(Case {
            name: "UeState".to_owned(),
            fields: field_names(&UeState::schema()),
            value: UeState::sample(seed).to_value(),
            parse: Box::new(|v| UeState::from_value(v).map(drop).map_err(|e| e.to_string())),
        });
    }
    out
}

fn struct_fields(v: &Value) -> &[Value] {
    v.as_struct().expect("messages are structs")
}

/// A value of a different `Value` variant than `v`.
fn wrong_variant(v: &Value) -> Value {
    match v {
        Value::U64(_) => Value::Str("not a number".into()),
        _ => Value::U64(7),
    }
}

fn is_scalar(v: &Value) -> bool {
    matches!(
        v,
        Value::Bool(_) | Value::U64(_) | Value::Bytes(_) | Value::Str(_) | Value::Bits(_)
    )
}

#[test]
fn samples_parse_before_being_broken() {
    for c in cases() {
        if let Err(e) = (c.parse)(&c.value) {
            panic!("{}: valid sample rejected: {e}", c.name);
        }
    }
}

#[test]
fn a_dropped_field_is_rejected() {
    for c in cases() {
        let fs = struct_fields(&c.value);
        for (i, name) in c.fields.iter().enumerate() {
            let mut short = fs.to_vec();
            short.remove(i);
            assert!(
                (c.parse)(&Value::Struct(short)).is_err(),
                "{}: accepted with `{name}` dropped",
                c.name
            );
        }
    }
}

#[test]
fn a_field_of_the_wrong_variant_is_rejected() {
    for c in cases() {
        let fs = struct_fields(&c.value);
        for (i, name) in c.fields.iter().enumerate() {
            let mut bad = fs.to_vec();
            bad[i] = wrong_variant(&fs[i]);
            let err = (c.parse)(&Value::Struct(bad))
                .expect_err(&format!("{}: accepted a bad `{name}`", c.name));
            if is_scalar(&fs[i]) {
                assert!(
                    err.contains(&format!("`{name}`")),
                    "{}: error `{err}` does not name `{name}`",
                    c.name
                );
            }
        }
    }
}
