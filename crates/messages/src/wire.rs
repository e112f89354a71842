//! The `Wire` trait: everything a message type needs to travel through any
//! codec, and `wire_struct!`, which declares a message once and derives
//! its `Wire` impl from that declaration.

use neutrino_codec::value::{FieldType, Schema, Value};
use neutrino_codec::WireFormat;
use neutrino_common::{Error, Result};
use std::sync::Arc;

/// A message (or IE) with a schema, value conversion, and a realistic sample.
pub trait Wire: Sized {
    /// The message's schema (shared, built once).
    fn schema() -> Arc<Schema>;

    /// Converts to the codec value model. The result always validates
    /// against [`Wire::schema`].
    fn to_value(&self) -> Value;

    /// Parses back from a value produced by any codec's decode.
    fn from_value(v: &Value) -> Result<Self>;

    /// A realistic sample instance (field contents modeled on real traces)
    /// for calibration and benchmarks. `seed` varies the contents.
    fn sample(seed: u64) -> Self;

    /// The field type of this message nested inside another.
    fn field_type() -> FieldType {
        FieldType::Struct(Self::schema())
    }

    /// Encodes through a codec.
    fn encode(&self, codec: &dyn WireFormat, out: &mut Vec<u8>) -> Result<()> {
        codec.encode(&Self::schema(), &self.to_value(), out)
    }

    /// Decodes through a codec.
    fn decode(codec: &dyn WireFormat, bytes: &[u8]) -> Result<Self> {
        Self::from_value(&codec.decode(&Self::schema(), bytes)?)
    }
}

// --- declaring messages ---------------------------------------------------

/// Declares a message (or IE) struct together with its [`Wire`] impl.
///
/// Each field is written once, as `pub name: RustType => FieldType,`; the
/// macro derives the schema, `to_value` and `from_value` from that one list,
/// so the three cannot drift apart. Field order is the wire contract: it
/// fixes the bytes of every codec, and through them the baked cost table.
/// `sample` stays hand-written and follows the struct.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident: $ty:ty => $ft:expr,
            )+
        }

        fn sample($seed:ident: u64) -> Self $sample:block
    ) => {
        $(#[$meta])*
        pub struct $name {
            $(
                $(#[$fmeta])*
                pub $field: $ty,
            )+
        }

        impl $crate::wire::Wire for $name {
            fn schema() -> ::std::sync::Arc<::neutrino_codec::value::Schema> {
                static SCHEMA: ::std::sync::OnceLock<
                    ::std::sync::Arc<::neutrino_codec::value::Schema>,
                > = ::std::sync::OnceLock::new();
                SCHEMA
                    .get_or_init(|| {
                        ::std::sync::Arc::new(
                            ::neutrino_codec::value::StructSchema::builder(stringify!($name))
                                $(.field(stringify!($field), $ft))+
                                .build(),
                        )
                    })
                    .clone()
            }

            fn to_value(&self) -> ::neutrino_codec::value::Value {
                ::neutrino_codec::value::Value::Struct(vec![
                    $($crate::wire::Field::to_field(&self.$field),)+
                ])
            }

            fn from_value(
                v: &::neutrino_codec::value::Value,
            ) -> ::neutrino_common::Result<Self> {
                let [$($field),+] = $crate::wire::fields(v, stringify!($name))?;
                Ok($name {
                    $($field: $crate::wire::Field::from_field(
                        $field,
                        stringify!($name),
                        stringify!($field),
                    )?,)+
                })
            }

            fn sample($seed: u64) -> Self $sample
        }
    };
}
pub(crate) use wire_struct;

/// One struct field's conversion between its Rust type and the codec value
/// model. [`wire_struct!`] calls it once per declared field.
pub(crate) trait Field: Sized {
    /// The field's codec value.
    fn to_field(&self) -> Value;

    /// Parses field `field` of message `msg`; errors name both.
    fn from_field(v: &Value, msg: &str, field: &str) -> Result<Self>;
}

/// Error for a malformed field during `from_value`.
pub(crate) fn field_err(msg: &str, field: &str) -> Error {
    Error::schema(format!("{msg}: bad field `{field}`"))
}

/// Extracts struct fields, checking arity (`N` comes from the caller's
/// destructuring pattern).
pub(crate) fn fields<'v, const N: usize>(v: &'v Value, msg: &str) -> Result<&'v [Value; N]> {
    let fs = v
        .as_struct()
        .ok_or_else(|| Error::schema(format!("{msg}: not a struct")))?;
    fs.try_into()
        .map_err(|_| Error::schema(format!("{msg}: expected {N} fields, got {}", fs.len())))
}

/// Scalars and strings, carried as one `Value` variant each.
macro_rules! plain_field {
    ($($t:ty => $variant:ident),+) => {$(
        impl Field for $t {
            fn to_field(&self) -> Value {
                Value::$variant(Clone::clone(self))
            }

            fn from_field(v: &Value, msg: &str, field: &str) -> Result<Self> {
                match v {
                    Value::$variant(x) => Ok(Clone::clone(x)),
                    _ => Err(field_err(msg, field)),
                }
            }
        }
    )+};
}
plain_field!(u64 => U64, bool => Bool, Vec<u8> => Bytes, Vec<bool> => Bits, String => Str);

/// Narrow unsigned integers travel as `U64`, range-checked on the way back.
macro_rules! narrow_uint_field {
    ($($t:ty),+) => {$(
        impl Field for $t {
            fn to_field(&self) -> Value {
                Value::U64(u64::from(*self))
            }

            fn from_field(v: &Value, msg: &str, field: &str) -> Result<Self> {
                <$t>::try_from(u64::from_field(v, msg, field)?).map_err(|_| field_err(msg, field))
            }
        }
    )+};
}
narrow_uint_field!(u8, u16, u32);

impl<T: Field> Field for Option<T> {
    fn to_field(&self) -> Value {
        match self {
            Some(x) => Value::some(x.to_field()),
            None => Value::none(),
        }
    }

    fn from_field(v: &Value, msg: &str, field: &str) -> Result<Self> {
        match v {
            Value::Optional(opt) => opt
                .as_deref()
                .map(|x| T::from_field(x, msg, field))
                .transpose(),
            _ => Err(field_err(msg, field)),
        }
    }
}

/// Lists of nested messages.
impl<T: Wire> Field for Vec<T> {
    fn to_field(&self) -> Value {
        Value::List(self.iter().map(Wire::to_value).collect())
    }

    fn from_field(v: &Value, msg: &str, field: &str) -> Result<Self> {
        match v {
            Value::List(items) => items.iter().map(T::from_value).collect(),
            _ => Err(field_err(msg, field)),
        }
    }
}

/// Nested messages (SEQUENCEs) report their own errors.
impl<T: Wire> Field for T {
    fn to_field(&self) -> Value {
        self.to_value()
    }

    fn from_field(v: &Value, _msg: &str, _field: &str) -> Result<Self> {
        T::from_value(v)
    }
}

/// Shorthand for an optional field type.
pub(crate) fn optional(inner: FieldType) -> FieldType {
    FieldType::Optional(Box::new(inner))
}

/// Shorthand for a bounded list field type.
pub(crate) fn list_of(elem: FieldType, max: u32) -> FieldType {
    FieldType::List {
        elem: Box::new(elem),
        max: Some(max),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Round-trip harness shared by the message modules' tests.
    use super::Wire;
    use neutrino_codec::CodecKind;

    /// Round-trips `msg` through every codec that supports its schema and
    /// asserts losslessness.
    pub(crate) fn round_trip_all_codecs<M: Wire + PartialEq + std::fmt::Debug>(msg: &M) {
        let schema = M::schema();
        schema.validate(&msg.to_value()).expect("sample validates");
        for kind in CodecKind::ALL {
            let codec = kind.instance();
            if !codec.supports(&schema) {
                continue;
            }
            let mut buf = Vec::new();
            msg.encode(codec.as_ref(), &mut buf)
                .unwrap_or_else(|e| panic!("{kind} encode failed: {e}"));
            let back = M::decode(codec.as_ref(), &buf)
                .unwrap_or_else(|e| panic!("{kind} decode failed: {e}"));
            assert_eq!(&back, msg, "round trip through {kind}");
            // traverse must agree with decode on every codec
            let t = codec.traverse(&schema, &buf).unwrap();
            assert_eq!(
                t,
                neutrino_codec::checksum_value(&msg.to_value()),
                "traverse checksum through {kind}"
            );
        }
    }
}
