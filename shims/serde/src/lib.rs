//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this repository has no access to a crate
//! registry, so the workspace vendors a minimal serialization framework
//! under the `serde` name instead of the real crate. It keeps the trait
//! surface the workspace actually uses source-compatible:
//!
//! * [`Serialize`] / [`Serializer`] with `collect_seq` (the manual impl in
//!   `bside-syscalls` uses exactly this);
//! * [`Deserialize`] / [`Deserializer`] with [`de::Error::custom`];
//! * a self-describing [`Value`] tree as the data model, which the
//!   `serde_json` shim renders to and parses from JSON.
//!
//! Instead of derive macros (which would require a proc-macro crate and
//! its ecosystem), struct and enum impls are generated by the declarative
//! macros [`impl_serde_struct!`], [`impl_serde_unit_enum!`],
//! [`impl_serde_tagged_enum!`] and [`impl_serde_transparent!`]; hand-written
//! codecs take objects apart with [`object_entries`], [`take_optional`]
//! and [`take_required`].

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};

/// The self-describing data model every (de)serialization goes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer (covers every unsigned field in the workspace).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered map with string keys (insertion order is preserved so
    /// struct fields serialize in declaration order).
    Object(Vec<(String, Value)>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Object(_) => "object",
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(v) => Some(v),
            Value::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(v) => Some(v),
            Value::UInt(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }
}

/// Error types raised while building or taking apart [`Value`]s.
pub mod de {
    use std::fmt;

    /// The error-construction trait deserialization code relies on
    /// (`serde::de::Error::custom`).
    pub trait Error: Sized + fmt::Display + fmt::Debug {
        /// Builds an error from an arbitrary message.
        fn custom<T: fmt::Display>(msg: T) -> Self;
    }

    /// A plain message error; the `D::Error` of [`crate::ValueDeserializer`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct ValueError(pub String);

    impl fmt::Display for ValueError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for ValueError {}

    impl Error for ValueError {
        fn custom<T: fmt::Display>(msg: T) -> Self {
            ValueError(msg.to_string())
        }
    }
}

/// A type that can render itself into the data model.
pub trait Serialize {
    /// Serializes `self` into the given serializer.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A sink for the data model.
pub trait Serializer: Sized {
    /// The success type.
    type Ok;
    /// The error type.
    type Error: de::Error;

    /// Consumes a fully-built [`Value`].
    fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;

    /// Serializes every item of an iterator as a sequence.
    fn collect_seq<I>(self, iter: I) -> Result<Self::Ok, Self::Error>
    where
        I: IntoIterator,
        I::Item: Serialize,
    {
        let mut seq = Vec::new();
        for item in iter {
            seq.push(to_value(&item));
        }
        self.serialize_value(Value::Seq(seq))
    }
}

/// A type that can be rebuilt from the data model.
pub trait Deserialize<'de>: Sized {
    /// Deserializes `Self` from the given deserializer.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A source of [`Value`]s.
pub trait Deserializer<'de>: Sized {
    /// The error type.
    type Error: de::Error;

    /// Surrenders the underlying value tree.
    fn into_value(self) -> Result<Value, Self::Error>;
}

/// The canonical serializer: produces a [`Value`] and never fails.
pub struct ValueSerializer;

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = de::ValueError;

    fn serialize_value(self, value: Value) -> Result<Value, de::ValueError> {
        Ok(value)
    }
}

/// The canonical deserializer: wraps an already-parsed [`Value`].
pub struct ValueDeserializer(pub Value);

impl<'de> Deserializer<'de> for ValueDeserializer {
    type Error = de::ValueError;

    fn into_value(self) -> Result<Value, de::ValueError> {
        Ok(self.0)
    }
}

/// Renders any [`Serialize`] type into a [`Value`].
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value
        .serialize(ValueSerializer)
        .expect("ValueSerializer is infallible")
}

/// Rebuilds any [`Deserialize`] type from a [`Value`].
pub fn from_value<T: for<'de> Deserialize<'de>>(value: Value) -> Result<T, de::ValueError> {
    T::deserialize(ValueDeserializer(value))
}

// ---------------------------------------------------------------------------
// Serialize impls for the primitives and containers the workspace uses.
// ---------------------------------------------------------------------------

macro_rules! impl_ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::UInt(*self as u64))
            }
        }
    )*};
}
impl_ser_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let v = *self as i64;
                let value = if v < 0 { Value::Int(v) } else { Value::UInt(v as u64) };
                serializer.serialize_value(value)
            }
        }
    )*};
}
impl_ser_int!(i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Bool(*self))
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Float(*self))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Str(self.to_string()))
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Str(self.clone()))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => v.serialize(serializer),
            None => serializer.serialize_value(Value::Null),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter())
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter())
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let entries = self.iter().map(|(k, v)| (k.clone(), to_value(v))).collect();
        serializer.serialize_value(Value::Object(entries))
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Seq(vec![to_value(&self.0), to_value(&self.1)]))
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.clone())
    }
}

// Matches real serde's representation: `{"secs": u64, "nanos": u32}`.
impl Serialize for std::time::Duration {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Object(vec![
            ("secs".to_string(), Value::UInt(self.as_secs())),
            ("nanos".to_string(), Value::UInt(self.subsec_nanos() as u64)),
        ]))
    }
}

// ---------------------------------------------------------------------------
// Deserialize impls.
// ---------------------------------------------------------------------------

fn type_err<E: de::Error>(expected: &str, got: &Value) -> E {
    E::custom(format!("expected {expected}, found {}", got.type_name()))
}

macro_rules! impl_de_uint {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let v = deserializer.into_value()?;
                let raw = v.as_u64().ok_or_else(|| type_err::<D::Error>("unsigned integer", &v))?;
                <$t>::try_from(raw)
                    .map_err(|_| de::Error::custom(format!("integer {raw} out of range")))
            }
        }
    )*};
}
impl_de_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_de_int {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let v = deserializer.into_value()?;
                let raw = v.as_i64().ok_or_else(|| type_err::<D::Error>("integer", &v))?;
                <$t>::try_from(raw)
                    .map_err(|_| de::Error::custom(format!("integer {raw} out of range")))
            }
        }
    )*};
}
impl_de_int!(i8, i16, i32, i64, isize);

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.into_value()? {
            Value::Bool(b) => Ok(b),
            other => Err(type_err("bool", &other)),
        }
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.into_value()? {
            Value::Float(f) => Ok(f),
            Value::UInt(v) => Ok(v as f64),
            Value::Int(v) => Ok(v as f64),
            other => Err(type_err("number", &other)),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.into_value()? {
            Value::Str(s) => Ok(s),
            other => Err(type_err("string", &other)),
        }
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Box::new)
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.into_value()? {
            Value::Null => Ok(None),
            other => from_value(other).map(Some).map_err(de::Error::custom),
        }
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.into_value()? {
            Value::Seq(items) => items
                .into_iter()
                .map(|item| from_value(item).map_err(de::Error::custom))
                .collect(),
            other => Err(type_err("sequence", &other)),
        }
    }
}

impl<'de, T: for<'a> Deserialize<'a> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(Vec::<T>::deserialize(deserializer)?.into_iter().collect())
    }
}

impl<'de, V: for<'a> Deserialize<'a>> Deserialize<'de> for BTreeMap<String, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.into_value()? {
            Value::Object(entries) => entries
                .into_iter()
                .map(|(k, v)| Ok((k, from_value(v).map_err(de::Error::custom)?)))
                .collect(),
            other => Err(type_err("object", &other)),
        }
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.into_value()
    }
}

impl<'de> Deserialize<'de> for std::time::Duration {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let v = deserializer.into_value()?;
        let Value::Object(entries) = &v else {
            return Err(type_err("Duration object", &v));
        };
        let field = |name: &str| -> Result<u64, D::Error> {
            entries
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| v.as_u64())
                .ok_or_else(|| de::Error::custom(format!("Duration missing field `{name}`")))
        };
        let secs = field("secs")?;
        // `Duration::new` panics when a >= 1s nanos value carries past
        // u64::MAX secs; reject instead (deserialization must not abort
        // the process on malformed input).
        let nanos = u32::try_from(field("nanos")?)
            .ok()
            .filter(|&n| n < 1_000_000_000)
            .ok_or_else(|| de::Error::custom("Duration nanos out of range"))?;
        Ok(std::time::Duration::new(secs, nanos))
    }
}

impl<'de, A: for<'a> Deserialize<'a>, B: for<'a> Deserialize<'a>> Deserialize<'de> for (A, B) {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.into_value()? {
            Value::Seq(items) if items.len() == 2 => {
                let mut it = items.into_iter();
                let a = from_value(it.next().expect("len 2")).map_err(de::Error::custom)?;
                let b = from_value(it.next().expect("len 2")).map_err(de::Error::custom)?;
                Ok((a, b))
            }
            other => Err(type_err("2-element sequence", &other)),
        }
    }
}

// ---------------------------------------------------------------------------
// Impl-generating macros (the shim's replacement for #[derive(...)]).
// ---------------------------------------------------------------------------

/// The entries of an object [`Value`], in wire order — the field list
/// [`take_optional`] and [`take_required`] consume.
pub fn object_entries(value: Value) -> Result<Vec<(String, Value)>, de::ValueError> {
    match value {
        Value::Object(entries) => Ok(entries),
        other => Err(type_err("object", &other)),
    }
}

/// Removes the first entry named `name` from an object's field list and
/// parses it as `T`: `Ok(None)` when absent, an error naming the field
/// when present but not a `T`.
pub fn take_optional<T: for<'de> Deserialize<'de>>(
    entries: &mut Vec<(String, Value)>,
    name: &str,
) -> Result<Option<T>, de::ValueError> {
    let Some(pos) = entries.iter().position(|(k, _)| k == name) else {
        return Ok(None);
    };
    from_value(entries.remove(pos).1)
        .map(Some)
        .map_err(|e| de::Error::custom(format!("field `{name}`: {e}")))
}

/// [`take_optional`] for a field that must be present.
pub fn take_required<T: for<'de> Deserialize<'de>>(
    entries: &mut Vec<(String, Value)>,
    name: &str,
) -> Result<T, de::ValueError> {
    take_optional(entries, name)?
        .ok_or_else(|| de::Error::custom(format!("missing field `{name}`")))
}

/// Implements `Serialize`/`Deserialize` for a struct with named fields,
/// mapping it to a JSON object keyed by field name (what
/// `#[derive(Serialize, Deserialize)]` produces for such structs).
/// Fields in a trailing `skip { .. }` list are never written and are
/// rebuilt with `Default::default()` on read (serde's `#[serde(skip)]`).
/// Unknown fields are ignored on read.
#[macro_export]
macro_rules! impl_serde_struct {
    ($ty:ident { $($field:ident),+ $(,)? } $(skip { $($skip:ident),+ $(,)? })?) => {
        impl $crate::Serialize for $ty {
            fn serialize<S: $crate::Serializer>(
                &self,
                serializer: S,
            ) -> Result<S::Ok, S::Error> {
                let fields = vec![
                    $( (stringify!($field).to_string(), $crate::to_value(&self.$field)), )+
                ];
                serializer.serialize_value($crate::Value::Object(fields))
            }
        }

        impl<'de> $crate::Deserialize<'de> for $ty {
            fn deserialize<D: $crate::Deserializer<'de>>(
                deserializer: D,
            ) -> Result<Self, D::Error> {
                let parse = |value| -> Result<Self, $crate::de::ValueError> {
                    let mut entries = $crate::object_entries(value)?;
                    Ok($ty {
                        $( $field: $crate::take_required(&mut entries, stringify!($field))?, )+
                        $($( $skip: Default::default(), )+)?
                    })
                };
                parse(deserializer.into_value()?).map_err(|e| {
                    <D::Error as $crate::de::Error>::custom(format!("{}: {e}", stringify!($ty)))
                })
            }
        }
    };
}

/// Implements `Serialize`/`Deserialize` for an internally tagged enum
/// with named-field and unit variants — serde's `#[serde(tag = "..")]`
/// with a `#[serde(rename = "..")]` on every variant. Each variant is one
/// JSON object: the `tag` field holding the variant's wire name first,
/// then its fields in the order listed, each keyed by its name. A field
/// is written in one of four modes:
///
/// * `field` — required, through [`to_value`]/[`from_value`] (so
///   integers are range-checked against the field's type);
/// * `field?` — an `Option<T>` left out when `None`; absent parses as
///   `None`, and a present value must parse as `T` (`null` is an error);
/// * `field = default` — always written; absent parses as `default`, and
///   a present value must parse;
/// * `field with (push, take)` — a custom codec over the object's field
///   list: `push(&mut entries, &value)` appends any number of fields and
///   `take(&mut entries) -> Result<T, de::ValueError>` removes and parses
///   them (flattened, lenient, or re-encoded fields).
///
/// Unknown fields are ignored on read, so a peer may add optional
/// fields without breaking older readers. Errors name the variant and
/// the field.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// enum Msg {
///     Ping,
///     Get { key: String, limit: Option<u64>, fresh: bool },
/// }
/// serde::impl_serde_tagged_enum!(Msg, tag = "type" {
///     Ping = "ping",
///     Get = "get" { key, limit?, fresh = false },
/// });
/// let msg = Msg::Get { key: "k".into(), limit: None, fresh: true };
/// let value = serde::to_value(&msg);
/// assert_eq!(
///     value,
///     serde::Value::Object(vec![
///         ("type".into(), serde::Value::Str("get".into())),
///         ("key".into(), serde::Value::Str("k".into())),
///         ("fresh".into(), serde::Value::Bool(true)),
///     ])
/// );
/// assert_eq!(serde::from_value::<Msg>(value).unwrap(), msg);
/// ```
#[macro_export]
macro_rules! impl_serde_tagged_enum {
    ($ty:ident, tag = $tag:literal {
        $( $variant:ident = $name:literal $({ $($fields:tt)* })? ),+ $(,)?
    }) => {
        impl $crate::Serialize for $ty {
            fn serialize<S: $crate::Serializer>(
                &self,
                serializer: S,
            ) -> Result<S::Ok, S::Error> {
                let mut entries = Vec::new();
                match self {
                    $( $crate::__tagged_fields!(@bind $variant [] $($($fields)*)?) => {
                        entries.push(($tag.to_string(), $crate::Value::Str($name.to_string())));
                        $crate::__tagged_fields!(@push entries $($($fields)*)?);
                    } )+
                }
                serializer.serialize_value($crate::Value::Object(entries))
            }
        }

        impl<'de> $crate::Deserialize<'de> for $ty {
            fn deserialize<D: $crate::Deserializer<'de>>(
                deserializer: D,
            ) -> Result<Self, D::Error> {
                use $crate::de::{Error, ValueError};
                #[allow(clippy::redundant_closure_call)]
                let parse = |value| -> Result<Self, ValueError> {
                    let mut entries = $crate::object_entries(value)?;
                    let tag: String = $crate::take_required(&mut entries, $tag)?;
                    match tag.as_str() {
                        $( $name => (|| -> Result<Self, ValueError> {
                            $crate::__tagged_fields!(@take entries $($($fields)*)?);
                            Ok($crate::__tagged_fields!(@bind $variant [] $($($fields)*)?))
                        })()
                        .map_err(|e| Error::custom(format!("{}: {e}", stringify!($variant)))), )+
                        other => Err(Error::custom(format!("unknown {} `{other}`", $tag))),
                    }
                };
                parse(deserializer.into_value()?)
                    .map_err(|e| D::Error::custom(format!("{}: {e}", stringify!($ty))))
            }
        }
    };
}

/// The per-field half of [`impl_serde_tagged_enum!`]: munches one
/// variant's field list, one field mode at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __tagged_fields {
    // The variant's pattern (serialize) and constructor (deserialize).
    (@bind $variant:ident []) => { Self::$variant };
    (@bind $variant:ident [$($acc:ident)+]) => { Self::$variant { $($acc),+ } };
    (@bind $variant:ident [$($acc:ident)*] $f:ident ? $(, $($rest:tt)*)?) => {
        $crate::__tagged_fields!(@bind $variant [$($acc)* $f] $($($rest)*)?)
    };
    (@bind $variant:ident [$($acc:ident)*] $f:ident = $default:expr $(, $($rest:tt)*)?) => {
        $crate::__tagged_fields!(@bind $variant [$($acc)* $f] $($($rest)*)?)
    };
    (@bind $variant:ident [$($acc:ident)*] $f:ident with ($push:path, $take:path)
        $(, $($rest:tt)*)?) => {
        $crate::__tagged_fields!(@bind $variant [$($acc)* $f] $($($rest)*)?)
    };
    (@bind $variant:ident [$($acc:ident)*] $f:ident $(, $($rest:tt)*)?) => {
        $crate::__tagged_fields!(@bind $variant [$($acc)* $f] $($($rest)*)?)
    };

    // Serialize: append each bound field to `$out`.
    (@push $out:ident) => {};
    (@push $out:ident $f:ident ? $(, $($rest:tt)*)?) => {
        if let Some(value) = $f {
            $out.push((stringify!($f).to_string(), $crate::to_value(value)));
        }
        $crate::__tagged_fields!(@push $out $($($rest)*)?);
    };
    (@push $out:ident $f:ident = $default:expr $(, $($rest:tt)*)?) => {
        $crate::__tagged_fields!(@push $out $f $(, $($rest)*)?);
    };
    (@push $out:ident $f:ident with ($push:path, $take:path) $(, $($rest:tt)*)?) => {
        $push(&mut $out, $f);
        $crate::__tagged_fields!(@push $out $($($rest)*)?);
    };
    (@push $out:ident $f:ident $(, $($rest:tt)*)?) => {
        $out.push((stringify!($f).to_string(), $crate::to_value($f)));
        $crate::__tagged_fields!(@push $out $($($rest)*)?);
    };

    // Deserialize: bind each field, taken out of `$in`.
    (@take $in:ident) => {};
    (@take $in:ident $f:ident ? $(, $($rest:tt)*)?) => {
        let $f = $crate::take_optional(&mut $in, stringify!($f))?;
        $crate::__tagged_fields!(@take $in $($($rest)*)?);
    };
    (@take $in:ident $f:ident = $default:expr $(, $($rest:tt)*)?) => {
        let $f = $crate::take_optional(&mut $in, stringify!($f))?.unwrap_or($default);
        $crate::__tagged_fields!(@take $in $($($rest)*)?);
    };
    (@take $in:ident $f:ident with ($push:path, $take:path) $(, $($rest:tt)*)?) => {
        let $f = $take(&mut $in)?;
        $crate::__tagged_fields!(@take $in $($($rest)*)?);
    };
    (@take $in:ident $f:ident $(, $($rest:tt)*)?) => {
        let $f = $crate::take_required(&mut $in, stringify!($f))?;
        $crate::__tagged_fields!(@take $in $($($rest)*)?);
    };
}

/// Implements `Serialize`/`Deserialize` for a field-less enum, mapping
/// each variant to its name as a JSON string (serde's external tagging for
/// unit variants).
#[macro_export]
macro_rules! impl_serde_unit_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::Serialize for $ty {
            fn serialize<S: $crate::Serializer>(
                &self,
                serializer: S,
            ) -> Result<S::Ok, S::Error> {
                let name = match self {
                    $( $ty::$variant => stringify!($variant), )+
                };
                serializer.serialize_value($crate::Value::Str(name.to_string()))
            }
        }

        impl<'de> $crate::Deserialize<'de> for $ty {
            fn deserialize<D: $crate::Deserializer<'de>>(
                deserializer: D,
            ) -> Result<Self, D::Error> {
                let value = deserializer.into_value()?;
                let name = match &value {
                    $crate::Value::Str(s) => s.as_str(),
                    other => {
                        return Err(<D::Error as $crate::de::Error>::custom(format!(
                            "expected string variant of {}, found {:?}",
                            stringify!($ty),
                            other
                        )))
                    }
                };
                match name {
                    $( stringify!($variant) => Ok($ty::$variant), )+
                    other => Err(<D::Error as $crate::de::Error>::custom(format!(
                        "unknown {} variant `{}`",
                        stringify!($ty),
                        other
                    ))),
                }
            }
        }
    };
}

/// Implements `Serialize`/`Deserialize` for a single-field tuple struct as
/// its inner value (serde's `#[serde(transparent)]`), with an optional
/// fallible constructor for validated newtypes.
#[macro_export]
macro_rules! impl_serde_transparent {
    ($ty:ident($inner:ty)) => {
        impl $crate::Serialize for $ty {
            fn serialize<S: $crate::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                self.0.serialize(serializer)
            }
        }

        impl<'de> $crate::Deserialize<'de> for $ty {
            fn deserialize<D: $crate::Deserializer<'de>>(
                deserializer: D,
            ) -> Result<Self, D::Error> {
                Ok($ty(<$inner as $crate::Deserialize>::deserialize(
                    deserializer,
                )?))
            }
        }
    };
    ($ty:ident($inner:ty), validate = $ctor:expr) => {
        impl $crate::Serialize for $ty {
            fn serialize<S: $crate::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                self.0.serialize(serializer)
            }
        }

        impl<'de> $crate::Deserialize<'de> for $ty {
            fn deserialize<D: $crate::Deserializer<'de>>(
                deserializer: D,
            ) -> Result<Self, D::Error> {
                let raw = <$inner as $crate::Deserialize>::deserialize(deserializer)?;
                #[allow(clippy::redundant_closure_call)]
                ($ctor)(raw).ok_or_else(|| {
                    <D::Error as $crate::de::Error>::custom(format!(
                        "invalid {} value {:?}",
                        stringify!($ty),
                        raw
                    ))
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Demo {
        name: String,
        count: u32,
        flag: bool,
    }
    impl_serde_struct!(Demo { name, count, flag });

    #[derive(Debug, PartialEq)]
    enum Kind {
        Alpha,
        Beta,
    }
    impl_serde_unit_enum!(Kind { Alpha, Beta });

    #[derive(Debug, PartialEq)]
    enum Msg {
        Ping,
        Get {
            key: String,
            limit: Option<u32>,
            fresh: bool,
            span: (u64, u64),
        },
    }
    impl_serde_tagged_enum!(Msg, tag = "type" {
        Ping = "ping",
        Get = "get" { key, limit?, fresh = true, span with (push_span, take_span) },
    });

    /// A custom codec: the pair travels flattened as two fields, and an
    /// absent or malformed pair reads as `(0, 0)`.
    fn push_span(entries: &mut Vec<(String, Value)>, span: &(u64, u64)) {
        entries.push(("lo".into(), Value::UInt(span.0)));
        entries.push(("hi".into(), Value::UInt(span.1)));
    }

    fn take_span(entries: &mut Vec<(String, Value)>) -> Result<(u64, u64), de::ValueError> {
        let lo = take_optional(entries, "lo").unwrap_or(None);
        let hi = take_optional(entries, "hi").unwrap_or(None);
        Ok((lo.unwrap_or(0), hi.unwrap_or(0)))
    }

    fn obj(fields: &[(&str, Value)]) -> Value {
        Value::Object(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    fn get(fields: &[(&str, Value)]) -> Result<Msg, de::ValueError> {
        let mut all = vec![("type", Value::Str("get".into()))];
        all.extend_from_slice(fields);
        from_value(obj(&all))
    }

    fn key() -> (&'static str, Value) {
        ("key", Value::Str("k".into()))
    }

    #[test]
    fn tagged_enum_writes_the_tag_then_fields_in_listed_order() {
        let msg = Msg::Get {
            key: "k".into(),
            limit: Some(3),
            fresh: false,
            span: (1, 2),
        };
        let value = to_value(&msg);
        assert_eq!(
            value,
            obj(&[
                ("type", Value::Str("get".into())),
                key(),
                ("limit", Value::UInt(3)),
                ("fresh", Value::Bool(false)),
                ("lo", Value::UInt(1)),
                ("hi", Value::UInt(2)),
            ])
        );
        assert_eq!(from_value::<Msg>(value).unwrap(), msg);
        assert_eq!(
            to_value(&Msg::Ping),
            obj(&[("type", Value::Str("ping".into()))])
        );
        assert_eq!(from_value::<Msg>(to_value(&Msg::Ping)).unwrap(), Msg::Ping);
    }

    #[test]
    fn tagged_enum_missing_required_field_names_variant_and_field() {
        let err = get(&[]).unwrap_err().to_string();
        assert!(err.contains("Msg") && err.contains("Get"), "{err}");
        assert!(err.contains("missing field `key`"), "{err}");
    }

    #[test]
    fn tagged_enum_required_integers_are_range_checked() {
        let err = get(&[key(), ("limit", Value::UInt(u32::MAX as u64 + 2))]).unwrap_err();
        assert!(err.to_string().contains("`limit`"), "{err}");
    }

    #[test]
    fn tagged_enum_optional_field_contract() {
        // Absent parses as None, and None is left out on write.
        let msg = get(&[key()]).unwrap();
        assert!(matches!(msg, Msg::Get { limit: None, .. }));
        let Value::Object(fields) = to_value(&msg) else {
            panic!("an object");
        };
        assert!(fields.iter().all(|(k, _)| k != "limit"), "{fields:?}");
        // Present must parse as the inner type: `null` is not absent.
        assert!(get(&[key(), ("limit", Value::Null)]).is_err());
        assert!(get(&[key(), ("limit", Value::Str("5".into()))]).is_err());
    }

    #[test]
    fn tagged_enum_default_field_contract() {
        assert!(matches!(
            get(&[key()]).unwrap(),
            Msg::Get { fresh: true, .. }
        ));
        assert!(matches!(
            get(&[key(), ("fresh", Value::Bool(false))]).unwrap(),
            Msg::Get { fresh: false, .. }
        ));
        let err = get(&[key(), ("fresh", Value::UInt(0))]).unwrap_err();
        assert!(err.to_string().contains("`fresh`"), "{err}");
    }

    #[test]
    fn tagged_enum_rejects_bad_tags_and_non_objects() {
        let err = from_value::<Msg>(obj(&[("type", Value::Str("pong".into()))])).unwrap_err();
        assert!(err.to_string().contains("`pong`"), "{err}");
        assert!(from_value::<Msg>(obj(&[("type", Value::UInt(1))])).is_err());
        assert!(from_value::<Msg>(obj(&[])).is_err(), "missing tag");
        assert!(from_value::<Msg>(Value::Str("ping".into())).is_err());
        assert!(from_value::<Msg>(Value::Seq(Vec::new())).is_err());
    }

    #[test]
    fn tagged_enum_ignores_unknown_fields() {
        let msg = get(&[("v9", Value::Bool(true)), key(), ("lo", Value::UInt(4))]).unwrap();
        assert_eq!(
            msg,
            Msg::Get {
                key: "k".into(),
                limit: None,
                fresh: true,
                span: (4, 0),
            }
        );
        let ping = obj(&[("type", Value::Str("ping".into())), ("x", Value::Null)]);
        assert_eq!(from_value::<Msg>(ping).unwrap(), Msg::Ping);
    }

    #[derive(Debug, PartialEq, Default)]
    struct WithCache {
        name: String,
        cache: Vec<u8>,
    }
    impl_serde_struct!(WithCache { name } skip { cache });

    #[test]
    fn skipped_struct_fields_are_not_written_and_read_as_default() {
        let value = to_value(&WithCache {
            name: "x".into(),
            cache: vec![1, 2],
        });
        assert_eq!(value, obj(&[("name", Value::Str("x".into()))]));
        assert_eq!(
            from_value::<WithCache>(value).unwrap(),
            WithCache {
                name: "x".into(),
                cache: Vec::new(),
            }
        );
    }

    #[test]
    fn struct_round_trip() {
        let d = Demo {
            name: "x".into(),
            count: 3,
            flag: true,
        };
        let v = to_value(&d);
        let back: Demo = from_value(v).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn enum_round_trip() {
        let v = to_value(&Kind::Beta);
        assert_eq!(v, Value::Str("Beta".into()));
        assert_eq!(from_value::<Kind>(v).unwrap(), Kind::Beta);
    }

    #[test]
    fn missing_field_is_an_error() {
        let v = Value::Object(vec![("name".into(), Value::Str("x".into()))]);
        assert!(from_value::<Demo>(v).is_err());
    }

    #[test]
    fn duration_round_trip_matches_serde_convention() {
        let d = std::time::Duration::new(7, 123_456_789);
        let v = to_value(&d);
        assert_eq!(
            v,
            Value::Object(vec![
                ("secs".into(), Value::UInt(7)),
                ("nanos".into(), Value::UInt(123_456_789)),
            ])
        );
        assert_eq!(from_value::<std::time::Duration>(v).unwrap(), d);
    }

    #[test]
    fn malformed_duration_is_an_error_not_a_panic() {
        // nanos >= 1e9 would make Duration::new carry (and panic at
        // u64::MAX secs); it must surface as a deserialization error.
        let v = Value::Object(vec![
            ("secs".into(), Value::UInt(u64::MAX)),
            ("nanos".into(), Value::UInt(1_999_999_999)),
        ]);
        assert!(from_value::<std::time::Duration>(v).is_err());
        let v = Value::Object(vec![("secs".into(), Value::UInt(1))]);
        assert!(
            from_value::<std::time::Duration>(v).is_err(),
            "missing nanos"
        );
    }

    #[test]
    fn containers_round_trip() {
        let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        map.insert("a".into(), vec![1, 2]);
        let v = to_value(&map);
        let back: BTreeMap<String, Vec<u64>> = from_value(v).unwrap();
        assert_eq!(map, back);
    }
}
