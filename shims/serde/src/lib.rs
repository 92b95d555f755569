//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this repository has no access to a crate
//! registry, so the workspace vendors a minimal serialization framework
//! under the `serde` name instead of the real crate. Like real serde, its
//! data model is a stream of events, not a tree:
//!
//! * a [`Serializer`] receives scalars, and sequences and maps entry by
//!   entry through [`ser::SerializeSeq`] and [`ser::SerializeMap`], so a
//!   format writes text straight from a type;
//! * a [`Deserializer`] hands each value to a [`de::Visitor`] by its JSON
//!   type, and sequences and maps through [`de::SeqAccess`] and
//!   [`de::MapAccess`], so a type pulls its fields straight out of the
//!   text.
//!
//! [`Value`] is one more type in that model, with one [`Serialize`] and
//! one [`Deserialize`] impl, plus [`ValueSerializer`] and
//! [`ValueDeserializer`] behind [`to_value`] and [`from_value`]. A tree is
//! built only when a caller asks for a `Value`, or when a tagged object
//! does not start with its tag (see [`impl_serde_tagged_enum!`]).
//!
//! Instead of derive macros (which would require a proc-macro crate and
//! its ecosystem), struct and enum impls are generated by the declarative
//! macros [`impl_serde_struct!`], [`impl_serde_unit_enum!`],
//! [`impl_serde_tagged_enum!`] and [`impl_serde_transparent!`]; a field
//! with a wire form of its own implements [`de::FieldCodec`].

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};

use de::{MapAccess, SeqAccess, Visitor};
use ser::{SerializeMap, SerializeSeq};

/// A self-describing JSON value, for callers that want a tree.
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
    /// The JSON type this value has, as "expected X, found Y" errors name
    /// it.
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
}

/// The serializing half of the data model.
pub mod ser {
    use crate::Serialize;

    /// The elements of a sequence, one at a time.
    pub trait SerializeSeq {
        /// The serializer's success type.
        type Ok;
        /// The serializer's error type.
        type Error: crate::de::Error;
        /// Serializes one element.
        fn serialize_element<T: Serialize + ?Sized>(
            &mut self,
            value: &T,
        ) -> Result<(), Self::Error>;
        /// Closes the sequence.
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    /// The entries of a map, one at a time. Keys are strings, the only
    /// keys JSON has.
    pub trait SerializeMap {
        /// The serializer's success type.
        type Ok;
        /// The serializer's error type.
        type Error: crate::de::Error;
        /// Serializes one entry.
        fn serialize_entry<T: Serialize + ?Sized>(
            &mut self,
            key: &str,
            value: &T,
        ) -> Result<(), Self::Error>;
        /// Closes the map.
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }
}

/// The deserializing half of the data model, and the error trait both
/// halves share.
pub mod de {
    use crate::{Deserialize, Deserializer, Value, ValueDeserializer};
    use std::fmt;

    /// The error-construction trait (de)serialization code relies on
    /// (`serde::de::Error::custom`).
    pub trait Error: Sized + fmt::Display + fmt::Debug {
        /// Builds an error from an arbitrary message.
        fn custom<T: fmt::Display>(msg: T) -> Self;
    }

    /// A plain message error; the `Error` of [`crate::ValueSerializer`]
    /// and [`crate::ValueDeserializer`].
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

    fn unexpected<E: Error>(expecting: &str, found: &str) -> E {
        E::custom(format!("expected {expecting}, found {found}"))
    }

    /// Receives one value from a [`Deserializer`], by its JSON type.
    ///
    /// Every scalar `visit_*` a visitor does not override passes the
    /// scalar as a [`Value`] to [`Visitor::visit_value`], which by default
    /// fails with "expected X, found Y"; a sequence or map it does not
    /// override fails the same way without reading its contents.
    pub trait Visitor<'de>: Sized {
        /// What the visitor builds.
        type Value;

        /// What the visitor accepts: the X of "expected X, found Y".
        fn expecting(&self) -> &str;

        /// A scalar the visitor has no `visit_*` of its own for.
        fn visit_value<E: Error>(self, found: Value) -> Result<Self::Value, E> {
            Err(unexpected(self.expecting(), found.type_name()))
        }

        /// `null`.
        fn visit_null<E: Error>(self) -> Result<Self::Value, E> {
            self.visit_value(Value::Null)
        }

        /// A boolean.
        fn visit_bool<E: Error>(self, v: bool) -> Result<Self::Value, E> {
            self.visit_value(Value::Bool(v))
        }

        /// A non-negative integer.
        fn visit_u64<E: Error>(self, v: u64) -> Result<Self::Value, E> {
            self.visit_value(Value::UInt(v))
        }

        /// A negative integer (or `-0`).
        fn visit_i64<E: Error>(self, v: i64) -> Result<Self::Value, E> {
            self.visit_value(Value::Int(v))
        }

        /// A number with a fraction or an exponent.
        fn visit_f64<E: Error>(self, v: f64) -> Result<Self::Value, E> {
            self.visit_value(Value::Float(v))
        }

        /// A string the deserializer only lends.
        fn visit_str<E: Error>(self, v: &str) -> Result<Self::Value, E> {
            self.visit_value(Value::Str(v.to_owned()))
        }

        /// A string the deserializer hands over.
        fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
            self.visit_str(&v)
        }

        /// A sequence, element by element. The deserializer skips any
        /// elements the visitor leaves unread.
        fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error> {
            let _ = seq;
            Err(unexpected(self.expecting(), "sequence"))
        }

        /// A map, entry by entry. The deserializer skips any entries the
        /// visitor leaves unread.
        fn visit_map<A: MapAccess<'de>>(self, map: A) -> Result<Self::Value, A::Error> {
            let _ = map;
            Err(unexpected(self.expecting(), "object"))
        }

        /// Anything but `null`, from [`Deserializer::deserialize_option`].
        fn visit_some<D: Deserializer<'de>>(
            self,
            deserializer: D,
        ) -> Result<Self::Value, D::Error> {
            deserializer.deserialize_any(self)
        }
    }

    /// The elements of a sequence being deserialized.
    pub trait SeqAccess<'de> {
        /// The deserializer's error type.
        type Error: Error;
        /// The next element, or `None` past the last one.
        fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error>;
    }

    /// The entries of a map being deserialized: each key, then its value.
    pub trait MapAccess<'de> {
        /// The deserializer's error type.
        type Error: Error;
        /// Reads the next key and returns what `classify` makes of it
        /// (the key is only lent), or `None` past the last entry. A value
        /// left unread is skipped first.
        fn next_key_with<R>(
            &mut self,
            classify: impl FnOnce(&str) -> R,
        ) -> Result<Option<R>, Self::Error>;
        /// The value of the key just read.
        fn next_value<T: Deserialize<'de>>(&mut self) -> Result<T, Self::Error>;
        /// The value of the key just read, through `visitor`.
        fn next_value_with<V: Visitor<'de>>(&mut self, visitor: V)
            -> Result<V::Value, Self::Error>;
        /// Skips the value of the key just read.
        fn skip_value(&mut self) -> Result<(), Self::Error> {
            self.next_value::<IgnoredAny>().map(drop)
        }
    }

    /// Any value, read and dropped. A deserializer still checks what it
    /// skips: text must be well-formed and within the nesting cap.
    #[derive(Debug, Clone, Copy)]
    pub struct IgnoredAny;

    impl<'de> Visitor<'de> for IgnoredAny {
        type Value = IgnoredAny;

        fn expecting(&self) -> &str {
            "anything"
        }

        fn visit_value<E: Error>(self, _: Value) -> Result<IgnoredAny, E> {
            Ok(IgnoredAny)
        }

        fn visit_str<E: Error>(self, _: &str) -> Result<IgnoredAny, E> {
            Ok(IgnoredAny)
        }

        fn visit_seq<A: SeqAccess<'de>>(self, _: A) -> Result<IgnoredAny, A::Error> {
            Ok(IgnoredAny)
        }

        fn visit_map<A: MapAccess<'de>>(self, _: A) -> Result<IgnoredAny, A::Error> {
            Ok(IgnoredAny)
        }
    }

    impl<'de> Deserialize<'de> for IgnoredAny {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
            deserializer.deserialize_any(IgnoredAny)
        }
    }

    /// Builds the [`Value`] of any input.
    struct ValueVisitor;

    impl<'de> Visitor<'de> for ValueVisitor {
        type Value = Value;

        fn expecting(&self) -> &str {
            "any value"
        }

        fn visit_value<E: Error>(self, found: Value) -> Result<Value, E> {
            Ok(found)
        }

        fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Value, A::Error> {
            let mut items = Vec::new();
            while let Some(item) = seq.next_element()? {
                items.push(item);
            }
            Ok(Value::Seq(items))
        }

        fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Value, A::Error> {
            let mut entries = Vec::new();
            while let Some(key) = map.next_key_with(str::to_owned)? {
                entries.push((key, map.next_value()?));
            }
            Ok(Value::Object(entries))
        }
    }

    impl<'de> Deserialize<'de> for Value {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
            deserializer.deserialize_any(ValueVisitor)
        }
    }

    /// The rest of a sequence as a tree, for error messages that show
    /// the input.
    pub fn seq_to_value<'de, A: SeqAccess<'de>>(seq: A) -> Result<Value, A::Error> {
        ValueVisitor.visit_seq(seq)
    }

    /// The rest of a map as a tree, for error messages that show the
    /// input.
    pub fn map_to_value<'de, A: MapAccess<'de>>(map: A) -> Result<Value, A::Error> {
        ValueVisitor.visit_map(map)
    }

    /// A [`SeqAccess`] over the items of a [`Value::Seq`].
    pub(crate) struct ValueSeqAccess(std::vec::IntoIter<Value>);

    impl ValueSeqAccess {
        /// Hands out `items` in order.
        pub(crate) fn new(items: Vec<Value>) -> Self {
            ValueSeqAccess(items.into_iter())
        }
    }

    impl<'de> SeqAccess<'de> for ValueSeqAccess {
        type Error = ValueError;

        fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, ValueError> {
            self.0
                .next()
                .map(|item| T::deserialize(ValueDeserializer(item)))
                .transpose()
        }
    }

    /// A [`MapAccess`] over the entries of a [`Value::Object`].
    pub struct ValueMapAccess {
        entries: std::vec::IntoIter<(String, Value)>,
        value: Option<Value>,
    }

    impl ValueMapAccess {
        /// Hands out `entries` in order.
        pub fn new(entries: Vec<(String, Value)>) -> Self {
            ValueMapAccess {
                entries: entries.into_iter(),
                value: None,
            }
        }

        fn value(&mut self) -> Result<ValueDeserializer, ValueError> {
            self.value
                .take()
                .map(ValueDeserializer)
                .ok_or_else(|| ValueError::custom("a map value read before its key"))
        }
    }

    impl<'de> MapAccess<'de> for ValueMapAccess {
        type Error = ValueError;

        fn next_key_with<R>(
            &mut self,
            classify: impl FnOnce(&str) -> R,
        ) -> Result<Option<R>, ValueError> {
            Ok(self.entries.next().map(|(key, value)| {
                self.value = Some(value);
                classify(&key)
            }))
        }

        fn next_value<T: Deserialize<'de>>(&mut self) -> Result<T, ValueError> {
            T::deserialize(self.value()?)
        }

        fn next_value_with<V: Visitor<'de>>(&mut self, visitor: V) -> Result<V::Value, ValueError> {
            self.value()?.deserialize_any(visitor)
        }
    }

    /// One field of an object being read: not seen yet, read, or failed.
    /// A failed field keeps its error until the object is complete, so
    /// that of several bad fields the first in declaration order is the
    /// one reported, whatever order the input lists them in. Only the
    /// first occurrence of a key is read; later ones are skipped.
    pub enum Slot<T, E> {
        /// No entry for the field yet.
        Absent,
        /// The field's value.
        Present(T),
        /// The field's entry did not parse.
        Failed(E),
    }

    impl<T, E: Error> Slot<T, E> {
        /// Reads the value of the field's key, just read from `map`.
        pub fn read<'de, A>(&mut self, map: &mut A) -> Result<(), E>
        where
            A: MapAccess<'de, Error = E>,
            T: Deserialize<'de>,
        {
            if !matches!(self, Slot::Absent) {
                return map.skip_value();
            }
            *self = match map.next_value() {
                Ok(value) => Slot::Present(value),
                Err(e) => Slot::Failed(e),
            };
            Ok(())
        }

        /// The field's value, `None` when absent; an error naming the
        /// field when its entry did not parse.
        pub fn optional(self, name: &str) -> Result<Option<T>, E> {
            match self {
                Slot::Absent => Ok(None),
                Slot::Present(value) => Ok(Some(value)),
                Slot::Failed(e) => Err(E::custom(format!("field `{name}`: {e}"))),
            }
        }

        /// [`Slot::optional`] for a field that must be present.
        pub fn required(self, name: &str) -> Result<T, E> {
            self.optional(name)?
                .ok_or_else(|| E::custom(format!("missing field `{name}`")))
        }
    }

    /// A field of [`impl_serde_tagged_enum!`](crate::impl_serde_tagged_enum)
    /// with a wire form of its own: any number of entries of the
    /// enclosing object (flattened, lenient, or re-encoded fields). The
    /// codec value collects the entries it claims while the object is
    /// read, then builds the field.
    pub trait FieldCodec: Default {
        /// The field's type.
        type Value;
        /// Which of the codec's keys `key` is, if any.
        fn key_index(key: &str) -> Option<u8>;
        /// Writes the field's entries.
        fn write<M: crate::ser::SerializeMap>(
            value: &Self::Value,
            map: &mut M,
        ) -> Result<(), M::Error>;
        /// Reads the value of the codec's `key`-th key, just read from
        /// `map`. It must read or skip that value, and should leave a bad
        /// value for [`FieldCodec::finish`] to report: the first error in
        /// declaration order wins.
        fn read<'de, A: MapAccess<'de>>(&mut self, key: u8, map: &mut A) -> Result<(), A::Error>;
        /// The field, once the object is read.
        fn finish<E: Error>(self) -> Result<Self::Value, E>;
    }

    /// Reads a tag's string as one of `names`: the matching name, or the
    /// string itself when it matches none.
    pub struct TagVisitor(pub &'static [&'static str]);

    impl<'de> Visitor<'de> for TagVisitor {
        type Value = Result<&'static str, String>;

        fn expecting(&self) -> &str {
            "string"
        }

        fn visit_str<E: Error>(self, v: &str) -> Result<Self::Value, E> {
            Ok(self
                .0
                .iter()
                .find(|name| **name == v)
                .copied()
                .ok_or_else(|| v.to_owned()))
        }
    }

    /// The slow path of a tagged object whose first key, `first`, is not
    /// its `tag`: the rest of the object as a tree, with the first `tag`
    /// entry moved to the front so the tag-first code can run over it.
    pub fn buffer_tagged<'de, A: MapAccess<'de>>(
        map: &mut A,
        first: String,
        tag: &str,
    ) -> Result<Vec<(String, Value)>, A::Error> {
        let mut entries = vec![(first, map.next_value::<Value>()?)];
        while let Some(key) = map.next_key_with(str::to_owned)? {
            entries.push((key, map.next_value()?));
        }
        let Some(pos) = entries.iter().position(|(k, _)| k == tag) else {
            return Err(A::Error::custom(format!("missing field `{tag}`")));
        };
        let entry = entries.remove(pos);
        entries.insert(0, entry);
        Ok(entries)
    }
}

/// A type that can write itself to a [`Serializer`].
pub trait Serialize {
    /// Serializes `self` into the given serializer.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A sink for the data model's events.
pub trait Serializer: Sized {
    /// The success type.
    type Ok;
    /// The error type.
    type Error: de::Error;
    /// What [`Serializer::serialize_seq`] returns.
    type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    /// What [`Serializer::serialize_map`] returns.
    type SerializeMap: SerializeMap<Ok = Self::Ok, Error = Self::Error>;

    /// `null`.
    fn serialize_null(self) -> Result<Self::Ok, Self::Error>;
    /// A boolean.
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    /// An unsigned integer.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    /// A signed integer.
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    /// A floating-point number.
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    /// A string.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    /// Opens a sequence; `len` is a hint.
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
    /// Opens a map; `len` is a hint.
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;

    /// Serializes every item of an iterator as a sequence.
    fn collect_seq<I>(self, iter: I) -> Result<Self::Ok, Self::Error>
    where
        I: IntoIterator,
        I::Item: Serialize,
    {
        let mut seq = self.serialize_seq(None)?;
        for item in iter {
            seq.serialize_element(&item)?;
        }
        seq.end()
    }
}

/// A type that can be read from a [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    /// Deserializes `Self` from the given deserializer.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A source of the data model's events.
///
/// On success and on a type error alike, a deserializer has consumed the
/// whole value when it returns, so the caller can read on: a struct can
/// report its fields' errors in declaration order, and a format can still
/// find a syntax error later in its input.
pub trait Deserializer<'de>: Sized {
    /// The error type.
    type Error: de::Error;

    /// Hands the next value to `visitor` by its type.
    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;

    /// [`Visitor::visit_null`] for `null`, [`Visitor::visit_some`] with
    /// the deserializer for anything else.
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
}

/// The serializer behind [`to_value`]: builds a [`Value`] and never fails.
pub struct ValueSerializer;

/// The sequence and map builders of [`ValueSerializer`].
pub struct ValueBuilder<T>(Vec<T>);

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = de::ValueError;
    type SerializeSeq = ValueBuilder<Value>;
    type SerializeMap = ValueBuilder<(String, Value)>;

    fn serialize_null(self) -> Result<Value, de::ValueError> {
        Ok(Value::Null)
    }

    fn serialize_bool(self, v: bool) -> Result<Value, de::ValueError> {
        Ok(Value::Bool(v))
    }

    fn serialize_u64(self, v: u64) -> Result<Value, de::ValueError> {
        Ok(Value::UInt(v))
    }

    fn serialize_i64(self, v: i64) -> Result<Value, de::ValueError> {
        Ok(match u64::try_from(v) {
            Ok(v) => Value::UInt(v),
            Err(_) => Value::Int(v),
        })
    }

    fn serialize_f64(self, v: f64) -> Result<Value, de::ValueError> {
        Ok(Value::Float(v))
    }

    fn serialize_str(self, v: &str) -> Result<Value, de::ValueError> {
        Ok(Value::Str(v.to_owned()))
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, de::ValueError> {
        Ok(ValueBuilder(Vec::with_capacity(len.unwrap_or(0))))
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, de::ValueError> {
        Ok(ValueBuilder(Vec::with_capacity(len.unwrap_or(0))))
    }
}

impl SerializeSeq for ValueBuilder<Value> {
    type Ok = Value;
    type Error = de::ValueError;

    fn serialize_element<T: Serialize + ?Sized>(
        &mut self,
        value: &T,
    ) -> Result<(), de::ValueError> {
        self.0.push(to_value(value));
        Ok(())
    }

    fn end(self) -> Result<Value, de::ValueError> {
        Ok(Value::Seq(self.0))
    }
}

impl SerializeMap for ValueBuilder<(String, Value)> {
    type Ok = Value;
    type Error = de::ValueError;

    fn serialize_entry<T: Serialize + ?Sized>(
        &mut self,
        key: &str,
        value: &T,
    ) -> Result<(), de::ValueError> {
        self.0.push((key.to_owned(), to_value(value)));
        Ok(())
    }

    fn end(self) -> Result<Value, de::ValueError> {
        Ok(Value::Object(self.0))
    }
}

/// The deserializer behind [`from_value`]: reads an already-built
/// [`Value`].
pub struct ValueDeserializer(pub Value);

impl<'de> Deserializer<'de> for ValueDeserializer {
    type Error = de::ValueError;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, de::ValueError> {
        match self.0 {
            Value::Null => visitor.visit_null(),
            Value::Bool(v) => visitor.visit_bool(v),
            Value::UInt(v) => visitor.visit_u64(v),
            Value::Int(v) => visitor.visit_i64(v),
            Value::Float(v) => visitor.visit_f64(v),
            Value::Str(v) => visitor.visit_string(v),
            Value::Seq(items) => visitor.visit_seq(de::ValueSeqAccess::new(items)),
            Value::Object(entries) => visitor.visit_map(de::ValueMapAccess::new(entries)),
        }
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, de::ValueError> {
        match self.0 {
            Value::Null => visitor.visit_null(),
            value => visitor.visit_some(ValueDeserializer(value)),
        }
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
                serializer.serialize_u64(*self as u64)
            }
        }
    )*};
}
impl_ser_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_i64(*self as i64)
            }
        }
    )*};
}
impl_ser_int!(i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bool(*self)
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_f64(*self)
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
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
            None => serializer.serialize_null(),
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
        let mut map = serializer.serialize_map(Some(self.len()))?;
        for (key, value) in self {
            map.serialize_entry(key, value)?;
        }
        map.end()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(2))?;
        seq.serialize_element(&self.0)?;
        seq.serialize_element(&self.1)?;
        seq.end()
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Value::Null => serializer.serialize_null(),
            Value::Bool(v) => serializer.serialize_bool(*v),
            Value::UInt(v) => serializer.serialize_u64(*v),
            Value::Int(v) => serializer.serialize_i64(*v),
            Value::Float(v) => serializer.serialize_f64(*v),
            Value::Str(v) => serializer.serialize_str(v),
            Value::Seq(items) => serializer.collect_seq(items),
            Value::Object(entries) => {
                let mut map = serializer.serialize_map(Some(entries.len()))?;
                for (key, value) in entries {
                    map.serialize_entry(key, value)?;
                }
                map.end()
            }
        }
    }
}

// Matches real serde's representation: `{"secs": u64, "nanos": u32}`.
impl Serialize for std::time::Duration {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(2))?;
        map.serialize_entry("secs", &self.as_secs())?;
        map.serialize_entry("nanos", &self.subsec_nanos())?;
        map.end()
    }
}

// ---------------------------------------------------------------------------
// Deserialize impls.
// ---------------------------------------------------------------------------

/// One visitor per primitive: `$visit` converts what arrives, and `$name`
/// is what it expects.
macro_rules! primitive_visitor {
    ($visitor:ident, $t:ty, $name:literal, { $($visit:item)* }) => {
        struct $visitor;

        impl<'de> Visitor<'de> for $visitor {
            type Value = $t;

            fn expecting(&self) -> &str {
                $name
            }

            $($visit)*
        }

        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                deserializer.deserialize_any($visitor)
            }
        }
    };
}

fn out_of_range<E: de::Error>(raw: impl std::fmt::Display) -> E {
    E::custom(format!("integer {raw} out of range"))
}

macro_rules! impl_de_uint {
    ($($visitor:ident $t:ty),*) => {$(
        primitive_visitor!($visitor, $t, "unsigned integer", {
            fn visit_u64<E: de::Error>(self, v: u64) -> Result<$t, E> {
                <$t>::try_from(v).map_err(|_| out_of_range(v))
            }

            fn visit_i64<E: de::Error>(self, v: i64) -> Result<$t, E> {
                match u64::try_from(v) {
                    Ok(raw) => self.visit_u64(raw),
                    Err(_) => self.visit_value(Value::Int(v)),
                }
            }
        });
    )*};
}
impl_de_uint!(U8Visitor u8, U16Visitor u16, U32Visitor u32, U64Visitor u64, UsizeVisitor usize);

macro_rules! impl_de_int {
    ($($visitor:ident $t:ty),*) => {$(
        primitive_visitor!($visitor, $t, "integer", {
            fn visit_i64<E: de::Error>(self, v: i64) -> Result<$t, E> {
                <$t>::try_from(v).map_err(|_| out_of_range(v))
            }

            fn visit_u64<E: de::Error>(self, v: u64) -> Result<$t, E> {
                match i64::try_from(v) {
                    Ok(raw) => self.visit_i64(raw),
                    Err(_) => self.visit_value(Value::UInt(v)),
                }
            }
        });
    )*};
}
impl_de_int!(I8Visitor i8, I16Visitor i16, I32Visitor i32, I64Visitor i64, IsizeVisitor isize);

primitive_visitor!(BoolVisitor, bool, "bool", {
    fn visit_bool<E: de::Error>(self, v: bool) -> Result<bool, E> {
        Ok(v)
    }
});

primitive_visitor!(F64Visitor, f64, "number", {
    fn visit_f64<E: de::Error>(self, v: f64) -> Result<f64, E> {
        Ok(v)
    }

    fn visit_u64<E: de::Error>(self, v: u64) -> Result<f64, E> {
        Ok(v as f64)
    }

    fn visit_i64<E: de::Error>(self, v: i64) -> Result<f64, E> {
        Ok(v as f64)
    }
});

primitive_visitor!(StringVisitor, String, "string", {
    fn visit_str<E: de::Error>(self, v: &str) -> Result<String, E> {
        Ok(v.to_owned())
    }

    fn visit_string<E: de::Error>(self, v: String) -> Result<String, E> {
        Ok(v)
    }
});

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Box::new)
    }
}

struct OptionVisitor<T>(std::marker::PhantomData<T>);

impl<'de, T: Deserialize<'de>> Visitor<'de> for OptionVisitor<T> {
    type Value = Option<T>;

    fn expecting(&self) -> &str {
        "option"
    }

    fn visit_null<E: de::Error>(self) -> Result<Option<T>, E> {
        Ok(None)
    }

    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<Option<T>, D::Error> {
        T::deserialize(deserializer).map(Some)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_option(OptionVisitor(std::marker::PhantomData))
    }
}

struct VecVisitor<T>(std::marker::PhantomData<T>);

impl<'de, T: Deserialize<'de>> Visitor<'de> for VecVisitor<T> {
    type Value = Vec<T>;

    fn expecting(&self) -> &str {
        "sequence"
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Vec<T>, A::Error> {
        let mut items = Vec::new();
        while let Some(item) = seq.next_element()? {
            items.push(item);
        }
        Ok(items)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(VecVisitor(std::marker::PhantomData))
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(Vec::<T>::deserialize(deserializer)?.into_iter().collect())
    }
}

struct MapVisitor<V>(std::marker::PhantomData<V>);

impl<'de, V: Deserialize<'de>> Visitor<'de> for MapVisitor<V> {
    type Value = BTreeMap<String, V>;

    fn expecting(&self) -> &str {
        "object"
    }

    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
        let mut out = BTreeMap::new();
        while let Some(key) = map.next_key_with(str::to_owned)? {
            out.insert(key, map.next_value()?);
        }
        Ok(out)
    }
}

impl<'de, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<String, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(MapVisitor(std::marker::PhantomData))
    }
}

/// A lenient `u64` read: any non-negative integer, `-0` included;
/// anything else reads as `None`.
struct AnyU64;

impl<'de> Visitor<'de> for AnyU64 {
    type Value = Option<u64>;

    fn expecting(&self) -> &str {
        "integer"
    }

    fn visit_value<E: de::Error>(self, _: Value) -> Result<Option<u64>, E> {
        Ok(None)
    }

    fn visit_u64<E: de::Error>(self, v: u64) -> Result<Option<u64>, E> {
        Ok(Some(v))
    }

    fn visit_i64<E: de::Error>(self, v: i64) -> Result<Option<u64>, E> {
        Ok(u64::try_from(v).ok())
    }

    fn visit_str<E: de::Error>(self, _: &str) -> Result<Option<u64>, E> {
        Ok(None)
    }

    fn visit_seq<A: SeqAccess<'de>>(self, _: A) -> Result<Option<u64>, A::Error> {
        Ok(None)
    }

    fn visit_map<A: MapAccess<'de>>(self, _: A) -> Result<Option<u64>, A::Error> {
        Ok(None)
    }
}

struct DurationVisitor;

impl<'de> Visitor<'de> for DurationVisitor {
    type Value = std::time::Duration;

    fn expecting(&self) -> &str {
        "Duration object"
    }

    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
        use de::Error;
        // The first `secs` and the first `nanos` count, each as an
        // integer or not at all.
        let (mut secs, mut nanos) = (None, None);
        while let Some(key) = map.next_key_with(|k| match k {
            "secs" => Some(0),
            "nanos" => Some(1),
            _ => None,
        })? {
            let slot = match key {
                Some(0) => &mut secs,
                Some(_) => &mut nanos,
                None => {
                    map.skip_value()?;
                    continue;
                }
            };
            match slot {
                None => *slot = Some(map.next_value_with(AnyU64)?),
                Some(_) => map.skip_value()?,
            }
        }
        let field = |slot: Option<Option<u64>>, name: &str| {
            slot.flatten()
                .ok_or_else(|| A::Error::custom(format!("Duration missing field `{name}`")))
        };
        let secs = field(secs, "secs")?;
        // `Duration::new` panics when a >= 1s nanos value carries past
        // u64::MAX secs; reject instead (deserialization must not abort
        // the process on malformed input).
        let nanos = u32::try_from(field(nanos, "nanos")?)
            .ok()
            .filter(|&n| n < 1_000_000_000)
            .ok_or_else(|| A::Error::custom("Duration nanos out of range"))?;
        Ok(std::time::Duration::new(secs, nanos))
    }
}

impl<'de> Deserialize<'de> for std::time::Duration {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(DurationVisitor)
    }
}

struct PairVisitor<A, B>(std::marker::PhantomData<(A, B)>);

impl<'de, A: Deserialize<'de>, B: Deserialize<'de>> Visitor<'de> for PairVisitor<A, B> {
    type Value = (A, B);

    fn expecting(&self) -> &str {
        "2-element sequence"
    }

    fn visit_seq<S: SeqAccess<'de>>(self, mut seq: S) -> Result<(A, B), S::Error> {
        use de::Error;
        // The length is checked before either element's error is
        // reported.
        let wrong_length = || S::Error::custom("expected 2-element sequence, found sequence");
        let a = seq.next_element::<A>();
        if matches!(a, Ok(None)) {
            return Err(wrong_length());
        }
        let b = seq.next_element::<B>();
        if matches!(b, Ok(None)) || seq.next_element::<de::IgnoredAny>()?.is_some() {
            return Err(wrong_length());
        }
        match (a?, b?) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => unreachable!("both elements were present"),
        }
    }
}

impl<'de, A: Deserialize<'de>, B: Deserialize<'de>> Deserialize<'de> for (A, B) {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(PairVisitor(std::marker::PhantomData))
    }
}

// ---------------------------------------------------------------------------
// Impl-generating macros (the shim's replacement for #[derive(...)]).
// ---------------------------------------------------------------------------

/// Implements `Serialize`/`Deserialize` for a struct with named fields,
/// mapping it to a JSON object keyed by field name (what
/// `#[derive(Serialize, Deserialize)]` produces for such structs).
/// Fields in a trailing `skip { .. }` list are never written and are
/// rebuilt with `Default::default()` on read (serde's `#[serde(skip)]`).
/// Unknown fields are ignored on read, and of two entries with one key
/// the first counts.
#[macro_export]
macro_rules! impl_serde_struct {
    ($ty:ident { $($field:ident),+ $(,)? } $(skip { $($skip:ident),+ $(,)? })?) => {
        impl $crate::Serialize for $ty {
            fn serialize<S: $crate::Serializer>(
                &self,
                serializer: S,
            ) -> Result<S::Ok, S::Error> {
                use $crate::ser::SerializeMap as _;
                let mut map = serializer.serialize_map(None)?;
                $( map.serialize_entry(stringify!($field), &self.$field)?; )+
                map.end()
            }
        }

        impl<'de> $crate::Deserialize<'de> for $ty {
            fn deserialize<D: $crate::Deserializer<'de>>(
                deserializer: D,
            ) -> Result<Self, D::Error> {
                struct Visitor;

                impl<'de> $crate::de::Visitor<'de> for Visitor {
                    type Value = $ty;

                    fn expecting(&self) -> &str {
                        "object"
                    }

                    fn visit_map<A: $crate::de::MapAccess<'de>>(
                        self,
                        mut map: A,
                    ) -> Result<$ty, A::Error> {
                        $crate::__fields!(@read map [$ty] [$( ($field [req]) )+] [$($($skip)+)?])
                    }
                }

                deserializer.deserialize_any(Visitor).map_err(|e| {
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
/// * `field` — required (integers are range-checked against the field's
///   type);
/// * `field?` — an `Option<T>` left out when `None`; absent parses as
///   `None`, and a present value must parse as `T` (`null` is an error);
/// * `field = default` — always written; absent parses as `default`, and
///   a present value must parse;
/// * `field with Codec` — a [`de::FieldCodec`] writes and reads the
///   field's entries (flattened, lenient, or re-encoded fields).
///
/// Unknown fields are ignored on read, so a peer may add optional
/// fields without breaking older readers; of two entries with one key
/// the first counts. Errors name the variant and the field, and of
/// several bad fields the first listed is reported. The tag may sit
/// anywhere in its object: when it is not first, the object is read into
/// a [`Value`] tree, the tag moved to the front, and the same code run
/// over the tree.
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
                use $crate::ser::SerializeMap as _;
                let mut map = serializer.serialize_map(None)?;
                match self {
                    $( $crate::__tagged_fields!(@bind $variant [] $($($fields)*)?) => {
                        map.serialize_entry($tag, $name)?;
                        $crate::__fields!(@write map $($($fields)*)?);
                    } )+
                }
                map.end()
            }
        }

        impl<'de> $crate::Deserialize<'de> for $ty {
            fn deserialize<D: $crate::Deserializer<'de>>(
                deserializer: D,
            ) -> Result<Self, D::Error> {
                struct Visitor;

                impl<'de> $crate::de::Visitor<'de> for Visitor {
                    type Value = $ty;

                    fn expecting(&self) -> &str {
                        "object"
                    }

                    #[allow(clippy::redundant_closure_call)]
                    fn visit_map<A: $crate::de::MapAccess<'de>>(
                        self,
                        mut map: A,
                    ) -> Result<$ty, A::Error> {
                        use $crate::de::Error as _;
                        let first = map.next_key_with(|k| (k != $tag).then(|| k.to_owned()))?;
                        let name = match first {
                            None => {
                                return Err(A::Error::custom(format!("missing field `{}`", $tag)))
                            }
                            Some(Some(key)) => {
                                let entries = $crate::de::buffer_tagged(&mut map, key, $tag)?;
                                return self
                                    .visit_map($crate::de::ValueMapAccess::new(entries))
                                    .map_err(A::Error::custom);
                            }
                            Some(None) => {
                                match map.next_value_with($crate::de::TagVisitor(&[$($name),+])) {
                                    Ok(Ok(name)) => name,
                                    Ok(Err(other)) => {
                                        return Err(A::Error::custom(format!(
                                            "unknown {} `{other}`",
                                            $tag
                                        )))
                                    }
                                    Err(e) => {
                                        return Err(A::Error::custom(format!(
                                            "field `{}`: {e}",
                                            $tag
                                        )))
                                    }
                                }
                            }
                        };
                        match name {
                            $( $name => (|| -> Result<$ty, A::Error> {
                                $crate::__fields!(@norm map [$ty::$variant] [] $($($fields)*)?)
                            })()
                            .map_err(|e| A::Error::custom(format!("{}: {e}", stringify!($variant)))), )+
                            _ => unreachable!("the tag visitor returns only listed names"),
                        }
                    }
                }

                deserializer.deserialize_any(Visitor).map_err(|e| {
                    <D::Error as $crate::de::Error>::custom(format!("{}: {e}", stringify!($ty)))
                })
            }
        }
    };
}

/// The variant patterns of [`impl_serde_tagged_enum!`]: munches one
/// variant's field list into `Self::Variant { a, b, .. }`.
#[doc(hidden)]
#[macro_export]
macro_rules! __tagged_fields {
    (@bind $variant:ident []) => { Self::$variant };
    (@bind $variant:ident [$($acc:ident)+]) => { Self::$variant { $($acc),+ } };
    (@bind $variant:ident [$($acc:ident)*] $f:ident ? $(, $($rest:tt)*)?) => {
        $crate::__tagged_fields!(@bind $variant [$($acc)* $f] $($($rest)*)?)
    };
    (@bind $variant:ident [$($acc:ident)*] $f:ident = $default:expr $(, $($rest:tt)*)?) => {
        $crate::__tagged_fields!(@bind $variant [$($acc)* $f] $($($rest)*)?)
    };
    (@bind $variant:ident [$($acc:ident)*] $f:ident with $codec:ty $(, $($rest:tt)*)?) => {
        $crate::__tagged_fields!(@bind $variant [$($acc)* $f] $($($rest)*)?)
    };
    (@bind $variant:ident [$($acc:ident)*] $f:ident $(, $($rest:tt)*)?) => {
        $crate::__tagged_fields!(@bind $variant [$($acc)* $f] $($($rest)*)?)
    };
}

/// The per-field code of the struct and tagged-enum macros: writes a
/// field list entry by entry, and reads an object into one slot per
/// field (a [`de::Slot`], or the field's [`de::FieldCodec`]).
#[doc(hidden)]
#[macro_export]
macro_rules! __fields {
    // Write: one entry per field, or none for an absent `field?`.
    (@write $map:ident) => {};
    (@write $map:ident $f:ident ? $(, $($rest:tt)*)?) => {
        if let Some(value) = $f {
            $map.serialize_entry(stringify!($f), value)?;
        }
        $crate::__fields!(@write $map $($($rest)*)?);
    };
    (@write $map:ident $f:ident = $default:expr $(, $($rest:tt)*)?) => {
        $crate::__fields!(@write $map $f $(, $($rest)*)?);
    };
    (@write $map:ident $f:ident with $codec:ty $(, $($rest:tt)*)?) => {
        <$codec as $crate::de::FieldCodec>::write($f, &mut $map)?;
        $crate::__fields!(@write $map $($($rest)*)?);
    };
    (@write $map:ident $f:ident $(, $($rest:tt)*)?) => {
        $map.serialize_entry(stringify!($f), $f)?;
        $crate::__fields!(@write $map $($($rest)*)?);
    };

    // Read, step 1: a tagged variant's field list as `(field [mode])`.
    (@norm $map:ident [$($ctor:tt)+] [$($acc:tt)*]) => {
        $crate::__fields!(@read $map [$($ctor)+] [$($acc)*] [])
    };
    (@norm $map:ident [$($ctor:tt)+] [$($acc:tt)*] $f:ident ? $(, $($rest:tt)*)?) => {
        $crate::__fields!(@norm $map [$($ctor)+] [$($acc)* ($f [opt])] $($($rest)*)?)
    };
    (@norm $map:ident [$($ctor:tt)+] [$($acc:tt)*] $f:ident = $default:expr
        $(, $($rest:tt)*)?) => {
        $crate::__fields!(@norm $map [$($ctor)+] [$($acc)* ($f [def $default])] $($($rest)*)?)
    };
    (@norm $map:ident [$($ctor:tt)+] [$($acc:tt)*] $f:ident with $codec:ty
        $(, $($rest:tt)*)?) => {
        $crate::__fields!(@norm $map [$($ctor)+] [$($acc)* ($f [with $codec])] $($($rest)*)?)
    };
    (@norm $map:ident [$($ctor:tt)+] [$($acc:tt)*] $f:ident $(, $($rest:tt)*)?) => {
        $crate::__fields!(@norm $map [$($ctor)+] [$($acc)* ($f [req])] $($($rest)*)?)
    };

    // Read, step 2: every entry into its field's slot, then the value
    // built field by field in declaration order (the first error wins).
    (@read $map:ident [$($ctor:tt)+] [] [$($skip:ident)*]) => {{
        while $map.next_key_with(|_| ())?.is_some() {
            $map.skip_value()?;
        }
        Ok($($ctor)+ { $($skip: Default::default(),)* })
    }};
    (@read $map:ident [$($ctor:tt)+] [$(($f:ident $mode:tt))+] [$($skip:ident)*]) => {{
        #[allow(non_camel_case_types)]
        enum Key {
            $($f(u8),)+
        }
        $( let mut $f = $crate::__fields!(@slot $mode); )+
        while let Some(key) = $map.next_key_with(|k| {
            $(
                if let Some(i) = $crate::__fields!(@key $mode $f k) {
                    return Some(Key::$f(i));
                }
            )+
            None
        })? {
            match key {
                $( Some(Key::$f(i)) => $crate::__fields!(@take $mode $f i $map), )+
                None => $map.skip_value()?,
            }
        }
        Ok($($ctor)+ {
            $( $f: $crate::__fields!(@finish $mode $f), )+
            $( $skip: Default::default(), )*
        })
    }};

    (@slot [with $codec:ty]) => { <$codec as Default>::default() };
    (@slot $mode:tt) => { $crate::de::Slot::Absent };

    (@key [with $codec:ty] $f:ident $k:ident) => {
        <$codec as $crate::de::FieldCodec>::key_index($k)
    };
    (@key $mode:tt $f:ident $k:ident) => { ($k == stringify!($f)).then_some(0u8) };

    (@take [with $codec:ty] $f:ident $i:ident $map:ident) => {
        $crate::de::FieldCodec::read(&mut $f, $i, &mut $map)?
    };
    (@take $mode:tt $f:ident $i:ident $map:ident) => {{
        let _ = $i;
        $f.read(&mut $map)?
    }};

    (@finish [req] $f:ident) => { $f.required(stringify!($f))? };
    (@finish [opt] $f:ident) => { $f.optional(stringify!($f))? };
    (@finish [def $default:expr] $f:ident) => {
        $f.optional(stringify!($f))?.unwrap_or($default)
    };
    (@finish [with $codec:ty] $f:ident) => { $crate::de::FieldCodec::finish($f)? };
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
                serializer.serialize_str(name)
            }
        }

        impl<'de> $crate::Deserialize<'de> for $ty {
            fn deserialize<D: $crate::Deserializer<'de>>(
                deserializer: D,
            ) -> Result<Self, D::Error> {
                struct Visitor;

                impl<'de> $crate::de::Visitor<'de> for Visitor {
                    type Value = $ty;

                    fn expecting(&self) -> &str {
                        stringify!($ty)
                    }

                    fn visit_str<E: $crate::de::Error>(self, name: &str) -> Result<$ty, E> {
                        match name {
                            $( stringify!($variant) => Ok($ty::$variant), )+
                            other => Err(E::custom(format!(
                                "unknown {} variant `{}`",
                                stringify!($ty),
                                other
                            ))),
                        }
                    }

                    fn visit_value<E: $crate::de::Error>(
                        self,
                        found: $crate::Value,
                    ) -> Result<$ty, E> {
                        Err(E::custom(format!(
                            "expected string variant of {}, found {:?}",
                            stringify!($ty),
                            found
                        )))
                    }

                    fn visit_seq<A: $crate::de::SeqAccess<'de>>(
                        self,
                        seq: A,
                    ) -> Result<$ty, A::Error> {
                        self.visit_value($crate::de::seq_to_value(seq)?)
                    }

                    fn visit_map<A: $crate::de::MapAccess<'de>>(
                        self,
                        map: A,
                    ) -> Result<$ty, A::Error> {
                        self.visit_value($crate::de::map_to_value(map)?)
                    }
                }

                deserializer.deserialize_any(Visitor)
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
        Get = "get" { key, limit?, fresh = true, span with SpanCodec },
    });

    /// A custom codec: the pair travels flattened as two fields, and an
    /// absent or malformed pair reads as `(0, 0)`.
    #[derive(Default)]
    struct SpanCodec([Option<Option<u64>>; 2]);

    impl de::FieldCodec for SpanCodec {
        type Value = (u64, u64);

        fn key_index(key: &str) -> Option<u8> {
            ["lo", "hi"].iter().position(|k| *k == key).map(|i| i as u8)
        }

        fn write<M: SerializeMap>(span: &(u64, u64), map: &mut M) -> Result<(), M::Error> {
            map.serialize_entry("lo", &span.0)?;
            map.serialize_entry("hi", &span.1)
        }

        fn read<'de, A: MapAccess<'de>>(&mut self, key: u8, map: &mut A) -> Result<(), A::Error> {
            match &mut self.0[usize::from(key)] {
                Some(_) => map.skip_value(),
                slot => {
                    *slot = Some(map.next_value().ok());
                    Ok(())
                }
            }
        }

        fn finish<E: de::Error>(self) -> Result<(u64, u64), E> {
            let [lo, hi] = self.0.map(|v| v.flatten().unwrap_or(0));
            Ok((lo, hi))
        }
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
