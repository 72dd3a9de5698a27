//! Offline stand-in for the `serde` crate.
//!
//! The real serde cannot be vendored in this container (no network, no
//! registry cache), so this crate supplies the small subset the workspace
//! uses: `Serialize`/`Deserialize` traits, JSON as the one data format,
//! and the `#[derive(Serialize, Deserialize)]` macros from the sibling
//! `serde_derive` shim. The wire behaviour mirrors serde_json's defaults
//! for the shapes this workspace serializes: structs become objects in
//! field order, enums are externally tagged, newtype structs are
//! transparent, `Option` is `null`-or-value, and non-finite floats
//! serialize as `null`.
//!
//! Each trait has two paths. The production path is one pass, shaped
//! like real serde's `Deserializer`/`Serializer`:
//! [`Deserialize::deserialize`] pulls tokens from a validating byte
//! cursor ([`Reader`]) straight into the type, and
//! [`Serialize::serialize`] writes text straight into a [`Writer`]. The
//! other path, [`Serialize::to_value`]/[`Deserialize::from_value`] over
//! a [`Value`] tree, is the [`reference`](mod@reference) codec the one-pass path is
//! differentially tested against.
//!
//! Field rules, the same on both paths: the first occurrence of a
//! duplicate struct key wins (later ones must still be valid JSON),
//! while a map keeps the last; unknown keys are ignored; a missing field
//! decodes from `null` (so an `Option` becomes `None` and an `f64` NaN)
//! unless it is `#[serde(default)]`; integral floats (`3.0`, `1e3`) are
//! accepted for integers that can hold them exactly. Arrays and objects
//! may nest at most [`MAX_DEPTH`] deep.

pub use serde_derive::{Deserialize, Serialize};

mod read;
pub mod reference;
mod write;

pub use read::{Mark, Reader};
pub use reference::parse_json;
pub use write::Writer;

use std::collections::BTreeMap;
use std::fmt;

/// The deepest nesting of arrays and objects a document may have (as in
/// serde_json); deeper input is an error rather than a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON document. Object keys preserve insertion order so that
/// struct output is reproducible (field declaration order).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer that fits in `i64` (serialized without a decimal point).
    Int(i64),
    /// An integer above `i64::MAX` that fits in `u64`.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrows the object pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Borrows the array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Borrows the string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up a key in an object (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|pairs| object_get(pairs, key))
    }
}

/// Looks up a key in a pair list (first match; used by derived code).
pub fn object_get<'a>(pairs: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    /// Creates an error with a custom message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Writes `self` into `w` (the production path).
    fn serialize(&self, w: &mut Writer);

    /// Builds the JSON value for `self` (the [`reference`](mod@reference) path).
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from JSON.
pub trait Deserialize: Sized {
    /// Decodes `Self` from the value at the cursor, consuming exactly
    /// that value (the production path).
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;

    /// Rebuilds `Self` from a JSON value (the [`reference`](mod@reference) path).
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Decodes a whole JSON document in one pass.
pub fn from_json<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut r = Reader::new(text);
    let value = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Encodes a value as JSON text in one pass, compact or pretty-printed.
pub fn to_json<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    let mut w = Writer::new(pretty);
    value.serialize(&mut w);
    w.into_string()
}

/// Renders a value as compact JSON.
pub fn write_json(v: &Value) -> String {
    to_json(v, false)
}

/// Renders a value as pretty-printed JSON (two-space indent).
pub fn write_json_pretty(v: &Value) -> String {
    to_json(v, true)
}

/// The value of an absent struct field: what `null` decodes to, if
/// anything (used by derived code).
pub fn missing_field<T: Deserialize>(field: &str, owner: &str) -> Result<T, Error> {
    from_json("null").map_err(|_| missing(field, owner))
}

/// [`missing_field`] on the [`reference`](mod@reference) path.
pub fn missing_field_value<T: Deserialize>(field: &str, owner: &str) -> Result<T, Error> {
    T::from_value(&Value::Null).map_err(|_| missing(field, owner))
}

fn missing(field: &str, owner: &str) -> Error {
    Error(format!("missing field `{field}` in {owner}"))
}

/// The code point of four hex digits (no sign, unlike `from_str_radix`).
fn hex4(digits: &[u8]) -> Option<u32> {
    digits.iter().try_fold(0, |cp, &d| {
        let v = (d as char).to_digit(16)?;
        Some(cp << 4 | v)
    })
}

/// Combines a UTF-16 surrogate pair; the high half is already checked.
fn surrogate_pair(high: u32, low: u32) -> Result<u32, Error> {
    if !(0xDC00..0xE000).contains(&low) {
        return Err(Error::custom("unpaired surrogate in \\u escape"));
    }
    Ok(0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00))
}

fn type_err(expected: &str, got: &Value) -> Error {
    let kind = match got {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Int(_) | Value::UInt(_) => "integer",
        Value::Float(_) => "float",
        Value::Str(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    };
    Error(format!("expected {expected}, found {kind}"))
}

/// A JSON number, classified as [`parse_json`] classifies it: an
/// integer that fits `i64`, one above `i64::MAX` that fits `u64`, or a
/// float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// See [`Value::Int`].
    Int(i64),
    /// See [`Value::UInt`].
    UInt(u64),
    /// See [`Value::Float`].
    Float(f64),
}

impl Value {
    fn number(&self) -> Option<Number> {
        match *self {
            Value::Int(i) => Some(Number::Int(i)),
            Value::UInt(u) => Some(Number::UInt(u)),
            Value::Float(f) => Some(Number::Float(f)),
            _ => None,
        }
    }
}

/// An integer of type `T` from a number, which may be an integral float
/// (exact below 2^127 in magnitude; no integer type holds more).
#[inline]
fn int_from<T>(n: Number, ty: &str) -> Result<T, Error>
where
    T: TryFrom<i64> + TryFrom<u64> + TryFrom<i128>,
{
    let fits = match n {
        Number::Int(i) => T::try_from(i).ok(),
        Number::UInt(u) => T::try_from(u).ok(),
        Number::Float(f) if f.fract() != 0.0 || f.is_nan() => {
            return Err(Error::custom("expected integer, found float"))
        }
        Number::Float(f) if f.abs() < 2f64.powi(127) => T::try_from(f as i128).ok(),
        Number::Float(_) => None,
    };
    fits.ok_or_else(|| {
        let n = match n {
            Number::Int(i) => i.to_string(),
            Number::UInt(u) => u.to_string(),
            Number::Float(f) => format!("{f:?}"),
        };
        Error(format!("integer {n} out of range for {ty}"))
    })
}

#[inline]
fn float_from(n: Number) -> f64 {
    match n {
        Number::Int(i) => i as f64,
        Number::UInt(u) => u as f64,
        Number::Float(f) => f,
    }
}

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer) {
        w.value(self)
    }

    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self)
    }

    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.bool()
    }

    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(type_err("bool", other)),
        }
    }
}

macro_rules! int_deserialize {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            #[inline]
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                match r.number()? {
                    Some(n) => int_from(n, stringify!($t)),
                    None => Err(r.type_error("integer")),
                }
            }

            fn from_value(v: &Value) -> Result<Self, Error> {
                match v.number() {
                    Some(n) => int_from(n, stringify!($t)),
                    None => Err(type_err("integer", v)),
                }
            }
        }
    )*};
}

int_deserialize!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! signed_serialize {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.int(*self as i64)
            }

            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}

signed_serialize!(i8, i16, i32, i64, isize);

macro_rules! unsigned_serialize {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.uint(*self as u64)
            }

            fn to_value(&self) -> Value {
                let u = *self as u64;
                i64::try_from(u).map_or(Value::UInt(u), Value::Int)
            }
        }
    )*};
}

unsigned_serialize!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        w.float(*self)
    }

    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::Float(*self)
        } else {
            // serde_json serializes non-finite floats as null.
            Value::Null
        }
    }
}

impl Deserialize for f64 {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        // `null` is the round trip of a non-finite float.
        if r.null()? {
            return Ok(f64::NAN);
        }
        match r.number()? {
            Some(n) => Ok(float_from(n)),
            None => Err(r.type_error("number")),
        }
    }

    fn from_value(v: &Value) -> Result<Self, Error> {
        match (v, v.number()) {
            (_, Some(n)) => Ok(float_from(n)),
            (Value::Null, None) => Ok(f64::NAN),
            _ => Err(type_err("number", v)),
        }
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self)
    }

    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.str().map(|s| s.into_owned())
    }

    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(type_err("string", other)),
        }
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self)
    }

    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }

    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }

    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize(r).map(Box::new)
    }

    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for std::sync::Arc<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }

    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize(r).map(std::sync::Arc::new)
    }

    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(x) => x.serialize(w),
            None => w.null(),
        }
    }

    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.null()? {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }

    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        w.seq(self)
    }

    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if !r.begin_array()? {
            return Err(r.type_error("array"));
        }
        let mut items = Vec::new();
        while r.next_element()? {
            items.push(T::deserialize(r)?);
        }
        Ok(items)
    }

    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(type_err("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        w.seq(self)
    }

    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! tuple_impls {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, w: &mut Writer) {
                w.begin('[');
                $(
                    w.element($i == 0);
                    self.$i.serialize(w);
                )+
                w.end(']', false);
            }

            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }

        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                const ARITY: usize = [$($i),+].len();
                let arity = || Error(format!("expected array of length {ARITY}"));
                if !r.begin_array()? {
                    return Err(r.type_error("array"));
                }
                let tuple = ($(
                    if r.next_element()? { $t::deserialize(r)? } else { return Err(arity()) },
                )+);
                if r.next_element()? {
                    return Err(arity());
                }
                Ok(tuple)
            }

            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.as_array().ok_or_else(|| type_err("array", v))?;
                let expected = [$($i),+].len();
                if items.len() != expected {
                    return Err(Error(format!(
                        "expected array of length {expected}, found {}", items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$i])?,)+))
            }
        }
    )*};
}

tuple_impls! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

// JSON object keys are strings, so map keys must serialize to a string
// or integer value — the same restriction serde_json enforces at
// runtime. Integer keys round-trip through their decimal form.
fn key_to_string<K: Serialize>(key: &K) -> String {
    match key.to_value() {
        Value::Str(s) => s,
        Value::Int(i) => i.to_string(),
        Value::UInt(u) => u.to_string(),
        other => panic!("map key must serialize to a string or integer, got {other:?}"),
    }
}

fn invalid_key(key: &str) -> Error {
    Error(format!("invalid map key: {key:?}"))
}

fn key_from_string<K: Deserialize>(key: &str) -> Result<K, Error> {
    if let Ok(k) = K::from_value(&Value::Str(key.to_string())) {
        return Ok(k);
    }
    if let Ok(i) = key.parse::<i64>() {
        if let Ok(k) = K::from_value(&Value::Int(i)) {
            return Ok(k);
        }
    }
    Err(invalid_key(key))
}

/// [`key_from_string`] on the one-pass path; `raw` is the key's quoted
/// source text.
fn key_from_json<K: Deserialize>(key: &str, raw: &str) -> Result<K, Error> {
    if let Ok(k) = from_json(raw) {
        return Ok(k);
    }
    if let Ok(i) = key.parse::<i64>() {
        if let Ok(k) = from_json(&i.to_string()) {
            return Ok(k);
        }
    }
    Err(invalid_key(key))
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        w.map(self)
    }

    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (key_to_string(k), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if !r.begin_object()? {
            return Err(r.type_error("object"));
        }
        let mut map = BTreeMap::new();
        while let Some((key, raw)) = r.next_key_raw()? {
            let key = key_from_json(&key, raw)?;
            map.insert(key, V::deserialize(r)?);
        }
        Ok(map)
    }

    fn from_value(v: &Value) -> Result<Self, Error> {
        let pairs = v.as_object().ok_or_else(|| type_err("object", v))?;
        pairs
            .iter()
            .map(|(k, v)| Ok((key_from_string(k)?, V::from_value(v)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "42", "-7", "3.25", "\"hi\""] {
            let v = parse_json(text).unwrap();
            assert_eq!(write_json(&v), text);
        }
    }

    #[test]
    fn float_formatting_keeps_decimal_point() {
        assert_eq!(write_json(&Value::Float(1.0)), "1.0");
        assert_eq!(write_json(&Value::Float(0.1)), "0.1");
        assert_eq!(write_json(&Value::Int(1)), "1");
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(write_json(&f64::NAN.to_value()), "null");
        assert!(f64::from_value(&Value::Null).unwrap().is_nan());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}".into());
        let text = write_json(&v);
        assert_eq!(parse_json(&text).unwrap(), v);
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(
            parse_json("\"\\u00e9\\ud83d\\ude00\"").unwrap(),
            Value::Str("é😀".into())
        );
    }

    #[test]
    fn nested_structures_roundtrip() {
        let text = r#"{"a":[1,2.5,null],"b":{"c":"x"},"d":[]}"#;
        let v = parse_json(text).unwrap();
        assert_eq!(write_json(&v), text);
    }

    #[test]
    fn errors_on_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("12 34").is_err());
    }

    #[test]
    fn pretty_printing_indents() {
        let v = parse_json(r#"{"a":[1]}"#).unwrap();
        assert_eq!(write_json_pretty(&v), "{\n  \"a\": [\n    1\n  ]\n}");
    }

    /// Decodes `text` on both paths.
    fn both<T: Deserialize>(text: &str) -> [Result<T, Error>; 2] {
        [from_json(text), reference::from_str(text)]
    }

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_capped_at_max_depth_on_both_paths() {
        let ok = nested(MAX_DEPTH);
        assert!(parse_json(&ok).is_ok());
        assert!(Reader::new(&ok).skip_value().is_ok());
        let deep = nested(MAX_DEPTH + 1);
        let err = parse_json(&deep).unwrap_err().to_string();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let err = Reader::new(&deep).skip_value().unwrap_err().to_string();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // A megabyte of open brackets is an error, not a stack overflow.
        let bomb = "[".repeat(1 << 20);
        assert!(parse_json(&bomb).is_err());
        assert!(Reader::new(&bomb).skip_value().is_err());
        assert!(from_json::<BTreeMap<String, u8>>(&format!("{{\"k\":{bomb}")).is_err());
    }

    #[test]
    fn u64_above_i64_max_round_trips_on_both_paths() {
        for u in [i64::MAX as u64 + 1, u64::MAX] {
            let text = to_json(&u, false);
            assert_eq!(text, u.to_string());
            assert_eq!(reference::to_string(&u), text);
            for decoded in both::<u64>(&text) {
                assert_eq!(decoded.unwrap(), u);
            }
            for decoded in both::<i64>(&text) {
                let err = decoded.unwrap_err().to_string();
                assert_eq!(err, format!("integer {u} out of range for i64"));
            }
        }
        for decoded in both::<u64>("-1") {
            assert!(decoded.is_err());
        }
    }

    #[test]
    fn integral_floats_outside_the_target_range_are_errors() {
        let out_of_range = |r: Result<i128, Error>| {
            let err = r.unwrap_err().to_string();
            assert!(err.contains("out of range"), "{err}");
        };
        for text in ["1e300", "-1e300", "1e19"] {
            both::<i64>(text)
                .into_iter()
                .for_each(|r| out_of_range(r.map(i128::from)));
        }
        for text in ["1e300", "-1.0", "1.8446744073709552e19"] {
            both::<u64>(text)
                .into_iter()
                .for_each(|r| out_of_range(r.map(i128::from)));
        }
        both::<u32>("4294967296.0")
            .into_iter()
            .for_each(|r| out_of_range(r.map(i128::from)));
        both::<u32>("1e3")
            .into_iter()
            .for_each(|r| assert_eq!(r.unwrap(), 1000));
        both::<u8>("3.0")
            .into_iter()
            .for_each(|r| assert_eq!(r.unwrap(), 3));
        both::<u8>("2.5")
            .into_iter()
            .for_each(|r| assert!(r.is_err()));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for text in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004""#] {
            for decoded in both::<String>(text) {
                assert!(decoded.is_err(), "{text} decoded");
            }
        }
        for decoded in both::<String>(r#""Aé""#) {
            assert_eq!(decoded.unwrap(), "Aé");
        }
    }

    #[test]
    fn a_high_surrogate_needs_a_low_surrogate_on_both_paths() {
        for text in [r#""\ud800A""#, r#""\ud800""#, r#""\ud800x""#, r#""\udc00""#] {
            for decoded in both::<String>(text) {
                assert!(decoded.is_err(), "{text} decoded");
            }
        }
        for decoded in both::<String>(r#""😀""#) {
            assert_eq!(decoded.unwrap(), "😀");
        }
    }

    #[test]
    fn numbers_classify_as_the_reference_parser_does() {
        let tokens = [
            "0",
            "-0",
            "007",
            "1.",
            "-.5",
            "1e5",
            "1E+2",
            "1.5e-3",
            "0.1",
            "0.30000000000000004",
            "9007199254740993",
            "9007199254740993.0",
            "123456789.123456789",
            "-9223372036854775808",
            "-9223372036854775809",
            "18446744073709551615",
            "18446744073709551616",
            "000000000000000000001",
            "123456789012345678901234567890",
            "1.7976931348623157e309",
            "1-2",
            "1.2.3",
            "-",
        ];
        for token in tokens {
            let cursor = Reader::new(token).number();
            match (cursor, parse_json(token).map(|v| v.number())) {
                (Ok(a), Ok(b)) => assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{token} classified differently"
                ),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("{token}: cursor {a:?}, reference {b:?}"),
            }
        }
    }

    #[test]
    fn rewind_returns_to_a_marked_value() {
        let mut r = Reader::new(r#"{"a":[1,true],"b":2}"#);
        assert!(r.begin_object().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        let mark = r.mark();
        assert!(u8::deserialize(&mut r).is_err());
        r.rewind(mark);
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("b"));
        assert_eq!(u8::deserialize(&mut r).unwrap(), 2);
        assert!(r.next_key().unwrap().is_none());
        r.finish().unwrap();
    }

    #[test]
    fn untyped_values_write_in_one_pass() {
        let text = r#"{"a":[1,2.5,null,{}],"b":{"c":"x\u0001"},"d":[],"e":18446744073709551615}"#;
        assert_eq!(write_json(&parse_json(text).unwrap()), text);
    }
}
