//! Offline stand-in for `serde_json`: a thin facade over the `serde`
//! shim's one-pass JSON codec, plus its untyped [`Value`] parser.
//!
//! Floats print with `{:?}` — the shortest representation that parses
//! back to the same bits — so round-trips are exact, matching the real
//! crate's `float_roundtrip` feature.

pub use serde::{Error, Value};

use serde::{Deserialize, Serialize};

/// Serializes a value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::to_json(value, false))
}

/// Serializes a value to pretty-printed JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::to_json(value, true))
}

/// Deserializes a value from JSON text.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    serde::from_json(text)
}

/// Parses JSON text into an untyped [`Value`].
pub fn from_str_value(text: &str) -> Result<Value, Error> {
    serde::parse_json(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_roundtrip() {
        let v: Vec<f64> = from_str("[1.0,2.5,0.1]").unwrap();
        assert_eq!(v, vec![1.0, 2.5, 0.1]);
        assert_eq!(to_string(&v).unwrap(), "[1.0,2.5,0.1]");
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for &f in &[0.1, 1.0 / 3.0, f64::MAX, 5e-324, 123456.789e-30] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(f.to_bits(), back.to_bits(), "{text}");
        }
    }

    #[test]
    fn option_and_map() {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<String, Option<f64>> = BTreeMap::new();
        m.insert("a".into(), Some(1.5));
        m.insert("b".into(), None);
        let text = to_string(&m).unwrap();
        assert_eq!(text, r#"{"a":1.5,"b":null}"#);
        let back: BTreeMap<String, Option<f64>> = from_str(&text).unwrap();
        assert_eq!(m, back);
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Cell {
        id: u32,
        value: f64,
        label: Option<String>,
        #[serde(default)]
        tags: Vec<String>,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Shape {
        Empty,
        Point(f64),
        Pair(u8, u8),
        Named { cell: Cell },
    }

    /// Decodes `text` as `T` on both paths, which must agree.
    fn both<T: Deserialize + PartialEq + std::fmt::Debug>(text: &str) -> Result<T, Error> {
        let one_pass = from_str::<T>(text);
        let reference = serde::reference::from_str::<T>(text);
        assert_eq!(one_pass.is_ok(), reference.is_ok(), "{text}");
        if let (Ok(a), Ok(b)) = (&one_pass, &reference) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{text}");
        }
        one_pass
    }

    #[test]
    fn first_duplicate_key_wins_but_later_ones_must_parse() {
        let cell: Cell = both(r#"{"id":1,"id":"x","value":2.5,"label":null}"#).unwrap();
        assert_eq!(cell.id, 1);
        assert!(both::<Cell>(r#"{"id":1,"id":tru,"value":2.5}"#).is_err());
        assert!(both::<Cell>(r#"{"id":"x","id":1,"value":2.5}"#).is_err());
    }

    #[test]
    fn unknown_keys_are_ignored_and_missing_fields_decode_from_null() {
        let cell: Cell = both(r#"{"extra":[{"deep":[1,2]}],"id":7}"#).unwrap();
        assert_eq!(cell.id, 7);
        assert!(cell.value.is_nan(), "a missing f64 is NaN");
        assert_eq!(cell.label, None);
        assert!(cell.tags.is_empty(), "#[serde(default)]");
        let err = both::<Cell>(r#"{"value":1.0}"#).unwrap_err().to_string();
        assert_eq!(err, "missing field `id` in Cell");
        // Keys match after unescaping.
        let cell: Cell = both(r#"{"\u0069d":3}"#).unwrap();
        assert_eq!(cell.id, 3);
    }

    #[test]
    fn enums_are_externally_tagged_on_both_paths() {
        let shapes = vec![
            Shape::Empty,
            Shape::Point(0.5),
            Shape::Pair(1, 2),
            Shape::Named {
                cell: Cell {
                    id: 1,
                    value: 2.0,
                    label: Some("a\"b".into()),
                    tags: vec!["t".into()],
                },
            },
        ];
        let text = to_string(&shapes).unwrap();
        assert_eq!(text, serde::reference::to_string(&shapes));
        assert_eq!(
            to_string_pretty(&shapes).unwrap(),
            serde::reference::to_string_pretty(&shapes)
        );
        assert_eq!(both::<Vec<Shape>>(&text).unwrap(), shapes);
        for bad in [
            r#""Nope""#,
            r#""Point""#,
            r#"{"Empty":null}"#,
            r#"{"Point":1.0,"Pair":[1,2]}"#,
            r#"{}"#,
            r#"{"Pair":[1]}"#,
            r#"{"Pair":[1,2,3]}"#,
            "[]",
        ] {
            assert!(both::<Shape>(bad).is_err(), "{bad}");
        }
    }
}
