//! A derived struct decoder reads keys in declaration order with one
//! byte comparison each, and falls back to matching names for any key
//! that is not next in that order. Whatever the path, the decoded
//! value and any error text must be `serde::reference`'s.

use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Cell {
    id: u32,
    inclusive: f64,
    name: String,
    #[serde(default)]
    kind: Option<String>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Row {
    cells: Vec<Cell>,
    seq: u64,
}

/// Both paths decode `text` to the same value, or fail with the same
/// message; returns the one-pass result.
fn agree<T: Deserialize + PartialEq + std::fmt::Debug>(text: &str) -> Result<T, String> {
    let one_pass = serde::from_json::<T>(text).map_err(|e| e.to_string());
    let reference = serde::reference::from_str::<T>(text).map_err(|e| e.to_string());
    assert_eq!(one_pass, reference, "on {text}");
    one_pass
}

fn cell(id: u32, name: &str) -> Cell {
    Cell {
        id,
        inclusive: 2.5,
        name: name.into(),
        kind: None,
    }
}

#[test]
fn keys_in_any_order_decode_alike() {
    let expected = Ok(cell(1, "a"));
    for text in [
        r#"{"id":1,"inclusive":2.5,"name":"a","kind":null}"#,
        r#"{"id":1,"inclusive":2.5,"name":"a"}"#,
        r#"{"name":"a","inclusive":2.5,"id":1}"#,
        r#"{"id":1,"name":"a","inclusive":2.5}"#,
        r#"{"id":1,"zz":[1,{"id":9}],"inclusive":2.5,"name":"a"}"#,
        r#"{"\u0069d":1,"inclusive":2.5,"n\u0061me":"a"}"#,
        r#"{"id":1,"\u0069nclusive":2.5,"name":"a"}"#,
        r#"{"id" :1,"inclusive" : 2.5,"name":"a"}"#,
        "{\n  \"id\": 1,\n  \"inclusive\": 2.5,\n  \"name\": \"a\"\n}",
        r#" { "id":1 , "inclusive":2.5 ,"name":"a" } "#,
    ] {
        assert_eq!(agree::<Cell>(text), expected, "{text}");
    }
}

#[test]
fn the_first_of_duplicate_keys_wins_on_either_path() {
    for text in [
        r#"{"id":1,"id":2,"inclusive":2.5,"name":"a"}"#,
        r#"{"id":1,"inclusive":2.5,"name":"a","id":7}"#,
        r#"{"id":1,"inclusive":2.5,"name":"a","name":"b","kind":null}"#,
        r#"{"inclusive":2.5,"id":1,"id":3,"name":"a"}"#,
        r#"{"id":1,"inclusive":2.5,"name":"a","id":"not a number"}"#,
    ] {
        assert_eq!(agree::<Cell>(text), Ok(cell(1, "a")), "{text}");
    }
}

#[test]
fn errors_read_the_same_on_either_path() {
    for (text, error) in [
        (
            r#"{"id":"x","inclusive":2.5,"name":"a"}"#,
            "expected integer, found string",
        ),
        (
            r#"{"name":"a","inclusive":2.5,"id":-1}"#,
            "integer -1 out of range for u32",
        ),
        (
            r#"{"id":1,"inclusive":"2.5","name":"a"}"#,
            "expected number, found string",
        ),
        (
            r#"{"id":1,"inclusive":2.5}"#,
            "missing field `name` in Cell",
        ),
        (
            r#"{"inclusive":2.5,"name":"a"}"#,
            "missing field `id` in Cell",
        ),
        (
            r#"{"id":1,"inclusive":2.5,"name":7}"#,
            "expected string, found integer",
        ),
        (
            r#"{"id":1.5,"inclusive":2.5,"name":"a"}"#,
            "expected integer, found float",
        ),
        (r#"[1,2.5,"a"]"#, "expected object for Cell"),
        // A high surrogate must be followed by `\u` and a low one.
        (
            r#"{"id":1,"inclusive":2.5,"name":"\ud800x"}"#,
            "expected '\\\\' at byte 38",
        ),
        (
            r#"{"id":1,"inclusive":2.5,"name":"\ud800\n"}"#,
            "expected 'u' at byte 39",
        ),
    ] {
        assert_eq!(agree::<Cell>(text), Err(error.to_string()), "{text}");
    }
}

#[test]
fn nested_structs_take_the_in_order_path_at_every_level() {
    let row = Row {
        cells: vec![cell(1, "a"), cell(2, "b")],
        seq: 9,
    };
    for pretty in [false, true] {
        let text = serde::to_json(&row, pretty);
        assert_eq!(agree::<Row>(&text), Ok(row.clone()));
    }
    let text = r#"{"seq":9,"cells":[{"name":"a","id":1,"inclusive":2.5},{"id":2,"inclusive":2.5,"name":"b"}]}"#;
    assert_eq!(agree::<Row>(text), Ok(row));
}
