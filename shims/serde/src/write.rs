//! The one-pass encoder: [`crate::Serialize`] impls write JSON text
//! straight into a [`Writer`]'s output string.

use crate::{Serialize, Value};
use std::fmt::Write as _;

/// JSON output under construction, compact or pretty-printed (two-space
/// indent).
///
/// Scalars are written with [`Writer::null`], [`Writer::bool`],
/// [`Writer::int`], [`Writer::uint`], [`Writer::float`] and
/// [`Writer::str`]. A container is written as [`Writer::begin`], then
/// [`Writer::element`] or [`Writer::key`] before each item, then
/// [`Writer::end`].
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
}

impl Writer {
    /// An empty compact (`pretty == false`) or pretty-printed writer.
    pub fn new(pretty: bool) -> Self {
        Writer {
            out: String::new(),
            pretty,
            depth: 0,
        }
    }

    /// The JSON text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes a signed integer.
    pub fn int(&mut self, i: i64) {
        let _ = write!(self.out, "{i}");
    }

    /// Writes an unsigned integer.
    pub fn uint(&mut self, u: u64) {
        let _ = write!(self.out, "{u}");
    }

    /// Writes a float as the shortest text that parses back to the same
    /// bits, always with a decimal point or exponent (`1.0`, not `1`);
    /// a non-finite float is written as `null`.
    pub fn float(&mut self, f: f64) {
        if f.is_finite() {
            let _ = write!(self.out, "{f:?}");
        } else {
            self.null();
        }
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0c => "\\f",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[plain..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(escape);
            }
            plain = i + 1;
        }
        self.out.push_str(&s[plain..]);
        self.out.push('"');
    }

    /// Opens a container with `[` or `{`.
    pub fn begin(&mut self, open: char) {
        self.out.push(open);
        self.depth += 1;
    }

    /// Starts an array element (`first` for the container's first item).
    pub fn element(&mut self, first: bool) {
        if !first {
            self.out.push(',');
        }
        if self.pretty {
            self.newline();
        }
    }

    /// Starts an object member by writing its key.
    pub fn key(&mut self, first: bool, key: &str) {
        self.element(first);
        self.str(key);
        self.colon();
    }

    fn colon(&mut self) {
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
    }

    /// Closes a container with `]` or `}`; `empty` if it had no items.
    pub fn end(&mut self, close: char, empty: bool) {
        self.depth -= 1;
        if self.pretty && !empty {
            self.newline();
        }
        self.out.push(close);
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Writes `items` as an array.
    pub fn seq<'x, T: Serialize + 'x>(&mut self, items: impl IntoIterator<Item = &'x T>) {
        self.begin('[');
        let mut empty = true;
        for item in items {
            self.element(empty);
            item.serialize(self);
            empty = false;
        }
        self.end(']', empty);
    }

    /// Writes `pairs` as an object. JSON keys are strings, so a key must
    /// serialize to a string or an integer (which is quoted), as
    /// `serde_json` enforces at run time.
    pub fn map<'x, K: Serialize + 'x, V: Serialize + 'x>(
        &mut self,
        pairs: impl IntoIterator<Item = (&'x K, &'x V)>,
    ) {
        self.begin('{');
        let mut empty = true;
        for (k, v) in pairs {
            self.element(empty);
            let start = self.out.len();
            k.serialize(self);
            let key = &self.out[start..];
            if !key.starts_with('"') {
                let digits = key.strip_prefix('-').unwrap_or(key);
                if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
                    panic!("map key must serialize to a string or integer, got {key}");
                }
                self.out.insert(start, '"');
                self.out.push('"');
            }
            self.colon();
            v.serialize(self);
            empty = false;
        }
        self.end('}', empty);
    }

    /// Writes an untyped [`Value`].
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Int(i) => self.int(*i),
            Value::UInt(u) => self.uint(*u),
            Value::Float(f) => self.float(*f),
            Value::Str(s) => self.str(s),
            Value::Array(items) => {
                self.begin('[');
                for (i, item) in items.iter().enumerate() {
                    self.element(i == 0);
                    self.value(item);
                }
                self.end(']', items.is_empty());
            }
            Value::Object(pairs) => {
                self.begin('{');
                for (i, (k, item)) in pairs.iter().enumerate() {
                    self.key(i == 0, k);
                    self.value(item);
                }
                self.end('}', pairs.is_empty());
            }
        }
    }
}
