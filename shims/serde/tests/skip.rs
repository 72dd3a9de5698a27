//! `Reader::skip_value` builds nothing, yet must accept and reject
//! exactly what decoding to a `serde::Value` does, with the same error
//! text: named edge cases, then seeded random documents and byte-level
//! mutations of them.

use serde::{parse_json, Reader};

/// Decodes the value at the cursor through the reader's decoding calls
/// (every key and string built, every number converted), keeping
/// nothing: what `skip_value` did before it was validate-only.
fn decode(r: &mut Reader<'_>) -> Result<(), serde::Error> {
    if r.begin_array()? {
        while r.next_element()? {
            decode(r)?;
        }
    } else if r.begin_object()? {
        while r.next_key()?.is_some() {
            decode(r)?;
        }
    } else if !(r.null()? || r.number()?.is_some() || r.variant()?.is_some()) {
        // A string is a unit variant's tag; anything else must be a bool.
        r.bool()?;
    }
    Ok(())
}

/// Skipping `text` as one document and decoding it agree: on success,
/// or on the error's text.
fn agree(text: &str) {
    let whole = |step: fn(&mut Reader<'_>) -> Result<(), serde::Error>| {
        let mut r = Reader::new(text);
        step(&mut r)
            .and_then(|()| r.finish())
            .map_err(|e| e.to_string())
    };
    let skipped = whole(|r| r.skip_value());
    assert_eq!(skipped, whole(decode), "on {text:?}");
    let tree = parse_json(text).map(|_| ()).map_err(|e| e.to_string());
    assert_eq!(skipped, tree, "on {text:?}");
}

#[test]
fn named_cases_skip_as_they_decode() {
    let cases = [
        "",
        " ",
        "null",
        "nul",
        "nulll",
        "true",
        "tru",
        "false",
        "fals",
        "x",
        "[",
        "]",
        "[]",
        "[,]",
        "[1,]",
        "[1 2]",
        "[1,,2]",
        "{}",
        "{",
        "}",
        "{\"a\"}",
        "{\"a\":}",
        "{\"a\" 1}",
        "{a:1}",
        "{\"a\":1,}",
        "{\"a\":1 \"b\":2}",
        "{,\"a\":1}",
        "{\"a\":1}}",
        "\"\"",
        "\"",
        "\"abc",
        "\"a\\\"b\"",
        "\"\\\"",
        "\"\\x\"",
        "\"\\u00e9\"",
        "\"\\u00\"",
        "\"\\uzzzz\"",
        "\"\\ud83d\\ude00\"",
        "\"\\ud83d\"",
        "\"\\ud83dx\"",
        "\"\\ud83d\\u0041\"",
        "\"\\udc00\"",
        "\"tab\there\"",
        "\"line\nbreak\"",
        "\"\\/\\b\\f\\n\\r\\t\"",
        "0",
        "-0",
        "-",
        "01",
        "1.",
        "1.5",
        "-.5",
        "1e",
        "1e+",
        "1e-3",
        "1E9",
        "1.2.3",
        "--1",
        "1-2",
        "1e5e5",
        "9223372036854775807",
        "9223372036854775808",
        "18446744073709551616",
        "123456789012345678901234567890",
        "1e400",
        "-1e-400",
        "0.1e",
        "1 2",
        "[1] x",
        "{\"k\": [1, {\"n\": null}]} ",
        " [ true , false ] ",
    ];
    for text in cases {
        agree(text);
    }
    for depth in [127, 128, 129] {
        agree(&("[".repeat(depth) + &"]".repeat(depth)));
        agree(&("{\"k\":".repeat(depth) + "1" + &"}".repeat(depth)));
    }
}

/// A seeded xorshift stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "7",
    "-42",
    "3.25",
    "0.012345678901234568",
    "1e-7",
    "6.02E+23",
    "-1.5e300",
    "18446744073709551615",
    "99999999999999999999",
    "2.2250738585072014e-308",
];
const STRINGS: &[&str] = &[
    "\"\"",
    "\"main => loop\"",
    "\"a\\\"b\"",
    "\"\\\\\"",
    "\"\\u00e9t\\u00e9\"",
    "\"\\ud83d\\ude00\"",
    "\"\\n\\t\\/\"",
    "\"caf\u{e9}\"",
];
const SPACE: &[&str] = &["", "", "", " ", "\n", "\t ", "\r\n"];

/// A random JSON value, nested at most `depth` more levels.
fn value(rng: &mut Rng, depth: usize, out: &mut String) {
    let kind = if depth == 0 {
        rng.below(4)
    } else {
        rng.below(6)
    };
    match kind {
        0 => out.push_str(rng.pick(NUMBERS)),
        1 => out.push_str(rng.pick(STRINGS)),
        2 => out.push_str(rng.pick(&["null", "true", "false"])),
        3 => out.push_str(rng.pick(NUMBERS)),
        4 => {
            out.push('[');
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(rng.pick(SPACE));
                value(rng, depth - 1, out);
                out.push_str(rng.pick(SPACE));
            }
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..rng.below(4) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(rng.pick(SPACE));
                out.push_str(rng.pick(STRINGS));
                out.push_str(rng.pick(SPACE));
                out.push(':');
                value(rng, depth - 1, out);
            }
            out.push('}');
        }
    }
}

/// Bytes a mutation inserts or substitutes: JSON's structure, escapes
/// and number characters.
const NOISE: &[u8] = b"[]{}\",:\\u0123456789.eE+-ntrfalsx \n";

/// `text` with a few random bytes inserted, replaced or deleted, or cut
/// short (kept valid UTF-8: every byte touched is ASCII or a whole
/// character is removed).
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(chars.len() + 1);
        let noise = NOISE[rng.below(NOISE.len())] as char;
        match rng.below(4) {
            0 => chars.insert(at, noise),
            1 if at < chars.len() => chars[at] = noise,
            2 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

#[test]
fn random_documents_and_their_mutations_skip_as_they_decode() {
    let mut rng = Rng(0x5eed_5c1b);
    for _ in 0..20_000 {
        let mut text = String::new();
        text.push_str(rng.pick(SPACE));
        value(&mut rng, 4, &mut text);
        text.push_str(rng.pick(SPACE));
        agree(&text);
        for _ in 0..4 {
            agree(&mutate(&mut rng, &text));
        }
    }
}
