//! The one-pass decoder: a byte cursor over JSON text that
//! [`crate::Deserialize`] impls pull tokens from directly.

use crate::{Error, Number, MAX_DEPTH};
use std::borrow::Cow;

/// The powers of ten that are exact in an `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// A saved [`Reader`] position.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pos: usize,
    depth: usize,
}

/// A validating cursor over one JSON document.
///
/// Every byte a decode consumes is checked against the JSON grammar as
/// it goes, and [`Reader::skip_value`] validates what a decode skips, so
/// a document decodes only if all of it is JSON. Containers are entered
/// with [`Reader::begin_array`]/[`Reader::begin_object`] and walked
/// with [`Reader::next_element`]/[`Reader::next_key`]; nesting deeper
/// than [`MAX_DEPTH`] is an error, never a stack overflow.
#[derive(Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// The cursor has just entered a container: no `,` is due before
    /// the next element or key.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn err(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    /// Skips whitespace and returns the next byte, if any.
    #[inline]
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// Requires that only whitespace is left.
    pub fn finish(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(Error::custom(format!(
                "trailing characters at byte {}",
                self.pos
            ))),
        }
    }

    /// The error for a value of the wrong kind where `expected` was due
    /// (or the syntax error at the cursor, if there is no value there).
    pub fn type_error(&mut self, expected: &str) -> Error {
        let found = match self.peek() {
            Some(b'n') => "null",
            Some(b't' | b'f') => "bool",
            Some(b'"') => "string",
            Some(b'[') => "array",
            Some(b'{') => "object",
            Some(b'-' | b'0'..=b'9') => match self.clone().number_token() {
                Ok(Number::Float(_)) => "float",
                Ok(_) => "integer",
                Err(e) => return e,
            },
            Some(c) => return self.unexpected(c),
            None => return Error::custom("unexpected end of input"),
        };
        Error::custom(format!("expected {expected}, found {found}"))
    }

    fn unexpected(&self, c: u8) -> Error {
        Error::custom(format!(
            "unexpected character {:?} at byte {}",
            c as char, self.pos
        ))
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Consumes a `null`, if one is next.
    #[inline]
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.literal("null")?;
        Ok(true)
    }

    /// Reads a boolean.
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.type_error("bool")),
        }
    }

    /// Reads a number, if one is next, classified as
    /// [`crate::parse_json`] classifies it.
    #[inline]
    pub fn number(&mut self) -> Result<Option<Number>, Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Ok(None);
        }
        self.number_token().map(Some)
    }

    /// Reads the number token at the cursor. The token is the longest
    /// run of digits, `.`, `e`, `E`, `+` and `-`, as for
    /// [`crate::parse_json`]. Plain integers and exponent-free decimals
    /// are converted as they are scanned; the rest go to `str::parse`.
    #[inline]
    fn number_token(&mut self) -> Result<Number, Error> {
        let bytes = self.bytes();
        let start = self.pos;
        let negative = bytes[start] == b'-';
        let int_start = start + negative as usize;
        let mut pos = int_start;
        // Wraps past 19 digits; such tokens are re-read below.
        let mut mantissa: u64 = 0;
        let mut digits = |pos: &mut usize| {
            let from = *pos;
            while let Some(&b @ b'0'..=b'9') = bytes.get(*pos) {
                mantissa = mantissa.wrapping_mul(10).wrapping_add((b - b'0') as u64);
                *pos += 1;
            }
            *pos - from
        };
        let int_digits = digits(&mut pos);
        let mut frac_digits = None;
        if bytes.get(pos) == Some(&b'.') {
            pos += 1;
            frac_digits = Some(digits(&mut pos));
        }
        self.pos = pos;
        if matches!(bytes.get(pos), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
            while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(self.pos) {
                self.pos += 1;
            }
            return self.parse_float(start);
        }
        let total = int_digits + frac_digits.unwrap_or(0);
        match frac_digits {
            _ if int_digits == 0 || total > 19 => {}
            None if !negative && mantissa <= i64::MAX as u64 => {
                return Ok(Number::Int(mantissa as i64));
            }
            None if !negative => return Ok(Number::UInt(mantissa)),
            None if mantissa <= i64::MAX as u64 + 1 => {
                return Ok(Number::Int((mantissa as i64).wrapping_neg()));
            }
            // Clinger's fast path: both operands are exact, so the one
            // rounding of the division is the correct rounding.
            Some(frac @ 1..=22) if mantissa <= 1 << 53 => {
                let f = mantissa as f64 / POW10[frac];
                return Ok(Number::Float(if negative { -f } else { f }));
            }
            _ => {}
        }
        if frac_digits.is_none() {
            let text = &self.text[start..self.pos];
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::UInt(u));
            }
        }
        self.parse_float(start)
    }

    fn parse_float(&self, start: usize) -> Result<Number, Error> {
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| Error::custom(format!("invalid number {text:?}")))
    }

    /// Reads a string, borrowed from the input when it has no escapes.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.type_error("string"));
        }
        self.string()
    }

    /// Reads the string token at the cursor (which is on its `"`).
    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        let bytes = self.bytes();
        let start = self.pos + 1;
        self.pos = plain_run(bytes, start);
        match bytes.get(self.pos) {
            Some(b'"') => {
                self.pos += 1;
                Ok(Cow::Borrowed(&self.text[start..self.pos - 1]))
            }
            Some(b'\\') => {
                let mut out = String::from(&self.text[start..self.pos]);
                self.escaped(&mut out)?;
                Ok(Cow::Owned(out))
            }
            _ => Err(Error::custom("unterminated string")),
        }
    }

    /// Finishes a string whose plain prefix is in `out`; the cursor is
    /// on the first backslash.
    fn escaped(&mut self, out: &mut String) -> Result<(), Error> {
        let bytes = self.bytes();
        loop {
            let start = self.pos;
            self.pos = plain_run(bytes, start);
            out.push_str(&self.text[start..self.pos]);
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    let esc = *bytes
                        .get(self.pos + 1)
                        .ok_or_else(|| Error::custom("unterminated escape"))?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(Error::custom(format!(
                                "invalid escape character {:?}",
                                other as char
                            )))
                        }
                    }
                }
                _ => return Err(Error::custom("unterminated string")),
            }
        }
    }

    /// Decodes the `XXXX` (and, for a high surrogate, the `\uXXXX` low
    /// surrogate that must follow) of a `\u` escape.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let cp = self.hex4()?;
        let cp = if (0xD800..0xDC00).contains(&cp) {
            if self.bytes().get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(Error::custom("unpaired surrogate in \\u escape"));
            }
            self.pos += 2;
            crate::surrogate_pair(cp, self.hex4()?)?
        } else {
            cp
        };
        char::from_u32(cp).ok_or_else(|| Error::custom("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let cp = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .and_then(crate::hex4)
            .ok_or_else(|| Error::custom("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    #[inline]
    fn open(&mut self, bracket: u8) -> Result<bool, Error> {
        if self.peek() != Some(bracket) {
            return Ok(false);
        }
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        Ok(true)
    }

    /// Whether the container ends here (consuming its closer) or another
    /// item follows (consuming the `,` before it).
    #[inline]
    fn more(&mut self, close: u8, expected: &str) -> Result<bool, Error> {
        let next = self.peek();
        if next == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.first = false;
            return Ok(false);
        }
        if std::mem::take(&mut self.first) {
            return Ok(true);
        }
        if next == Some(b',') {
            self.pos += 1;
            return Ok(true);
        }
        Err(self.err(expected))
    }

    /// Enters an array, if one is next.
    #[inline]
    pub fn begin_array(&mut self) -> Result<bool, Error> {
        self.open(b'[')
    }

    /// Whether the current array has another element, which the caller
    /// then decodes; `false` consumes the closing `]`.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.more(b']', "expected ',' or ']'")
    }

    /// Enters an object, if one is next.
    #[inline]
    pub fn begin_object(&mut self) -> Result<bool, Error> {
        self.open(b'{')
    }

    /// The next key of the current object, with the cursor left on its
    /// value; `None` consumes the closing `}`.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        Ok(self.next_key_raw()?.map(|(key, _)| key))
    }

    /// [`Reader::next_key`], also returning the key's quoted source
    /// text (a JSON string on its own).
    #[inline]
    pub fn next_key_raw(&mut self) -> Result<Option<(Cow<'a, str>, &'a str)>, Error> {
        if !self.more(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        let start = self.pos;
        let key = self.string()?;
        let raw = &self.text[start..self.pos];
        if self.peek() != Some(b':') {
            return Err(self.err("expected ':'"));
        }
        self.pos += 1;
        Ok(Some((key, raw)))
    }

    /// Reads an externally tagged enum's tag: a string names a unit
    /// variant (`false`); a `{tag: payload}` object names a payload
    /// variant (`true`), with the cursor left on the payload and the
    /// object still open. `None` if the value is neither.
    pub fn variant(&mut self) -> Result<Option<(Cow<'a, str>, bool)>, Error> {
        if self.peek() == Some(b'"') {
            return Ok(Some((self.string()?, false)));
        }
        if self.begin_object()? {
            return Ok(self.next_key()?.map(|tag| (tag, true)));
        }
        Ok(None)
    }

    /// Validates and steps over one value.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Some(b'"') => {
                self.string()?;
            }
            Some(b'-' | b'0'..=b'9') => {
                self.number_token()?;
            }
            Some(b'n') => self.literal("null")?,
            Some(b't') => self.literal("true")?,
            Some(b'f') => self.literal("false")?,
            Some(c) => return Err(self.unexpected(c)),
            None => return Err(Error::custom("unexpected end of input")),
        }
        Ok(())
    }

    /// The cursor's position, to return to with [`Reader::rewind`].
    pub fn mark(&self) -> Mark {
        Mark {
            pos: self.pos,
            depth: self.depth,
        }
    }

    /// Returns to a [`Reader::mark`] taken before a value, so that the
    /// value can be read again (typically skipped after a failed decode).
    pub fn rewind(&mut self, mark: Mark) {
        self.pos = mark.pos;
        self.depth = mark.depth;
        self.first = false;
    }
}

/// The end of the run of string bytes from `from` that need no
/// decoding: the index of the first `"`, `\\` or control byte (or the
/// input's end). Eight bytes are tested at a time.
#[inline]
fn plain_run(bytes: &[u8], from: usize) -> usize {
    const LO: u64 = u64::from_ne_bytes([0x01; 8]);
    const HI: u64 = u64::from_ne_bytes([0x80; 8]);
    // High bit set in each byte of `w` that is zero (exact up to the
    // first such byte, which is all that is read).
    let zero = |w: u64| w.wrapping_sub(LO) & !w & HI;
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(chunk.try_into().unwrap_or([0; 8]));
        let hits = zero(w ^ (LO * b'"' as u64))
            | zero(w ^ (LO * b'\\' as u64))
            | (w.wrapping_sub(LO * 0x20) & !w & HI);
        if hits != 0 {
            return i + (hits.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while let Some(&b) = bytes.get(i) {
        if b == b'"' || b == b'\\' || b < 0x20 {
            break;
        }
        i += 1;
    }
    i
}
