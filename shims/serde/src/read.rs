//! The one-pass decoder: a byte cursor over JSON text that
//! [`crate::Deserialize`] impls pull tokens from directly.

use crate::{Error, Number, MAX_DEPTH};
use std::borrow::Cow;

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
        self.pos = skip_ws(bytes, self.pos);
        bytes.get(self.pos).copied()
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

    /// Reads an `f64`: a number, or `null` (the round trip of a
    /// non-finite float) as NaN.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, Error> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number_token().map(crate::float_from),
            Some(b'n') => self.literal("null").map(|()| f64::NAN),
            _ => Err(self.type_error("number")),
        }
    }

    /// Reads the number token at the cursor. The token is the longest
    /// run of digits, `.`, `e`, `E`, `+` and `-`, as for
    /// [`crate::parse_json`], and it is valid when `str::parse` would
    /// take it: one scan ([`Reader::decimal`]) checks that and yields the
    /// token's significant digits and decimal exponent, from which
    /// [`Decimal::number`] converts all but the rare tokens left to
    /// `str::parse`.
    #[inline]
    fn number_token(&mut self) -> Result<Number, Error> {
        let start = self.pos;
        let bytes = self.bytes();
        let decimal = self.decimal();
        // A token that runs on past the grammar is refused whole.
        let Some(decimal) = decimal.filter(|_| !is_number_byte(bytes.get(self.pos))) else {
            while is_number_byte(bytes.get(self.pos)) {
                self.pos += 1;
            }
            return Err(self.invalid_number(start));
        };
        if let Some(n) = decimal.number() {
            return Ok(n);
        }
        let text = &self.text[start..self.pos];
        if !decimal.float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.invalid_number(start))
    }

    fn invalid_number(&self, start: usize) -> Error {
        Error::custom(format!("invalid number {:?}", &self.text[start..self.pos]))
    }

    /// Scans the number at the cursor (on its `-` or first digit) up to
    /// where `str::parse`'s grammar ends: an optional `-`, digits with
    /// at most one `.` among them (at least one digit), then optionally
    /// `e`/`E`, a sign and at least one digit. `None` if the digits or
    /// the exponent's digits are missing.
    #[inline]
    fn decimal(&mut self) -> Option<Decimal> {
        let bytes = self.bytes();
        let negative = bytes[self.pos] == b'-';
        let mut pos = self.pos + negative as usize;
        let zeros = |pos: &mut usize| {
            let from = *pos;
            while bytes.get(*pos) == Some(&b'0') {
                *pos += 1;
            }
            *pos - from
        };
        // Wraps past 19 digits; such tokens go to `str::parse`.
        let mut mantissa: u64 = 0;
        let mut digits = |pos: &mut usize| {
            let from = *pos;
            while let Some(&b @ b'0'..=b'9') = bytes.get(*pos) {
                mantissa = mantissa.wrapping_mul(10).wrapping_add((b - b'0') as u64);
                *pos += 1;
            }
            *pos - from
        };
        // Zeros ahead of the first significant digit scale the value
        // but do not count toward the 19 digits a `u64` holds.
        let int_zeros = zeros(&mut pos);
        let mut significant = digits(&mut pos);
        let mut seen = int_zeros + significant;
        let mut q: i64 = 0;
        let mut float = false;
        if bytes.get(pos) == Some(&b'.') {
            float = true;
            pos += 1;
            let frac_zeros = if significant == 0 { zeros(&mut pos) } else { 0 };
            let frac = frac_zeros + digits(&mut pos);
            significant += frac - frac_zeros;
            seen += frac;
            q = -(frac as i64);
        }
        if seen == 0 {
            self.pos = pos;
            return None;
        }
        if let Some(b'e' | b'E') = bytes.get(pos) {
            float = true;
            pos += 1;
            let exp_negative = bytes.get(pos) == Some(&b'-');
            if let Some(b'+' | b'-') = bytes.get(pos) {
                pos += 1;
            }
            let from = pos;
            let mut exp: i64 = 0;
            while let Some(&b @ b'0'..=b'9') = bytes.get(pos) {
                // Saturates, as `str::parse` does, far outside POW5.
                if exp < 0x10000 {
                    exp = exp * 10 + (b - b'0') as i64;
                }
                pos += 1;
            }
            if pos == from {
                self.pos = pos;
                return None;
            }
            q += if exp_negative { -exp } else { exp };
        }
        self.pos = pos;
        Some(Decimal {
            negative,
            mantissa,
            significant,
            q,
            float,
        })
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

    /// Consumes the next key of the current object, with its `:`, if
    /// they are exactly `member` (such as `"id":`: the key's plain
    /// quoted text, no escapes, no space before the colon), and leaves
    /// the cursor on its value. Otherwise it consumes nothing but
    /// whitespace, and [`Reader::next_key`] reads whatever is there. A
    /// decoder that knows the order keys are usually written in tries
    /// this first.
    #[inline]
    pub fn next_key_is(&mut self, member: &str) -> bool {
        let bytes = self.bytes();
        let at = match self.peek() {
            Some(b'"') if self.first => self.pos,
            Some(b',') if !self.first => skip_ws(bytes, self.pos + 1),
            _ => return false,
        };
        if !bytes[at..].starts_with(member.as_bytes()) {
            return false;
        }
        self.pos = at + member.len();
        self.first = false;
        true
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

/// The index of the first byte at or after `from` that is not JSON
/// whitespace (or the input's end).
#[inline]
fn skip_ws(bytes: &[u8], mut from: usize) -> usize {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(from) {
        from += 1;
    }
    from
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

/// Whether `b` continues a number token.
#[inline]
fn is_number_byte(b: Option<&u8>) -> bool {
    matches!(b, Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
}

/// A scanned number token: `±mantissa × 10^q`.
#[derive(Debug, PartialEq)]
struct Decimal {
    negative: bool,
    /// The digits from the first nonzero one on, as an integer: exact
    /// when `significant` is at most 19.
    mantissa: u64,
    /// How many digits `mantissa` stands for (leading zeros, before or
    /// after the `.`, are not counted).
    significant: usize,
    /// The decimal exponent of `mantissa`'s last digit.
    q: i64,
    /// The token has a `.` or an exponent, so it is a float even when
    /// its value is integral.
    float: bool,
}

impl Decimal {
    /// The token's value, or `None` when only `str::parse` can give it:
    /// more than 19 significant digits, or a float outside the fast
    /// paths of [`to_f64`].
    #[inline]
    fn number(&self) -> Option<Number> {
        if self.significant > 19 {
            return None;
        }
        let m = self.mantissa;
        if !self.float {
            // An integer outside both `i64` and `u64` is a float.
            if !self.negative {
                return Some(i64::try_from(m).map_or(Number::UInt(m), Number::Int));
            }
            if m <= i64::MAX as u64 + 1 {
                return Some(Number::Int((m as i64).wrapping_neg()));
            }
        }
        let f = to_f64(m, self.q)?;
        Some(Number::Float(if self.negative { -f } else { f }))
    }
}

/// The powers of ten that are exact in an `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// `w × 10^q` correctly rounded, if a fast path gives it: Clinger's when
/// both `w` and `10^|q|` are exact in an `f64`, else Eisel–Lemire's
/// inside its table.
#[inline]
fn to_f64(w: u64, q: i64) -> Option<f64> {
    if w == 0 {
        return Some(0.0);
    }
    if w <= 1 << 53 && (-22..=22).contains(&q) {
        // Clinger: both operands are exact, so the one rounding of the
        // product or quotient is the correct rounding.
        let w = w as f64;
        let p = POW10[q.unsigned_abs() as usize];
        return Some(if q < 0 { w / p } else { w * p });
    }
    eisel_lemire(w, q)
}

/// The decimal exponents [`POW5`] covers. Below −27, `5^-q` no longer
/// fits 64 bits (its reciprocal needs wider arithmetic to tabulate);
/// above 55, `5^q` no longer fits 128 bits, so its entry is truncated.
/// Within this range every `w × 10^q` (`w` < 2^64) is a normal,
/// finite `f64`, and the algorithm's one inconclusive case (the
/// product's low word all ones) cannot mislead it: this is the range
/// in which `str::parse`'s own Eisel–Lemire never gives up, so it
/// needs no fallback here.
const POW5_MIN_Q: i64 = -27;
const POW5_MAX_Q: i64 = 55;

/// `5^q` for each `q` in `POW5_MIN_Q..=POW5_MAX_Q`, scaled by a power
/// of two into `[2^127, 2^128)`: exact for `q ≥ 0`, and for `q < 0`
/// the scaled reciprocal `⌊2^b / 5^-q⌋ + 1`, as Eisel–Lemire's table
/// holds it.
static POW5: [u128; (POW5_MAX_Q - POW5_MIN_Q + 1) as usize] = pow5_table();

const fn pow5_table() -> [u128; (POW5_MAX_Q - POW5_MIN_Q + 1) as usize] {
    let mut table = [0; (POW5_MAX_Q - POW5_MIN_Q + 1) as usize];
    let mut i = 0;
    while i < table.len() {
        let q = POW5_MIN_Q + i as i64;
        let p = 5u128.pow(q.unsigned_abs() as u32);
        table[i] = if q >= 0 {
            p << p.leading_zeros()
        } else {
            // Long division of 2^b by p (< 2^64), b = bits(p) + 127.
            let (mut rem, mut quo) = (1u128, 0u128);
            let mut bit = 0;
            while bit < 128 - p.leading_zeros() + 127 {
                rem <<= 1;
                quo <<= 1;
                if rem >= p {
                    rem -= p;
                    quo |= 1;
                }
                bit += 1;
            }
            quo + 1
        };
        i += 1;
    }
    table
}

/// Eisel–Lemire (D. Lemire, "Number Parsing at a Gigabyte per Second",
/// 2021): `w × 10^q` correctly rounded, from the high bits of `w`
/// times the 128-bit `5^q`. `None` outside [`POW5`].
fn eisel_lemire(w: u64, q: i64) -> Option<f64> {
    let pow5 = *POW5.get(usize::try_from(q - POW5_MIN_Q).ok()?)?;
    let lz = w.leading_zeros();
    let w = (w << lz) as u128;
    // The bits below the 52 stored ones, the hidden bit, a rounding bit
    // and the product's possible leading zero.
    const BELOW: u64 = u64::MAX >> 55;
    let mut product = w * (pow5 >> 64);
    if (product >> 64) as u64 & BELOW == BELOW {
        // Those bits may carry: add in `w` times the power's low half.
        product += (w * (pow5 as u64 as u128)) >> 64;
    }
    let (hi, lo) = ((product >> 64) as u64, product as u64);
    let upper = (hi >> 63) as u32;
    let shift = upper + 9;
    let mut m = hi >> shift;
    // ⌊q × log2(10)⌋ + 63, plus the normalization, biased by 1023.
    let mut e = ((q as i32 * (152_170 + 65_536)) >> 16) + 63 + upper as i32 - lz as i32 + 1023;
    // Exactly halfway between two floats (only possible where 5^q is
    // exact in the product): round to even, not up.
    if lo <= 1 && (-4..=23).contains(&q) && m & 3 == 1 && m << shift == hi {
        m &= !1;
    }
    m = (m + (m & 1)) >> 1;
    if m == 2 << 52 {
        // Rounding carried into a new bit.
        m = 1 << 52;
        e += 1;
    }
    debug_assert!(
        0 < e && e < 0x7ff,
        "inside POW5, a value is normal and finite"
    );
    Some(f64::from_bits((e as u64) << 52 | (m & !(1 << 52))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(token: &str) -> Option<Decimal> {
        Reader::new(token).decimal()
    }

    #[test]
    fn the_scan_counts_significant_digits_not_leading_zeros() {
        let d = scan("0.00012345678901234567").unwrap();
        assert_eq!(
            (d.mantissa, d.significant, d.q),
            (12345678901234567, 17, -20)
        );
        let d = scan("-007").unwrap();
        assert_eq!((d.mantissa, d.significant, d.q), (7, 1, 0));
        assert!(d.negative && !d.float);
        let d = scan("120.50e+3").unwrap();
        assert_eq!((d.mantissa, d.significant, d.q), (12050, 5, 1));
        assert!(d.float);
        let d = scan("0.0").unwrap();
        assert_eq!((d.mantissa, d.significant), (0, 0));
        assert_eq!(scan("-"), None);
        assert_eq!(scan("1e+"), None);
    }

    #[test]
    fn the_power_table_holds_eisel_lemire_entries() {
        let at = |q: i64| POW5[(q - POW5_MIN_Q) as usize];
        assert_eq!(at(0), 1 << 127);
        assert_eq!(at(1), 5 << 125);
        assert_eq!(at(-1), 0xcccc_cccc_cccc_cccc_cccc_cccc_cccc_cccd);
        assert_eq!(at(-27), 0x9e74_d1b7_91e0_7e48_775e_a264_cf55_347e);
        assert_eq!(at(55), 0xd0cf_4b50_cfe2_0765_fff4_b4e3_f741_cf6d);
        assert_eq!(POW5.len() as i64, POW5_MAX_Q - POW5_MIN_Q + 1);
    }

    #[test]
    fn exact_halfway_cases_round_to_even() {
        // 2^53 + 1 and 2^53 + 3 lie halfway between two doubles.
        assert_eq!(eisel_lemire(9007199254740993, 0), Some(9007199254740992.0));
        assert_eq!(eisel_lemire(9007199254740995, 0), Some(9007199254740996.0));
        assert_eq!(
            eisel_lemire(90071992547409930, -1),
            Some(9007199254740992.0)
        );
        assert_eq!(eisel_lemire(1, POW5_MIN_Q - 1), None);
        assert_eq!(eisel_lemire(1, POW5_MAX_Q + 1), None);
    }
}
