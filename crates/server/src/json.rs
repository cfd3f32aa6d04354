//! Minimal hand-rolled JSON value module: parse and serialize, no
//! dependencies.
//!
//! The workspace builds offline with no serde, so the HTTP request layer
//! carries its own JSON support, held to the same hardening discipline as
//! the `p3gm-store` decoder: **parsing never panics on untrusted input**
//! — every malformed document is a typed [`JsonError`] with the byte
//! offset of the problem. The parser is strict JSON (RFC 8259) plus two
//! deliberate extra rejections that keep request handling deterministic
//! and unambiguous: duplicate object keys are errors, and numbers that
//! overflow `f64` (e.g. `1e999`) are errors instead of silently becoming
//! infinity.
//!
//! Serialization ([`Json`]'s `Display`) is compact and deterministic:
//! object members print in insertion order, numbers print through the
//! crate's Ryū writer (byte-identical to std's `f64` `Display`, and the
//! one sample bodies print through too), and there is no whitespace — the
//! same value always serializes to the same bytes, which is what lets the
//! server promise byte-identical response bodies for identical requests.

use std::fmt;
use std::fmt::Write as _;
use std::io::Write as _;

mod pow5;

/// Maximum nesting depth the parser accepts. Deep enough for any real
/// request body, shallow enough that recursion cannot exhaust the stack
/// on crafted input.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Objects preserve insertion order (members are a `Vec`, not a map) so
/// serialization is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Always finite: the parser rejects overflowing literals
    /// and the serializer prints non-finite values as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order, with unique keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object value. Returns `None` for missing keys
    /// and for non-object values.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer number that
    /// `f64` represents exactly (at most 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if v.fract() == 0.0 && *v >= 0.0 && *v <= 9_007_199_254_740_992.0 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as a slice of elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// The object members, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members.as_slice()),
            _ => None,
        }
    }
}

/// A typed JSON parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the problem was detected.
    pub pos: usize,
    /// Description of the problem.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.pos)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document. The entire input must be a single value
/// surrounded by nothing but whitespace; anything else is a typed
/// [`JsonError`] — never a panic.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_literal(&mut self, literal: &'static [u8], value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(literal) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.expect_literal(b"null", Json::Null),
            Some(b't') => self.expect_literal(b"true", Json::Bool(true)),
            Some(b'f') => self.expect_literal(b"false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '{'
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string object key"));
            }
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // consume opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue; // unicode_escape consumed its digits
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("unescaped control character")),
                Some(_) => {
                    // Copy one full UTF-8 scalar (the input is a &str, so
                    // multi-byte sequences are guaranteed well-formed).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    match s.chars().next() {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return Err(self.err("unterminated string")),
                    }
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (the `u` itself already
    /// consumed), handling UTF-16 surrogate pairs. Leaves `pos` after the
    /// last consumed digit.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..0xE000).contains(&second) {
                    let c = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            Err(self.err("unpaired surrogate in \\u escape"))
        } else if (0xDC00..0xE000).contains(&first) {
            Err(self.err("unpaired surrogate in \\u escape"))
        } else {
            char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one `0`, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let v: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !v.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Json::Num(v))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::Num(v) if v.is_finite() => Decimal::new(*v).fmt(f),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    value.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

/// Appends `v` as a JSON number: [`write_f64`]'s bytes, or `null` when
/// `v` is not finite (JSON has no NaN or infinity).
pub(crate) fn write_number(out: &mut Vec<u8>, v: f64) {
    if v.is_finite() {
        write_f64(out, v);
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Appends exactly the bytes std's `Display` (`{v}`) prints for `v`,
/// straight into `out`. A finite value prints Ryū's shortest digits that
/// read back as `v` (Adams, "Ryū: Fast Float-to-String Conversion", PLDI
/// 2018), laid out as `Display` lays them out: never an exponent, no
/// fraction on an integer (`1.0` prints `1`), a sign on negative zero
/// (`-0`), and at most [`MAX_TEXT`] bytes. Non-finite values print
/// through std itself.
pub(crate) fn write_f64(out: &mut Vec<u8>, v: f64) {
    if !v.is_finite() {
        let _ = write!(out, "{v}");
        return;
    }
    let decimal = Decimal::new(v);
    let start = out.len();
    out.resize(start + decimal.text_len(), b'0');
    decimal.write(&mut out[start..]);
}

/// The longest `Display` text of a finite `f64`: `-5e-324`, printed as
/// `-0.`, 323 zeros and `5`.
const MAX_TEXT: usize = 327;

/// A finite `f64` as `Display` prints it: `±digits · 10^exp10`, with
/// `digits` Ryū's shortest (`len` of them; `0` for a zero).
struct Decimal {
    negative: bool,
    digits: u64,
    len: usize,
    exp10: i32,
}

impl Decimal {
    fn new(v: f64) -> Decimal {
        let bits = v.to_bits();
        let mantissa = bits & ((1 << 52) - 1);
        let exponent = (bits >> 52) as u32 & 0x7ff;
        let (digits, exp10) = if mantissa == 0 && exponent == 0 {
            (0, 0)
        } else if let Some(int) = small_int(mantissa, exponent) {
            (int, 0)
        } else {
            shortest(mantissa, exponent)
        };
        Decimal {
            negative: bits >> 63 == 1,
            digits,
            len: digits.checked_ilog10().map_or(1, |log| log as usize + 1),
            exp10,
        }
    }

    /// How many of the digits precede the decimal point; at most zero
    /// means the text starts `0.` and `-point` zeros.
    fn point(&self) -> i32 {
        self.len as i32 + self.exp10
    }

    /// The length of the text in bytes.
    fn text_len(&self) -> usize {
        let sign = usize::from(self.negative);
        let point = self.point();
        if point <= 0 {
            sign + 2 + point.unsigned_abs() as usize + self.len
        } else if self.exp10 >= 0 {
            sign + point as usize
        } else {
            sign + self.len + 1
        }
    }

    /// Writes the text into `text`: [`Decimal::text_len`] bytes that are
    /// all `'0'` on entry, so the zeros that pad the digits are in place.
    fn write(&self, text: &mut [u8]) {
        let start = usize::from(self.negative);
        if self.negative {
            text[0] = b'-';
        }
        let point = self.point();
        if point <= 0 {
            text[start + 1] = b'.';
            let end = text.len();
            write_digits(&mut text[end - self.len..], self.digits);
        } else if self.exp10 >= 0 {
            write_digits(&mut text[start..start + self.len], self.digits);
        } else {
            // The digits one place right, then the integer part moved back
            // over the point's place.
            let point = point as usize;
            write_digits(&mut text[start + 1..], self.digits);
            text.copy_within(start + 1..start + 1 + point, start);
            text[start + point] = b'.';
        }
    }
}

impl fmt::Display for Decimal {
    /// Through a fixed buffer, for the [`Json`] serializer.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [b'0'; MAX_TEXT];
        let text = buf.get_mut(..self.text_len()).ok_or(fmt::Error)?;
        self.write(text);
        f.write_str(std::str::from_utf8(text).map_err(|_| fmt::Error)?)
    }
}

/// The value of the double with these bit fields if it is an integer in
/// `[1, 2^53)`, whose digits are then its shortest form (Ryū's
/// `d2d_small_int`). About half the values the benchmark's models serve
/// are exactly `1.0`.
fn small_int(mantissa: u64, exponent: u32) -> Option<u64> {
    let shift = 1075_u32.checked_sub(exponent).filter(|&s| s <= 52)?;
    let m2 = mantissa | 1 << 52;
    (m2 & ((1 << shift) - 1) == 0).then_some(m2 >> shift)
}

/// Ryū's shortest decimal `(digits, exp10)` for the positive, nonzero,
/// finite double with these bit fields: the fewest digits whose
/// `digits · 10^exp10` reads back as the double, and of those the nearest.
/// Where two are equally near, this rounds up as std does; Ryū's
/// round-half-even step, and the trailing-zero tracking of `vr` that only
/// that step reads, are left out.
fn shortest(mantissa: u64, exponent: u32) -> (u64, i32) {
    // The double is mv · 2^e2; the reals that read back as it lie between
    // mm · 2^e2 and mp · 2^e2, both ends included when m2 is even (reading
    // rounds a tie to the even mantissa).
    let (m2, e2) = if exponent == 0 {
        (mantissa, 1 - 1077)
    } else {
        (mantissa | 1 << 52, exponent as i32 - 1077)
    };
    let even = m2.is_multiple_of(2);
    let mv = 4 * m2;
    let mp = mv + 2;
    // The gap below a power of two is half the gap above it.
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);
    let mm = mv - 1 - mm_shift;

    // vr, vp, vm: the three scaled by 10^-e10 and truncated. `vm_exact`
    // marks a vm that lost no nonzero digit and so is itself a candidate.
    let mut vm_exact = false;
    let (e10, [mut vr, mut vp, mut vm]);
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        let mul = pow5::POW5_INV_SPLIT[q as usize];
        let j = q - e2 + pow5_bits(q) + 124;
        e10 = q;
        [vr, vp, vm] = [mv, mp, mm].map(|m| mul_shift(m, mul, j));
        // Dividing by 10^q is exact for an end when 5^q divides it: an
        // included lower end is then a candidate, an excluded upper end
        // is not. At most one of mv, mp and mm is a multiple of 5, so
        // when mv is, neither end is exact.
        if q <= 21 && !mv.is_multiple_of(5) {
            if even {
                vm_exact = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(e2 < -1);
        let i = -e2 - q;
        let mul = pow5::POW5_SPLIT[i as usize];
        let j = q - pow5_bits(i) + 125;
        e10 = q + e2;
        [vr, vp, vm] = [mv, mp, mm].map(|m| mul_shift(m, mul, j));
        // With q <= 1 an end counts as exact when it is even: mp always
        // is, mm when the gap below is the full one.
        if q <= 1 {
            if even {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate; the
    // last digit dropped from vr says whether to round it up.
    let mut removed = 0;
    let mut last = 0;
    while vp / 10 > vm / 10 {
        vm_exact &= vm.is_multiple_of(10);
        last = vr % 10;
        [vr, vp, vm] = [vr / 10, vp / 10, vm / 10];
        removed += 1;
    }
    if vm_exact {
        // An exact lower end may be shorter still without its zeros.
        while vm.is_multiple_of(10) {
            last = vr % 10;
            [vr, vp, vm] = [vr / 10, vp / 10, vm / 10];
            removed += 1;
        }
    }
    // vr itself is out of range when it is an excluded lower end.
    let round_up = (vr == vm && !vm_exact) || last >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

/// `⌊m · mul / 2^j⌋` for a 55-bit `m` and a table entry of at most 126
/// bits, `64 <= j < 192` (Ryū's `mulShift64`).
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul & u128::from(u64::MAX));
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Whether `5^p` divides `value`.
fn multiple_of_pow5(mut value: u64, p: i32) -> bool {
    for _ in 0..p {
        if !value.is_multiple_of(5) {
            return false;
        }
        value /= 5;
    }
    true
}

/// The bit length of `5^e`, for `0 <= e <= 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋`, for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// `⌊log10 5^e⌋`, for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

/// `"00"` through `"99"`, two bytes each.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Writes the decimal digits of `v` into `digits`, which is exactly as
/// long as `v` has digits, two at a time from the right.
fn write_digits(digits: &mut [u8], v: u64) {
    let mut end = digits.len();
    let mut rest = v;
    if end > 8 {
        // Cut off the low eight digits: the rest fits 32-bit arithmetic,
        // and the pairs of the eight do not wait on one another.
        let low = (rest % 100_000_000) as u32;
        rest /= 100_000_000;
        for (k, div) in [1, 100, 10_000, 1_000_000].into_iter().enumerate() {
            let pair = (low / div % 100) as usize * 2;
            digits[end - 2 * k - 2..end - 2 * k].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        end -= 8;
    }
    let mut rest = rest as u32;
    while end >= 2 {
        let pair = (rest % 100) as usize * 2;
        rest /= 100;
        digits[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        end -= 2;
    }
    if end == 1 {
        digits[0] = b'0' + rest as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-0.5e2").unwrap(), Json::Num(-50.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"seed": 7, "n": 3, "labels": [2, 1], "format": "csv"}"#).unwrap();
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("format").and_then(Json::as_str), Some("csv"));
        assert_eq!(
            v.get("labels").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\ndA\u{e9}\u{1F600}");
        // Serialize then reparse: identical value.
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn serialization_is_deterministic_and_compact() {
        let v = Json::Obj(vec![
            ("b".into(), Json::Num(1.5)),
            ("a".into(), Json::Arr(vec![Json::Null, Json::Bool(false)])),
        ]);
        assert_eq!(v.to_string(), r#"{"b":1.5,"a":[null,false]}"#);
        // Insertion order is preserved, so the same construction always
        // yields the same bytes.
        assert_eq!(v.to_string(), v.to_string());
    }

    #[test]
    fn numbers_round_trip_bit_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e-308, 123_456_789.123_456, -2.5e17] {
            let text = Json::Num(v).to_string();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn as_u64_requires_exact_nonnegative_integers() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in [
            "",
            "  ",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a: 1}",
            "tru",
            "nul",
            "01",
            "1.",
            "1e",
            "+1",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"ctrl \u{0001}\"",
            "\"\\ud800\"",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "1e999",
            "--1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep_ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&too_deep).is_err());
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn error_display_mentions_position() {
        let e = parse("[1, oops]").unwrap_err();
        assert!(e.to_string().contains("byte"));
        assert!(e.pos > 0);
    }

    /// What [`write_f64`] appends for `v`.
    fn ryu(v: f64) -> String {
        let mut out = Vec::new();
        write_f64(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    /// The writer against its oracle, std `Display`, on `v` and `-v`,
    /// appended to a chunk and through the `Json` serializer.
    fn check(v: f64) {
        for v in [v, -v] {
            let want = format!("{v}");
            assert_eq!(ryu(v), want, "bits {:#018x}", v.to_bits());
            if v.is_finite() {
                assert_eq!(Json::Num(v).to_string(), want, "bits {:#018x}", v.to_bits());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(65_536))]

        #[test]
        fn writer_matches_std_display_on_arbitrary_bits(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            prop_assert_eq!(ryu(v), format!("{v}"), "bits {:#018x}", bits);
        }
    }

    #[test]
    fn writer_matches_std_display_across_every_binade() {
        // Every power of two from 2^-1074 to 2^1023 with both neighbours:
        // every exponent, subnormal and normal, and the half-size gap
        // below a power of two.
        let powers = (0..52)
            .map(|k| 1u64 << k)
            .chain((1..2047u64).map(|e| e << 52));
        for bits in powers {
            for bits in [bits - 1, bits, bits + 1] {
                check(f64::from_bits(bits));
            }
        }
        let two53 = 9_007_199_254_740_992.0_f64;
        for v in [
            0.0,
            1.0,
            two53,
            f64::from_bits(two53.to_bits() - 1),
            f64::from_bits(two53.to_bits() + 1),
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::from_bits(1),
            f64::NAN,
            f64::INFINITY,
        ] {
            check(v);
        }
        // `Display` never switches to an exponent, so the longest text is
        // the smallest subnormal's.
        assert_eq!(ryu(-5e-324).len(), MAX_TEXT);
    }

    #[test]
    fn writer_matches_std_display_on_decimal_values() {
        for i in 0..=100_000_u32 {
            check(f64::from(i));
            check(f64::from(i) / 1000.0);
        }
        // m · 10^±d, the nearest doubles to short decimals, through
        // overflow to infinity and underflow to zero.
        for m in 0..100 {
            for d in 0..400 {
                for text in [format!("{m}e{d}"), format!("{m}e-{d}")] {
                    check(text.parse().unwrap());
                }
            }
        }
    }

    #[test]
    fn writer_matches_std_display_on_sigmoid_outputs() {
        // The decoder's outputs: values in (0, 1) down to the subnormals,
        // and the exact 0 and 1 that dominate served bodies.
        for k in -204_800..=204_800 {
            check(p3gm_nn::activation::sigmoid(f64::from(k) / 256.0));
        }
    }

    #[test]
    fn pow5_tables_match_a_bignum_rebuild() {
        /// `a >= b` for little-endian base-2^32 naturals.
        fn at_least(a: &[u32], b: &[u32]) -> bool {
            for k in (0..a.len().max(b.len())).rev() {
                let (x, y) = (a.get(k).copied(), b.get(k).copied());
                if x.unwrap_or(0) != y.unwrap_or(0) {
                    return x.unwrap_or(0) > y.unwrap_or(0);
                }
            }
            true
        }
        /// `a -= b`, for `a >= b`.
        fn subtract(a: &mut [u32], b: &[u32]) {
            let mut borrow = 0;
            for (k, limb) in a.iter_mut().enumerate() {
                let y = u64::from(b.get(k).copied().unwrap_or(0)) + borrow;
                borrow = u64::from(u64::from(*limb) < y);
                *limb = (u64::from(*limb) + (borrow << 32) - y) as u32;
            }
        }
        /// `a = 2a + bit`.
        fn shift_in(a: &mut [u32], bit: bool) {
            let mut carry = u32::from(bit);
            for limb in a {
                (*limb, carry) = (*limb << 1 | carry, *limb >> 31);
            }
        }

        let mut pow = vec![1u32]; // 5^i
        for i in 0..pow5::POW5_SPLIT.len().max(pow5::POW5_INV_SPLIT.len()) {
            let top = pow[pow.len() - 1];
            let bits = 32 * pow.len() - top.leading_zeros() as usize;
            let bit = |p: usize| pow[p / 32] >> (p % 32) & 1 == 1;
            if let Some(&entry) = pow5::POW5_SPLIT.get(i) {
                let top125 = (1..=125).fold(0u128, |acc, k| {
                    acc << 1 | u128::from(bits >= k && bit(bits - k))
                });
                assert_eq!(entry, top125, "POW5_SPLIT[{i}]");
            }
            if let Some(&entry) = pow5::POW5_INV_SPLIT.get(i) {
                // 2^(bits - 1 + 125) / 5^i, one dividend bit at a time.
                let mut rem = vec![0u32; pow.len() + 1];
                let mut quotient = 0u128;
                for p in (0..bits + 125).rev() {
                    shift_in(&mut rem, p == bits + 124);
                    quotient <<= 1;
                    if at_least(&rem, &pow) {
                        subtract(&mut rem, &pow);
                        quotient |= 1;
                    }
                }
                assert_eq!(entry, quotient + 1, "POW5_INV_SPLIT[{i}]");
            }
            let mut carry = 0;
            for limb in &mut pow {
                let x = u64::from(*limb) * 5 + carry;
                (*limb, carry) = (x as u32, x >> 32);
            }
            if carry > 0 {
                pow.push(carry as u32);
            }
        }
    }
}
