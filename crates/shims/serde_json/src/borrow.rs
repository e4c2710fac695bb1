//! Zero-copy JSON parsing: a borrowed value tree whose strings point
//! into the input buffer.
//!
//! [`from_slice`] parses the same JSON grammar as [`crate::from_str`]
//! but produces a [`BorrowedValue`] instead of an owned
//! [`Value`] tree: object keys and string values are
//! `&str` slices *borrowed from the input* whenever the string
//! contains no escape sequence, so a typical parse performs **zero**
//! per-string allocations — only the array/object spines are
//! heap-allocated. Strings that do contain escapes are decoded into a
//! `Cow::Owned` exactly the way the tree parser decodes them, and
//! nesting stops at the tree parser's limit with its error text.
//!
//! The tree parser stays the semantic oracle: this module's tests pin
//! `from_slice(b).map(to_value) ≡ from_str(b)` on a corpus of valid
//! and invalid inputs. Anything this module accepts, rejects, or
//! decodes differently from `parse.rs` is a bug here.

use crate::parse::{DEPTH_ERROR, MAX_DEPTH};
use serde::{Error, Number, Value};
use std::borrow::Cow;

/// A JSON value whose strings borrow from the parsed input.
///
/// Mirrors [`Value`] shape-for-shape; [`BorrowedValue::to_value`]
/// converts losslessly (the equivalence the proptest oracle checks).
#[derive(Clone, Debug, PartialEq)]
pub enum BorrowedValue<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(Number),
    /// A string — borrowed when escape-free, owned when it needed decoding.
    String(Cow<'a, str>),
    /// An ordered sequence.
    Array(Vec<BorrowedValue<'a>>),
    /// Key/value pairs in input order (keys borrow like string values).
    Object(Vec<(Cow<'a, str>, BorrowedValue<'a>)>),
}

impl<'a> BorrowedValue<'a> {
    /// Object member lookup (linear, like the owned tree's).
    #[inline]
    pub fn get(&self, key: &str) -> Option<&BorrowedValue<'a>> {
        match self {
            BorrowedValue::Object(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The string slice, when the value is a string.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            BorrowedValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when the value is one.
    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            BorrowedValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, when the value is one.
    #[inline]
    pub fn as_number(&self) -> Option<&Number> {
        match self {
            BorrowedValue::Number(n) => Some(n),
            _ => None,
        }
    }

    /// The number as a `u64`, when it fits.
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_number()
            .and_then(Number::as_u128)
            .and_then(|n| u64::try_from(n).ok())
    }

    /// The number as an `f64`.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        self.as_number().map(Number::as_f64)
    }

    /// The elements, when the value is an array.
    #[inline]
    pub fn as_array(&self) -> Option<&[BorrowedValue<'a>]> {
        match self {
            BorrowedValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The field pairs, when the value is an object.
    #[inline]
    pub fn as_object(&self) -> Option<&[(Cow<'a, str>, BorrowedValue<'a>)]> {
        match self {
            BorrowedValue::Object(o) => Some(o),
            _ => None,
        }
    }

    /// A short name of the variant, for error messages.
    #[inline]
    pub fn kind(&self) -> &'static str {
        match self {
            BorrowedValue::Null => "null",
            BorrowedValue::Bool(_) => "bool",
            BorrowedValue::Number(_) => "number",
            BorrowedValue::String(_) => "string",
            BorrowedValue::Array(_) => "array",
            BorrowedValue::Object(_) => "object",
        }
    }

    /// Convert into the owned [`Value`] tree (allocates; used by the
    /// equivalence tests and by callers that must hand a `Value` on).
    pub fn to_value(&self) -> Value {
        match self {
            BorrowedValue::Null => Value::Null,
            BorrowedValue::Bool(b) => Value::Bool(*b),
            BorrowedValue::Number(n) => Value::Number(*n),
            BorrowedValue::String(s) => Value::String(s.to_string()),
            BorrowedValue::Array(a) => {
                Value::Array(a.iter().map(BorrowedValue::to_value).collect())
            }
            BorrowedValue::Object(o) => Value::Object(
                o.iter()
                    .map(|(k, v)| (k.to_string(), v.to_value()))
                    .collect(),
            ),
        }
    }
}

/// Parse JSON from raw bytes into a borrowed tree. The input is UTF-8
/// validated once up front (a single linear pass); after that every
/// escape-free string is a borrowed slice of `bytes`.
pub fn from_slice(bytes: &[u8]) -> Result<BorrowedValue<'_>, Error> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| Error::custom(format!("invalid UTF-8 at byte {}", e.valid_up_to())))?;
    from_str_borrowed(text)
}

/// Parse JSON text into a borrowed tree (see [`from_slice`]).
pub fn from_str_borrowed(text: &str) -> Result<BorrowedValue<'_>, Error> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
        scratch: Vec::new(),
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around `pos`, capped at the tree parser's limit.
    depth: usize,
    /// Shared element stack for in-flight arrays: each array parses its
    /// elements onto the tail, then splits them off into an exact-size
    /// `Vec`. One scratch allocation amortizes across every array in the
    /// document (nested arrays finish — and drain — before their parent
    /// pushes again), so a 500-entry table costs one sized allocation
    /// instead of a doubling-realloc ladder, and a 2-entry staircase
    /// pair costs 2 slots instead of `Vec`'s minimum 4.
    scratch: Vec<BorrowedValue<'a>>,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    #[cold]
    fn error(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        let bytes = self.bytes();
        let mut i = self.pos;
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(i) {
            i += 1;
        }
        self.pos = i;
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    // One inlined level: array/object element loops get the number and
    // string paths in line (the recursive container arms stay outlined).
    // Numbers are dispatched first — they are the bulk of every solve
    // body (table entries, staircase coordinates) and would otherwise
    // fall through six arm comparisons per element.
    #[inline]
    fn value(&mut self) -> Result<BorrowedValue<'a>, Error> {
        let c = match self.peek() {
            Some(c) => c,
            None => return Err(self.error("unexpected end of input")),
        };
        if c.wrapping_sub(b'0') < 10 || c == b'-' {
            return self.number_raw().map(BorrowedValue::Number);
        }
        match c {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(BorrowedValue::String(self.string()?)),
            b't' => self.keyword("true", BorrowedValue::Bool(true)),
            b'f' => self.keyword("false", BorrowedValue::Bool(false)),
            b'n' => self.keyword("null", BorrowedValue::Null),
            _ => Err(self.error("unexpected character")),
        }
    }

    /// Read an object or array one level deeper, refusing nesting past
    /// the tree parser's limit at the same byte, with the same text.
    fn nested(
        &mut self,
        read: fn(&mut Self) -> Result<BorrowedValue<'a>, Error>,
    ) -> Result<BorrowedValue<'a>, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(DEPTH_ERROR));
        }
        self.depth += 1;
        let value = read(self);
        self.depth -= 1;
        value
    }

    fn keyword(
        &mut self,
        word: &str,
        value: BorrowedValue<'a>,
    ) -> Result<BorrowedValue<'a>, Error> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<BorrowedValue<'a>, Error> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(BorrowedValue::Object(Vec::new()));
        }
        let mut fields = Vec::new();
        loop {
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(BorrowedValue::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<BorrowedValue<'a>, Error> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(BorrowedValue::Array(Vec::new()));
        }
        let base = self.scratch.len();
        // Pair fast path: `[int,int]` with no interior whitespace — the
        // staircase wire shape, by far the most common array in a solve
        // body — builds its 2-element `Vec` directly, skipping the
        // scratch round-trip. Any deviation falls through to the general
        // loop at exactly the token where the pattern stopped matching,
        // so positions and error texts are unchanged.
        let mut pending = false;
        if matches!(
            self.bytes().get(self.pos),
            Some(c) if c.wrapping_sub(b'0') < 10 || *c == b'-'
        ) {
            let first = self.number_raw()?;
            let bytes = self.bytes();
            if bytes.get(self.pos) == Some(&b',')
                && matches!(
                    bytes.get(self.pos + 1),
                    Some(c) if c.wrapping_sub(b'0') < 10 || *c == b'-'
                )
            {
                self.pos += 1;
                let second = self.number_raw()?;
                if self.bytes().get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(BorrowedValue::Array(vec![
                        BorrowedValue::Number(first),
                        BorrowedValue::Number(second),
                    ]));
                }
                self.scratch.push(BorrowedValue::Number(first));
                self.scratch.push(BorrowedValue::Number(second));
            } else {
                self.scratch.push(BorrowedValue::Number(first));
            }
            pending = true;
        }
        loop {
            if pending {
                pending = false;
            } else {
                // Elements land in the scratch slot directly: numbers
                // (the bulk of every body) construct in place instead of
                // moving a full `Result<BorrowedValue, _>` through two
                // return sites.
                match self.peek() {
                    Some(c) if c.wrapping_sub(b'0') < 10 || c == b'-' => {
                        // Number-run loop: a flat table `…,40,39,38,…`
                        // stays in this tight loop — the `,`+digit pair
                        // is consumed here and only the run's last
                        // element falls through to the separator
                        // machinery below. Plain unsigned integers (the
                        // bulk of every profile table) are scanned
                        // inline; anything else (sign, float, 20+
                        // digits) defers to `number_raw` at the same
                        // position.
                        loop {
                            let bytes = self.bytes();
                            let len = bytes.len();
                            let start = self.pos;
                            let fast_end = len.min(start + 19);
                            let mut i = start;
                            let mut acc = 0u64;
                            while i < fast_end {
                                let d = bytes[i].wrapping_sub(b'0');
                                if d >= 10 {
                                    break;
                                }
                                acc = acc * 10 + u64::from(d);
                                i += 1;
                            }
                            if i > start
                                && (i >= len
                                    || (bytes[i] != b'.'
                                        && bytes[i] != b'e'
                                        && bytes[i] != b'E'
                                        && i < fast_end))
                            {
                                self.pos = i;
                                self.scratch.push(BorrowedValue::Number(Number::from_u128(
                                    u128::from(acc),
                                )));
                            } else {
                                let n = self.number_raw()?;
                                self.scratch.push(BorrowedValue::Number(n));
                            }
                            let bytes = self.bytes();
                            if bytes.get(self.pos) == Some(&b',')
                                && matches!(
                                    bytes.get(self.pos + 1),
                                    Some(c) if c.wrapping_sub(b'0') < 10 || *c == b'-'
                                )
                            {
                                self.pos += 1;
                                continue;
                            }
                            break;
                        }
                    }
                    _ => {
                        let elem = self.value()?;
                        self.scratch.push(elem);
                    }
                }
            }
            // Separator fast path: compact JSON (everything this
            // workspace serializes) has `,` or `]` immediately after an
            // element, so whitespace skipping only runs when that first
            // look fails.
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    // Exact-size split-off; `drain` is a `TrustedLen`
                    // iterator, so this is one allocation plus a copy.
                    let elems: Vec<_> = self.scratch.drain(base..).collect();
                    return Ok(BorrowedValue::Array(elems));
                }
                _ => {
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            let elems: Vec<_> = self.scratch.drain(base..).collect();
                            return Ok(BorrowedValue::Array(elems));
                        }
                        _ => return Err(self.error("expected `,` or `]` in array")),
                    }
                }
            }
            self.skip_ws();
        }
    }

    /// Parse a string: fast path scans to the closing quote and borrows
    /// the slice; hitting a `\` falls back to owned decoding with exactly
    /// the tree parser's escape rules.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let start = self.pos;
        // Scan raw bytes for the closing quote or an escape. UTF-8
        // continuation bytes are all ≥ 0x80, so neither delimiter can
        // appear inside a multi-byte character — no char decoding needed,
        // and both `start` and the stop position sit on ASCII boundaries.
        let bytes = self.bytes();
        let mut i = self.pos;
        while i < bytes.len() && bytes[i] != b'"' && bytes[i] != b'\\' {
            i += 1;
        }
        self.pos = i;
        match bytes.get(i) {
            None => Err(self.error("unterminated string")),
            Some(b'"') => {
                // Escape-free: borrow.
                let s = &self.text[start..i];
                self.pos = i + 1;
                Ok(Cow::Borrowed(s))
            }
            _ => {
                // Hit a `\`: keep the fast-path prefix and decode owned.
                let mut out = String::with_capacity(i - start + 16);
                out.push_str(&self.text[start..i]);
                self.string_owned(out).map(Cow::Owned)
            }
        }
    }

    /// Owned continuation of [`Parser::string`] from the first escape.
    fn string_owned(&mut self, mut out: String) -> Result<String, Error> {
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes()
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not reconstructed,
                            // matching the tree parser: the workspace
                            // never writes them.
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.error("invalid \\u code point"))?;
                            out.push(ch);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    let rest = &self.text[self.pos..];
                    let ch = rest.chars().next().expect("validated UTF-8");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    #[inline(always)]
    fn number_raw(&mut self) -> Result<Number, Error> {
        let bytes = self.bytes();
        let len = bytes.len();
        let start = self.pos;
        let mut i = self.pos;
        if i < len && bytes[i] == b'-' {
            i += 1;
        }
        // Accumulate the integer digits as we scan: the common case (a
        // small unsigned integer, e.g. every table entry) then needs no
        // re-parse of the text slice. Up to 19 digits cannot overflow a
        // u64, so that run needs no checked arithmetic at all.
        let digits_at = i;
        let fast_end = len.min(digits_at + 19);
        let mut acc: u64 = 0;
        while i < fast_end {
            let d = bytes[i].wrapping_sub(b'0');
            if d >= 10 {
                break;
            }
            acc = acc * 10 + d as u64;
            i += 1;
        }
        // Fast return: an unsigned integer that stopped before both the
        // 19-digit bound and any `.`/`e` suffix — every curve entry and
        // processor count takes this path.
        if digits_at == start
            && i > digits_at
            && (i >= len
                || (bytes[i] != b'.' && bytes[i] != b'e' && bytes[i] != b'E' && i < fast_end))
        {
            self.pos = i;
            return Ok(Number::from_u128(acc as u128));
        }
        self.number_slow(start, digits_at, i, acc)
    }

    /// Continuation of [`Parser::number`] for everything past the
    /// unsigned-small-integer fast path: negatives, ≥19-digit runs,
    /// floats, and malformed tails.
    fn number_slow(
        &mut self,
        start: usize,
        digits_at: usize,
        mut i: usize,
        acc: u64,
    ) -> Result<Number, Error> {
        let bytes = self.bytes();
        let mut magnitude: u128 = acc as u128;
        let mut overflow = false;
        while let Some(d) = bytes
            .get(i)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
        {
            magnitude = match magnitude
                .checked_mul(10)
                .and_then(|v| v.checked_add(d as u128))
            {
                Some(v) => v,
                None => {
                    overflow = true;
                    0
                }
            };
            i += 1;
        }
        let mut is_float = false;
        if bytes.get(i) == Some(&b'.') {
            is_float = true;
            i += 1;
            while matches!(bytes.get(i), Some(c) if c.is_ascii_digit()) {
                i += 1;
            }
        }
        if matches!(bytes.get(i), Some(b'e' | b'E')) {
            is_float = true;
            i += 1;
            if matches!(bytes.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            while matches!(bytes.get(i), Some(c) if c.is_ascii_digit()) {
                i += 1;
            }
        }
        let text = &self.text[start..i];
        self.pos = i;
        if !is_float && !overflow && i > digits_at {
            if digits_at == start {
                return Ok(Number::from_u128(magnitude));
            }
            if let Ok(neg) = i128::try_from(magnitude).map(|v| -v) {
                return Ok(Number::from_i128(neg));
            }
        }
        if !is_float {
            if let Ok(u) = text.parse::<u128>() {
                return Ok(Number::from_u128(u));
            }
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Number::from_i128(i));
            }
        }
        text.parse::<f64>()
            .map(Number::from_f64)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_both(text: &str) -> (Result<Value, Error>, Result<Value, Error>) {
        let tree = crate::from_str::<Value>(text);
        let borrowed = from_slice(text.as_bytes()).map(|v| v.to_value());
        (tree, borrowed)
    }

    #[test]
    fn matches_tree_parser_on_a_corpus() {
        let corpus = [
            r#"{"instance": {"m": 64, "jobs": [{"constant": 9}, {"table": [70, 40, 30]}]}, "algo": "linear", "eps": "1/4"}"#,
            r#"[1, -2, 2.5e3, 0.125, 18446744073709551616, true, false, null]"#,
            r#"{"s": "a\\b\"c\nA", "u": "Aé", "slash": "\/"}"#,
            r#"  {  }  "#,
            r#"[[],[[]],{"a":[]}]"#,
            "\"γ_j(t) ≤ ω — 🦀\"",
            r#"{"dup": 1, "dup": 2}"#,
            // Invalid inputs: both sides must reject.
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"trunc \\u00",
            "",
            "nul",
            "-",
            "[1, 2",
        ];
        for text in corpus {
            let (tree, borrowed) = parse_both(text);
            match (tree, borrowed) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "diverged on {text:?}"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("acceptance diverged on {text:?}: tree={a:?} borrowed={b:?}"),
            }
        }
    }

    #[test]
    fn escape_free_strings_are_borrowed() {
        let text = r#"{"algo": "linear", "uni": "γ🦀"}"#;
        let v = from_slice(text.as_bytes()).unwrap();
        let obj = v.as_object().unwrap();
        for (key, val) in obj {
            assert!(matches!(key, Cow::Borrowed(_)), "key {key} not borrowed");
            assert!(
                matches!(val, BorrowedValue::String(Cow::Borrowed(_))),
                "value for {key} not borrowed"
            );
        }
        assert_eq!(v.get("algo").and_then(|v| v.as_str()), Some("linear"));
        assert_eq!(v.get("uni").and_then(|v| v.as_str()), Some("γ🦀"));
    }

    #[test]
    fn escaped_strings_decode_owned() {
        let v = from_slice(br#""pre\nfix""#).unwrap();
        assert!(matches!(&v, BorrowedValue::String(Cow::Owned(_))));
        assert_eq!(v.as_str(), Some("pre\nfix"));
    }

    #[test]
    fn numbers_keep_integer_precision() {
        let v = from_slice(b"[340282366920938463463374607431768211455, -7, 2.5]").unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[0].as_number().and_then(Number::as_u128), Some(u128::MAX));
        assert_eq!(a[1].as_number().and_then(Number::as_i128), Some(-7));
        assert_eq!(a[2].as_f64(), Some(2.5));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        assert!(from_slice(&[b'"', 0xFF, b'"']).is_err());
    }

    #[test]
    fn accessors_cover_the_variants() {
        let v = from_slice(br#"{"b": true, "n": 3, "a": [1], "s": "x"}"#).unwrap();
        assert_eq!(v.kind(), "object");
        assert_eq!(v.get("b").and_then(BorrowedValue::as_bool), Some(true));
        assert_eq!(v.get("n").and_then(BorrowedValue::as_u64), Some(3));
        assert_eq!(
            v.get("a").and_then(BorrowedValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(v.get("s").and_then(BorrowedValue::as_str), Some("x"));
        assert!(v.get("missing").is_none());
        assert!(BorrowedValue::Null.get("x").is_none());
    }
}
