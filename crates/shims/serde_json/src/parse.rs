//! The JSON cursor: a pull [`Reader`] over JSON text, and the
//! recursive-descent tree parser built on it.
//!
//! The tree parser ([`crate::from_str`]) is one caller of the reader;
//! a caller that knows its document's shape can drive the same reader
//! directly and read numbers and strings where they stand, without
//! building a [`Value`] per token. Whitespace, string escapes, number
//! forms, error texts and the nesting limit are then one piece of code
//! for both.

use serde::{Error, Number, Value};
use std::borrow::Cow;

/// Deepest array/object nesting either parser accepts. Both parsers
/// recurse once per level, so an unbounded depth lets a few kilobytes
/// of `[` overflow the thread's stack.
pub(crate) const MAX_DEPTH: usize = 128;

/// Error text for nesting past [`MAX_DEPTH`], shared by both parsers.
pub(crate) const DEPTH_ERROR: &str = "recursion limit exceeded";

pub fn parse(text: &str) -> Result<Value, Error> {
    let mut r = Reader::new(text);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// A forward-only cursor over JSON text.
///
/// Every read skips the whitespace in front of its token. A caller
/// walks containers with [`Reader::object`] and [`Reader::array`], and
/// reads leaves with [`Reader::string`], [`Reader::number`] or, for a
/// member it does not model, a whole [`Reader::value`]; [`Reader::finish`]
/// then requires the end of the text. Errors name the byte offset they
/// stopped at, exactly as [`crate::from_str`] reports them.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    #[cold]
    fn error(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
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

    /// The next token's first byte, not consumed. Compact text, where
    /// every token starts right after the last, costs one look.
    #[inline]
    fn peek(&mut self) -> Option<u8> {
        match self.bytes().get(self.pos) {
            Some(&b) if b > b' ' => Some(b),
            _ => {
                self.skip_ws();
                self.bytes().get(self.pos).copied()
            }
        }
    }

    /// Consume `byte` when it is the next token.
    #[inline]
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    /// Open a container one level deeper, refusing nesting past
    /// [`MAX_DEPTH`] before the bracket is consumed.
    #[inline]
    fn begin(&mut self, bracket: u8) -> Result<(), Error> {
        if self.peek() != Some(bracket) {
            return Err(self.error(&format!("expected `{}`", bracket as char)));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error(DEPTH_ERROR));
        }
        self.pos += 1;
        self.depth += 1;
        Ok(())
    }

    /// Consume the closing `bracket` when it is the next token.
    #[inline]
    fn end(&mut self, bracket: u8) -> bool {
        let closed = self.eat(bracket);
        self.depth -= usize::from(closed);
        closed
    }

    /// Require the end of the text (trailing whitespace allowed).
    pub fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos != self.bytes().len() {
            return Err(self.error("trailing characters after JSON value"));
        }
        Ok(())
    }

    /// Read an object, handing each member's key to `member`, which must
    /// read the member's value from the reader. Keys arrive decoded and
    /// in input order, duplicates included: which one counts is the
    /// caller's rule. The error type is the caller's too, so a caller
    /// can refuse a member for reasons of its own.
    pub fn object<E: From<Error>>(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.begin(b'{')?;
        if self.end(b'}') {
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            member(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `}` in object").into()),
            }
        }
    }

    /// Read an array, calling `element` once per element; it must read
    /// the element from the reader.
    pub fn array<E: From<Error>>(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.begin(b'[')?;
        if self.end(b']') {
            return Ok(());
        }
        loop {
            element(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `]` in array").into()),
            }
        }
    }

    /// Read any value as a [`Value`] tree.
    pub fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|r, key| {
                    fields.push((key.into_owned(), r.value()?));
                    Ok::<_, Error>(())
                })?;
                Ok(Value::Object(fields))
            }
            Some(b'[') => {
                let mut elems = Vec::new();
                self.array(|r| {
                    elems.push(r.value()?);
                    Ok::<_, Error>(())
                })?;
                Ok(Value::Array(elems))
            }
            Some(b'"') => Ok(Value::String(self.string()?.into_owned())),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(Value::Number),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    /// Read a string. An escape-free string borrows from the text; one
    /// with escapes is decoded into an owned copy.
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        // Neither `"` nor `\` can occur inside a multi-byte UTF-8
        // sequence (continuation bytes are >= 0x80), so a byte scan
        // stops on a character boundary.
        let bytes = self.bytes();
        let start = self.pos;
        let mut i = start;
        while i < bytes.len() && bytes[i] != b'"' && bytes[i] != b'\\' {
            i += 1;
        }
        self.pos = i;
        match bytes.get(i) {
            None => Err(self.error("unterminated string")),
            Some(b'"') => {
                self.pos = i + 1;
                Ok(Cow::Borrowed(&self.text[start..i]))
            }
            _ => {
                let mut out = String::with_capacity(i - start + 16);
                out.push_str(&self.text[start..i]);
                self.string_escaped(out).map(Cow::Owned)
            }
        }
    }

    /// The rest of a string from its first escape on.
    fn string_escaped(&mut self, mut out: String) -> Result<String, Error> {
        loop {
            match self.bytes().get(self.pos).copied() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes()
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| self.error("bad escape"))?;
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
                            // Surrogate pairs are not reconstructed; the
                            // workspace never writes them (it escapes only
                            // control characters).
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
                    let ch = self.text[self.pos..].chars().next().expect("valid UTF-8");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// Read a number. A plain run of at most 19 digits is converted as
    /// it is scanned, eight digits at a time; every other form goes
    /// through the text.
    #[inline]
    pub fn number(&mut self) -> Result<Number, Error> {
        let lead = self.peek();
        let bytes = self.bytes();
        let start = self.pos;
        let (mut acc, mut i) = match bytes.get(start..start + 8) {
            Some(chunk) => {
                let n = leading_digits(chunk);
                (eight_digits(chunk, n), start + n)
            }
            None => (0, start),
        };
        if i == start + 8 || i == start {
            let fast_end = bytes.len().min(start + 19);
            while i < fast_end {
                let d = bytes[i].wrapping_sub(b'0');
                if d >= 10 {
                    break;
                }
                acc = acc * 10 + u64::from(d);
                i += 1;
            }
        }
        if i > start && !matches!(bytes.get(i), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
            self.pos = i;
            return Ok(Number::from_u128(u128::from(acc)));
        }
        if lead != Some(b'-') && i == start {
            return Err(self.error("expected a number"));
        }
        self.number_text(start)
    }

    /// Every number form past the plain-digit fast path: signs, floats,
    /// 20 digits and more, and malformed tails.
    fn number_text(&mut self, start: usize) -> Result<Number, Error> {
        let bytes = self.bytes();
        let mut i = start;
        let digits = |i: &mut usize| {
            while matches!(bytes.get(*i), Some(c) if c.is_ascii_digit()) {
                *i += 1;
            }
        };
        if bytes.get(i) == Some(&b'-') {
            i += 1;
        }
        digits(&mut i);
        let mut is_float = false;
        if bytes.get(i) == Some(&b'.') {
            is_float = true;
            i += 1;
            digits(&mut i);
        }
        if matches!(bytes.get(i), Some(b'e' | b'E')) {
            is_float = true;
            i += 1;
            if matches!(bytes.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            digits(&mut i);
        }
        self.pos = i;
        let text = &self.text[start..i];
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

/// How many of the eight bytes of `chunk` are ASCII digits before the
/// first one that is not.
#[inline]
fn leading_digits(chunk: &[u8]) -> usize {
    let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
    // A byte is a digit iff subtracting `0` does not wrap below zero and
    // adding 0x46 does not pass 0x7f. Borrows and carries only travel
    // upwards, past the first non-digit, so its flag is exact.
    let flags = (word.wrapping_sub(0x3030_3030_3030_3030)
        | word.wrapping_add(0x4646_4646_4646_4646))
        & 0x8080_8080_8080_8080;
    flags.trailing_zeros() as usize / 8
}

/// The value of the first `n` (at most eight) bytes of `chunk`, which
/// are ASCII digits, most significant first.
#[inline]
fn eight_digits(chunk: &[u8], n: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
    // Move the n digits to the top bytes; the zeros shifted in below
    // them are leading zeros. Then merge neighbours pairwise:
    // 2 digits per 16 bits, 4 per 32, 8 per 64.
    let digits = (word & 0x0f0f_0f0f_0f0f_0f0f) << (64 - 8 * n);
    let pairs = (digits * 10 + (digits >> 8)) & 0x00ff_00ff_00ff_00ff;
    let quads = (pairs * 100 + (pairs >> 16)) & 0x0000_ffff_0000_ffff;
    (quads * 10_000 + (quads >> 32)) & 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_stops_at_the_limit_in_both_parsers() {
        for text in [
            nested(MAX_DEPTH),
            format!("{{\"a\":{}}}", nested(MAX_DEPTH - 1)),
        ] {
            assert!(parse(&text).is_ok(), "depth {MAX_DEPTH} refused");
            assert!(crate::borrow::from_str_borrowed(&text).is_ok());
        }
        for text in [
            nested(MAX_DEPTH + 1),
            format!("{{\"a\":{}}}", nested(MAX_DEPTH)),
            format!("{}1", "[".repeat(200_000)),
            "{\"a\":".repeat(200_000),
        ] {
            let tree = parse(&text).unwrap_err().to_string();
            let borrowed = crate::borrow::from_str_borrowed(&text)
                .unwrap_err()
                .to_string();
            assert!(tree.starts_with(DEPTH_ERROR), "{tree}");
            assert_eq!(tree, borrowed);
        }
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)).unwrap_err().to_string(),
            format!("{DEPTH_ERROR} at byte {MAX_DEPTH}")
        );
    }

    #[test]
    fn reader_reads_a_known_shape() {
        let mut r = Reader::new(r#" {"steps": [[1, 9], [4,7]], "skip": {"x": [true]}} "#);
        let mut steps = Vec::new();
        r.object(|r, key| {
            if key == "steps" {
                r.array(|r| {
                    let mut pair = Vec::new();
                    r.array(|r| {
                        pair.push(r.number()?.as_u128().unwrap());
                        Ok::<_, Error>(())
                    })?;
                    steps.push(pair);
                    Ok(())
                })
            } else {
                r.value().map(drop)
            }
        })
        .unwrap();
        r.finish().unwrap();
        assert_eq!(steps, [[1, 9], [4, 7]]);
    }

    #[test]
    fn eight_digit_chunks_match_the_scalar_loop() {
        for text in [
            "0,",
            "7]",
            "12345678",
            "1234567,",
            "00000001",
            "99999999",
            "9}",
            "1a",
            "123 4",
            "1234\u{e9}",
            "-1234567",
            "1.5e3xyz",
            "98765432109",
        ] {
            let mut chunk = [b'x'; 8];
            let n = text.len().min(8);
            chunk[..n].copy_from_slice(&text.as_bytes()[..n]);
            let digits = chunk.iter().take_while(|b| b.is_ascii_digit()).count();
            assert_eq!(leading_digits(&chunk), digits, "{text}");
            let want = chunk[..digits]
                .iter()
                .fold(0u64, |acc, b| acc * 10 + u64::from(b - b'0'));
            assert_eq!(eight_digits(&chunk, digits), want, "{text}");
        }
    }

    #[test]
    fn number_forms_match_the_text_path() {
        for (text, want) in [
            ("7", Number::U(7)),
            ("007", Number::U(7)),
            ("-0", Number::U(0)),
            ("9999999999999999999", Number::U(9_999_999_999_999_999_999)),
            ("18446744073709551615", Number::U(u128::from(u64::MAX))),
            ("18446744073709551616", Number::U(1 << 64)),
            ("12345678", Number::U(12_345_678)),
            ("123456789", Number::U(123_456_789)),
            ("1234567.5", Number::F(1_234_567.5)),
            ("12345678e1", Number::F(123_456_780.0)),
            ("-12", Number::I(-12)),
            ("5.0", Number::F(5.0)),
            ("1e3", Number::F(1000.0)),
        ] {
            let got = Reader::new(text).number().unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{text}");
        }
        for text in [".5", "+1", "x", ""] {
            assert!(Reader::new(text).number().is_err(), "{text}");
        }
    }
}
