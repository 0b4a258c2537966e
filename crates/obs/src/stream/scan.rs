//! A borrowed JSON scanner for one stream line.
//!
//! [`Cursor`] walks the line's text once. Scalars come back as slices of
//! it ([`Tok`]); a string is copied only when it holds an escape. Every
//! value the caller does not want is still checked and skipped, so the
//! scanner accepts exactly the text the `serde_json` shim's parser
//! accepts, with one limit: arrays and objects may nest at most 128
//! deep (a stream line nests 3 deep).

use std::borrow::Cow;

/// Containers nested deeper than this are refused.
const MAX_DEPTH: u32 = u128::BITS;

/// One scanned JSON value.
#[derive(Debug)]
pub(super) enum Tok<'a> {
    /// A number's text, already checked to be a valid number.
    Num(&'a str),
    Str(Cow<'a, str>),
    Bool(bool),
    /// `null`, or an array or object that was skipped.
    Other,
}

impl<'a> Tok<'a> {
    /// The text of a number written with no fraction or exponent: the
    /// numbers the shim reads as integers.
    fn integer(&self) -> Option<&'a str> {
        let Tok::Num(text) = *self else { return None };
        let digits = text.strip_prefix('-').unwrap_or(text);
        (!digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())).then_some(text)
    }

    /// `serde_json::Value::as_u64`: a non-negative integer. `-0` is the
    /// integer 0 to the shim, so it reads as 0 here too.
    pub(super) fn as_u64(&self) -> Option<u64> {
        let text = self.integer()?;
        text.parse()
            .ok()
            .or_else(|| (text.parse::<i64>() == Ok(0)).then_some(0))
    }

    /// `serde_json::Value::as_i64`.
    pub(super) fn as_i64(&self) -> Option<i64> {
        self.integer()?.parse().ok()
    }

    /// Any number as an `f64`, parsed from its text, so `-0` keeps its
    /// sign (the shim's `as_f64` reads it as the integer 0).
    pub(super) fn as_f64(&self) -> Option<f64> {
        match *self {
            Tok::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    pub(super) fn as_str(&self) -> Option<&str> {
        match self {
            Tok::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A position in one line of text.
pub(super) struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(super) fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    pub(super) fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    pub(super) fn at_end(&self) -> bool {
        self.pos == self.text.len()
    }

    /// The error for the byte under the cursor.
    pub(super) fn bad(&self, what: &str) -> String {
        format!("invalid JSON: {what} at byte {}", self.pos)
    }

    pub(super) fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() != Some(b) {
            return Err(self.bad(&format!("expected `{}`", b as char)));
        }
        self.pos += 1;
        Ok(())
    }

    /// Enter the array or object that starts at the cursor. Returns
    /// whether a first member follows; an empty container is consumed
    /// whole.
    pub(super) fn open(&mut self) -> Result<bool, String> {
        let close = match self.peek() {
            Some(b'[') => b']',
            Some(b'{') => b'}',
            _ => return Err(self.bad("expected `[` or `{`")),
        };
        self.pos += 1;
        self.ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After a member of the container that `close` ends: consume a
    /// comma and return true, or consume `close` and return false.
    pub(super) fn next(&mut self, close: u8) -> Result<bool, String> {
        self.ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.ws();
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.bad(&format!("expected `,` or `{}`", close as char))),
        }
    }

    /// An object key and its colon, leaving the cursor on the value.
    pub(super) fn key(&mut self) -> Result<Cow<'a, str>, String> {
        let key = self.string()?;
        self.ws();
        self.eat(b':')?;
        self.ws();
        Ok(key)
    }

    /// The value at the cursor; an array or object is checked and
    /// skipped.
    pub(super) fn value(&mut self) -> Result<Tok<'a>, String> {
        match self.peek() {
            Some(b'[' | b'{') => self.skip_container().map(|()| Tok::Other),
            _ => self.scalar(),
        }
    }

    /// Skip the array or object at the cursor, checking it. Open
    /// containers are kept on a bit stack (set bits are objects), not on
    /// the call stack, so hostile nesting cannot overflow it.
    fn skip_container(&mut self) -> Result<(), String> {
        let (mut objects, mut depth) = (0u128, 0u32);
        loop {
            // A value starts at the cursor.
            match self.peek() {
                Some(b @ (b'[' | b'{')) => {
                    if depth == MAX_DEPTH {
                        return Err(self.bad("nesting deeper than 128"));
                    }
                    if self.open()? {
                        let object = b == b'{';
                        objects = objects << 1 | u128::from(object);
                        depth += 1;
                        if object {
                            self.key()?;
                        }
                        continue;
                    }
                }
                _ => {
                    self.scalar()?;
                }
            }
            // A value ended: close containers until one goes on.
            loop {
                if depth == 0 {
                    return Ok(());
                }
                let object = objects & 1 == 1;
                if self.next(if object { b'}' } else { b']' })? {
                    if object {
                        self.key()?;
                    }
                    break;
                }
                objects >>= 1;
                depth -= 1;
            }
        }
    }

    fn scalar(&mut self) -> Result<Tok<'a>, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Tok::Str),
            Some(b't') => self.keyword("true", Tok::Bool(true)),
            Some(b'f') => self.keyword("false", Tok::Bool(false)),
            Some(b'n') => self.keyword("null", Tok::Other),
            Some(b'-' | b'0'..=b'9') => self.number().map(Tok::Num),
            Some(_) => Err(self.bad("unexpected character")),
            None => Err(self.bad("unexpected end of line")),
        }
    }

    fn keyword(&mut self, word: &str, tok: Tok<'a>) -> Result<Tok<'a>, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.bad("invalid literal"));
        }
        self.pos += word.len();
        Ok(tok)
    }

    /// A number: the shim's token (a sign, then digits, `.`, `e`, `E`,
    /// `+` and `-`), valid when `f64` parses it.
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        self.pos += 1;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if Tok::Num(text).integer().is_some() || text.parse::<f64>().is_ok() {
            Ok(text)
        } else {
            Err(format!(
                "invalid JSON: invalid number `{text}` at byte {start}"
            ))
        }
    }

    /// A string, borrowed unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut out = loop {
            match bytes.get(self.pos) {
                None => return Err(self.bad("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                Some(b'\\') => break String::from(&self.text[start..self.pos]),
                Some(_) => self.pos += 1,
            }
        };
        loop {
            let run = self.pos;
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match bytes.get(self.pos) {
                None => return Err(self.bad("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// The character an escape stands for, the backslash consumed. Like
    /// the shim, `\u` takes what `u32::from_str_radix` reads from the
    /// next four bytes, and a surrogate becomes U+FFFD.
    fn escape(&mut self) -> Result<char, String> {
        let Some(b) = self.peek() else {
            return Err(self.bad("unterminated escape"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let code = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| self.bad("invalid \\u escape"))?;
                self.pos += 4;
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.bad("invalid escape")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(text: &str) -> Result<Tok<'_>, String> {
        let mut cur = Cursor::new(text);
        cur.ws();
        let tok = cur.value()?;
        cur.ws();
        if !cur.at_end() {
            return Err(cur.bad("trailing characters"));
        }
        Ok(tok)
    }

    #[test]
    fn accepts_what_the_shim_accepts() {
        let cases = [
            "0",
            "-0",
            "007",
            "1.",
            "1e400",
            "18446744073709551616",
            "-",
            "1-2",
            "--1",
            "1e",
            "\"a\\u+041\"",
            "\"\\ud800\"",
            "\"\\x\"",
            "\"tab\there\"",
            "[]",
            "[1,]",
            "[1 2]",
            "{\"a\":1,}",
            "{\"a\" : [ {\"b\":[null,true,false]} ] }",
            "{1:2}",
            "tru",
            "trueish",
            "[[[]]]",
            "[[[[]]]",
        ];
        for text in cases {
            let shim = serde_json::from_str::<serde_json::Value>(text).is_ok();
            assert_eq!(scan(text).is_ok(), shim, "{text}");
        }
    }

    #[test]
    fn numbers_read_like_the_shim_except_negative_zero() {
        for text in [
            "0",
            "-0",
            "7",
            "-7",
            "18446744073709551615",
            "1.5",
            "1e3",
            "-00",
        ] {
            let shim: serde_json::Value = serde_json::from_str(text).unwrap();
            let tok = scan(text).unwrap();
            assert_eq!(tok.as_u64(), shim.as_u64(), "{text}");
            assert_eq!(tok.as_i64(), shim.as_i64(), "{text}");
            assert_eq!(tok.as_f64(), shim.as_f64(), "{text}");
        }
        assert_eq!(
            scan("-0").unwrap().as_f64().map(f64::to_bits),
            Some(1 << 63)
        );
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        assert!(matches!(
            scan("\"plain é\"").unwrap(),
            Tok::Str(Cow::Borrowed("plain é"))
        ));
        let Tok::Str(s) = scan("\"a\\\"b\\\\c\\n\\u0041\\u00e9\"").unwrap() else {
            panic!("not a string")
        };
        assert!(matches!(s, Cow::Owned(_)));
        assert_eq!(s, "a\"b\\c\nAé");
    }

    #[test]
    fn deep_nesting_is_refused_not_overflowed() {
        let deep = "[".repeat(100_000);
        assert!(scan(&deep).unwrap_err().contains("nesting"));
        let ok = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(scan(&ok).is_ok());
    }
}
