//! In-tree, offline-friendly stand-in for the `serde_json` crate.
//!
//! Re-exports the shim's [`Value`] and layers JSON text encoding/decoding on
//! top of the `serde` shim's `Value` pivot: [`to_string`], [`to_string_pretty`],
//! [`from_str`], [`to_value`], [`from_value`], and a [`json!`] macro covering
//! the literal shapes this workspace uses.

use std::fmt;

pub use serde::Value;

/// Error produced by JSON encoding, decoding, or conversion.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Converts any serializable value into a [`Value`] tree.
///
/// # Errors
///
/// Never fails for the shim data model; the `Result` matches the real
/// `serde_json` signature.
pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value> {
    Ok(value.serialize_value())
}

/// Rebuilds `T` from a [`Value`] tree.
///
/// # Errors
///
/// Returns an [`Error`] when the value does not match `T`'s shape.
// By-value signature kept to match the real serde_json API.
#[allow(clippy::needless_pass_by_value)]
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T> {
    T::deserialize_value(&value).map_err(Error::from)
}

/// Serializes `value` to compact JSON text.
///
/// # Errors
///
/// Never fails for the shim data model.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize_value().write_compact(&mut out);
    Ok(out)
}

/// Serializes `value` to pretty-printed (2-space indented) JSON text.
///
/// # Errors
///
/// Never fails for the shim data model.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize_value().write_pretty(&mut out, 0);
    Ok(out)
}

/// Parses JSON text into any deserializable `T` (including [`Value`]).
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or when the parsed value does not
/// match `T`'s shape.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let value = parse(s)?;
    T::deserialize_value(&value).map_err(Error::from)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a limit a hostile body of nested `[` would
/// overflow the stack and abort the process instead of returning an error.
const MAX_DEPTH: usize = 128;

fn parse(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object level, enforcing [`MAX_DEPTH`].
    fn nested(&mut self, level: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = level(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos + 1..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        let hi = (cp - 0xD800) << 10;
                                        char::from_u32(0x10000 + hi + (lo - 0xDC00))
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            // hex4 leaves pos on the last hex digit.
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // bytes are valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| (b & 0xC0) == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u`, leaving `pos` on the last digit.
    fn hex4(&mut self) -> Result<u32> {
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end - 1;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

// ---------------------------------------------------------------------------
// json! macro
// ---------------------------------------------------------------------------

/// Builds a [`Value`] from a JSON-like literal.
///
/// Supports the shapes used in this workspace: `null`, booleans, literals,
/// arbitrary expressions (anything `Serialize`), arrays, and objects with
/// string-literal or parenthesized-expression keys.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:tt),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($item) ),* ])
    };
    ({ $($key:tt : $val:tt),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( ($crate::__json_key!($key), $crate::json!($val)) ),*
        ])
    };
    ($other:expr) => {
        serde::Serialize::serialize_value(&$other)
    };
}

/// Internal helper for [`json!`] object keys.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_key {
    ($key:literal) => {
        ::std::string::String::from($key)
    };
    ($key:expr) => {
        ::std::string::String::from($key)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let text = r#"{"a": [1, -2, 3.5, "x\n", true, null], "b": {"c": 18446744073709551615}}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v["a"][0], 1);
        assert_eq!(v["a"][1], -2i64);
        assert_eq!(v["a"][2], 3.5);
        assert_eq!(v["a"][3], "x\n");
        assert_eq!(v["a"][4], true);
        assert!(v["a"][5].is_null());
        assert_eq!(v["b"]["c"].as_u64(), Some(u64::MAX));
        let reprinted: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(reprinted, v);
    }

    #[test]
    fn missing_keys_index_to_null() {
        let v: Value = from_str("{}").unwrap();
        assert!(v["nope"]["deeper"].is_null());
        assert!(v.get("nope").is_none());
    }

    #[test]
    fn json_macro_builds_objects() {
        let id = 7u64;
        let v = json!({ "ok": true, "id": id, "items": [1, 2], "nested": { "x": null } });
        assert_eq!(v["ok"], true);
        assert_eq!(v["id"], 7);
        assert_eq!(v["items"][1], 2);
        assert!(v["nested"]["x"].is_null());
    }

    #[test]
    fn pretty_print_is_reparseable() {
        let v = json!({ "a": [1, { "b": "two" }], "c": false });
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn unicode_escapes_decode() {
        let v: Value = from_str(r#""é😀""#).unwrap();
        assert_eq!(v, "é😀");
    }
}
