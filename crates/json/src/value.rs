//! The JSON value tree and its printers.

use std::fmt;

/// A JSON number: integers are kept exact, everything else is `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A float (never NaN; construction maps NaN/inf to null).
    F64(f64),
}

impl Number {
    /// The number as an `f64` (always possible).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U64(n) => n as f64,
            Number::I64(n) => n as f64,
            Number::F64(x) => x,
        }
    }

    /// The number as a `u64`, if it is a non-negative integer.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::U64(n) => Some(n),
            Number::I64(n) => u64::try_from(n).ok(),
            Number::F64(_) => None,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::U64(n) => write!(f, "{n}"),
            Number::I64(n) => write!(f, "{n}"),
            // `{}` on f64 prints the shortest representation that round
            // trips, but drops the decimal point for integral values;
            // keep JSON-valid output either way (1.0 prints as "1.0").
            Number::F64(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

/// A JSON document. Objects preserve insertion order (they are a list of
/// pairs, not a map — the report and trace writers control their keys).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as `u64`, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The key/value pairs, if an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object member by key (`Null` when absent or not an object) —
    /// the non-panicking cousin of `value[key]`.
    pub fn get(&self, key: &str) -> &Value {
        const NULL: Value = Value::Null;
        match self {
            Value::Object(o) => o
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// Render compactly (no whitespace).
    pub fn compact(&self) -> String {
        self.to_string()
    }

    /// Render with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0)
            .expect("writing to a String cannot fail");
        out
    }

    fn write<W: fmt::Write + ?Sized>(
        &self,
        out: &mut W,
        indent: Option<usize>,
        depth: usize,
    ) -> fmt::Result {
        let nl = |out: &mut W, d: usize| match indent {
            Some(w) => write!(out, "\n{:1$}", "", w * d),
            None => Ok(()),
        };
        match self {
            Value::Null => out.write_str("null"),
            Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write!(out, "{n}"),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                out.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    nl(out, depth + 1)?;
                    v.write(out, indent, depth + 1)?;
                }
                if !items.is_empty() {
                    nl(out, depth)?;
                }
                out.write_char(']')
            }
            Value::Object(pairs) => {
                out.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    nl(out, depth + 1)?;
                    write_escaped(out, k)?;
                    out.write_char(':')?;
                    if indent.is_some() {
                        out.write_char(' ')?;
                    }
                    v.write(out, indent, depth + 1)?;
                }
                if !pairs.is_empty() {
                    nl(out, depth)?;
                }
                out.write_char('}')
            }
        }
    }
}

/// Write `s` as a JSON string literal: `"`, `\`, and control
/// characters escaped, everything else (including non-ASCII) verbatim.
/// This is the one string printer — [`Value`]'s and any streaming
/// encoder built on this crate.
pub fn write_escaped<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Escaped bytes are ASCII, so `i` is always a char boundary.
        out.write_str(&s[clean..i])?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(escape)?;
        }
        clean = i + 1;
    }
    out.write_str(&s[clean..])?;
    out.write_char('"')
}

/// Compact rendering (no whitespace), written straight into the
/// formatter.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None, 0)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        const NULL: Value = Value::Null;
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(*self)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<Value> for bool {
    fn eq(&self, other: &Value) -> bool {
        other.as_bool() == Some(*self)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        if x.is_finite() {
            Value::Number(Number::F64(x))
        } else {
            Value::Null
        }
    }
}

impl From<f32> for Value {
    fn from(x: f32) -> Self {
        Value::from(x as f64)
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => { $(
        impl From<$t> for Value {
            fn from(n: $t) -> Self { Value::Number(Number::U64(n as u64)) }
        }
    )* };
}
macro_rules! from_signed {
    ($($t:ty),*) => { $(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                if n >= 0 {
                    Value::Number(Number::U64(n as u64))
                } else {
                    Value::Number(Number::I64(n as i64))
                }
            }
        }
    )* };
}
from_unsigned!(u8, u16, u32, u64, usize);
from_signed!(i8, i16, i32, i64, isize);

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Value>, const N: usize> From<[T; N]> for Value {
    fn from(items: [T; N]) -> Self {
        Value::Array(items.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Value>> From<&[T]> for Value {
    fn from(items: &[T]) -> Self {
        Value::Array(items.iter().cloned().map(Into::into).collect())
    }
}

// The `json!` macro converts by reference (like `serde_json::to_value`,
// which serialises `&T`), so any clonable convertible type must also
// convert from a reference. `str` is unsized and keeps its own impl
// above.
impl<T: Clone + Into<Value>> From<&T> for Value {
    fn from(v: &T) -> Self {
        v.clone().into()
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(opt: Option<T>) -> Self {
        match opt {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_display_is_json_valid() {
        assert_eq!(Number::F64(1.0).to_string(), "1.0");
        assert_eq!(Number::F64(0.125).to_string(), "0.125");
        assert_eq!(Number::U64(7).to_string(), "7");
        assert_eq!(Number::I64(-3).to_string(), "-3");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert!(Value::from(f64::NAN).is_null());
        assert!(Value::from(f64::INFINITY).is_null());
    }

    #[test]
    fn index_and_eq_sugar() {
        let v = Value::Object(vec![("a".into(), Value::from("x"))]);
        assert_eq!(v["a"], "x");
        assert!(v["missing"].is_null());
        assert!(v[3].is_null());
    }

    #[test]
    fn escaping() {
        let v = Value::from("a\"b\\c\nd");
        assert_eq!(v.compact(), r#""a\"b\\c\nd""#);
        let v = Value::from("\u{1}é\t\u{1f}x");
        assert_eq!(v.compact(), r#""\u0001é\t\u001fx""#);
    }

    #[test]
    fn pretty_indents_two_spaces_per_level() {
        let v = Value::Object(vec![
            ("a".into(), Value::from(vec![1.0, 2.5])),
            ("b".into(), Value::Array(vec![])),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [\n    1.0,\n    2.5\n  ],\n  \"b\": []\n}"
        );
        assert_eq!(v.to_string(), r#"{"a":[1.0,2.5],"b":[]}"#);
    }
}
