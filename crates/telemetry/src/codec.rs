//! The field-level JSON codec the event schema is built from.
//!
//! Every type a telemetry record can hold implements [`JsonField`]: how
//! its value is written into a compact JSON line and read back out of a
//! parsed object. Writing goes straight into any [`fmt::Write`] — a
//! `String`, or a hasher that folds the bytes as they arrive — so
//! encoding an event builds no intermediate tree and allocates nothing.
//!
//! The codec owns no number or string format: numbers go through
//! `amoeba_json::Number`'s `Display` and strings through
//! `amoeba_json::write_escaped`, the printers `Value::compact` uses, so
//! an event line is byte for byte what printing its `Value` tree gives
//! (the committed golden traces pin it). The codec only adds the
//! schema's own rules: non-finite floats and absent options are `null`,
//! and times travel as whole microseconds.

use std::fmt;

use amoeba_json::{write_escaped, Number, Value};
use amoeba_sim::SimTime;

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was wrong.
    pub message: String,
}

impl DecodeError {
    /// Wrap a message.
    pub fn new(message: String) -> Self {
        DecodeError { message }
    }

    pub(crate) fn missing(what: &str, key: &str) -> Self {
        DecodeError::new(format!("missing {what} '{key}'"))
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "telemetry decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

/// A value with a JSON form in the telemetry schema.
pub(crate) trait JsonField: Sized {
    /// Append the compact JSON form of `self`.
    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result;

    /// Read the value back from `v`, the member named `key` of a parsed
    /// object (`Null` when absent); `key` only names it in errors.
    fn read_json(v: &Value, key: &str) -> Result<Self, DecodeError>;
}

/// Read member `key` of the parsed object `obj`.
pub(crate) fn read_member<T: JsonField>(obj: &Value, key: &str) -> Result<T, DecodeError> {
    T::read_json(&obj[key], key)
}

impl JsonField for f64 {
    #[inline]
    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        if self.is_finite() {
            write!(out, "{}", Number::F64(*self))
        } else {
            out.write_str("null")
        }
    }

    fn read_json(v: &Value, key: &str) -> Result<Self, DecodeError> {
        v.as_f64()
            .ok_or_else(|| DecodeError::missing("number", key))
    }
}

macro_rules! unsigned_field {
    ($($t:ty),*) => { $(
        impl JsonField for $t {
            #[inline]
            fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
                write!(out, "{}", Number::U64(*self as u64))
            }

            fn read_json(v: &Value, key: &str) -> Result<Self, DecodeError> {
                v.as_u64()
                    .map(|n| n as $t)
                    .ok_or_else(|| DecodeError::missing("integer", key))
            }
        }
    )* };
}
unsigned_field!(u32, u64, usize);

/// Times travel as whole microseconds (keys end in `_us`).
impl JsonField for SimTime {
    #[inline]
    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        self.as_micros().write_json(out)
    }

    fn read_json(v: &Value, key: &str) -> Result<Self, DecodeError> {
        u64::read_json(v, key).map(SimTime::from_micros)
    }
}

impl JsonField for bool {
    #[inline]
    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        out.write_str(if *self { "true" } else { "false" })
    }

    fn read_json(v: &Value, key: &str) -> Result<Self, DecodeError> {
        v.as_bool().ok_or_else(|| DecodeError::missing("bool", key))
    }
}

impl JsonField for String {
    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        write_escaped(out, self)
    }

    fn read_json(v: &Value, key: &str) -> Result<Self, DecodeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DecodeError::missing("string", key))
    }
}

/// `None` is `null`; reading is lenient, so an absent or ill-typed
/// member reads as `None`.
impl<T: JsonField> JsonField for Option<T> {
    #[inline]
    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match self {
            Some(x) => x.write_json(out),
            None => out.write_str("null"),
        }
    }

    fn read_json(v: &Value, key: &str) -> Result<Self, DecodeError> {
        Ok(T::read_json(v, key).ok())
    }
}

impl<T: JsonField> JsonField for Vec<T> {
    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        out.write_str("[")?;
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.write_str(",")?;
            }
            x.write_json(out)?;
        }
        out.write_str("]")
    }

    fn read_json(v: &Value, key: &str) -> Result<Self, DecodeError> {
        v.as_array()
            .ok_or_else(|| DecodeError::missing("array", key))?
            .iter()
            .map(|x| T::read_json(x, key))
            .collect()
    }
}

impl<T: JsonField + Copy + Default> JsonField for [T; 3] {
    #[inline]
    fn write_json<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        out.write_str("[")?;
        self[0].write_json(out)?;
        out.write_str(",")?;
        self[1].write_json(out)?;
        out.write_str(",")?;
        self[2].write_json(out)?;
        out.write_str("]")
    }

    fn read_json(v: &Value, key: &str) -> Result<Self, DecodeError> {
        let arr = v
            .as_array()
            .ok_or_else(|| DecodeError::missing("array", key))?;
        if arr.len() != 3 {
            return Err(DecodeError::new(format!("'{key}' must have 3 entries")));
        }
        let mut out = [T::default(); 3];
        for (slot, x) in out.iter_mut().zip(arr) {
            *slot = T::read_json(x, key)?;
        }
        Ok(out)
    }
}
