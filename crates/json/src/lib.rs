#![warn(missing_docs)]
//! A small, self-contained JSON layer: [`Value`], the [`json!`]
//! constructor macro, compact/pretty printers and a strict parser.
//!
//! The experiment reports and the telemetry trace both speak JSON; the
//! container this workspace builds in has no access to crates.io, so the
//! subset of `serde_json` the repo actually needs lives here. The subset
//! is deliberately small: object keys are strings, numbers are `f64` or
//! `u64`/`i64`, and everything is eagerly owned.

pub mod parse;
pub mod value;

pub use parse::{parse, ParseError};
pub use value::{write_escaped, Number, Value};

/// Render any [`Value`] with two-space indentation.
pub fn to_string_pretty(v: &Value) -> Result<String, core::fmt::Error> {
    Ok(v.pretty())
}

/// Construct a [`Value`] from literal-ish syntax, a small cousin of
/// `serde_json::json!`:
///
/// ```
/// use amoeba_json::json;
/// let v = json!({"name": "dd", "qps": 12.5, "tags": ["io", "disk"]});
/// assert_eq!(v["name"], "dd");
/// ```
///
/// Keys are string literals; values are nested `{...}` / `[...]`
/// literals, `null`, or arbitrary expressions convertible to `Value`
/// via `Value::from`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => { $crate::__json_array!(@elems [] $($tt)*) };
    ({ $($tt:tt)* }) => { $crate::__json_object!(@entries [] $($tt)*) };
    ($other:expr) => { $crate::Value::from(&$other) };
}

// Array elements, accumulated as exprs inside the bracketed group so the
// raw (not yet parsed) tokens after it can't be confused with them. Each
// step peels one element — `null` and nested literals first, then a
// general expression (the `expr` fragment stops at the top-level comma).
#[macro_export]
#[doc(hidden)]
macro_rules! __json_array {
    (@elems [$($elems:expr,)*]) => {
        $crate::Value::Array(vec![$($elems,)*])
    };
    (@elems [$($elems:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::__json_array!(@elems [$($elems,)* $crate::Value::Null,] $($($rest)*)?)
    };
    (@elems [$($elems:expr,)*] [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $crate::__json_array!(@elems [$($elems,)* $crate::json!([$($inner)*]),] $($($rest)*)?)
    };
    (@elems [$($elems:expr,)*] {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $crate::__json_array!(@elems [$($elems,)* $crate::json!({$($inner)*}),] $($($rest)*)?)
    };
    (@elems [$($elems:expr,)*] $next:expr $(, $($rest:tt)*)?) => {
        $crate::__json_array!(@elems [$($elems,)* $crate::Value::from(&$next),] $($($rest)*)?)
    };
}

// Object entries; same accumulation scheme, keyed by string literals.
#[macro_export]
#[doc(hidden)]
macro_rules! __json_object {
    (@entries [$($entries:expr,)*]) => {
        $crate::Value::Object(vec![$($entries,)*])
    };
    (@entries [$($entries:expr,)*] $key:literal : null $(, $($rest:tt)*)?) => {
        $crate::__json_object!(
            @entries [$($entries,)* ($key.to_string(), $crate::Value::Null),] $($($rest)*)?
        )
    };
    (@entries [$($entries:expr,)*] $key:literal : [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $crate::__json_object!(
            @entries [$($entries,)* ($key.to_string(), $crate::json!([$($inner)*])),] $($($rest)*)?
        )
    };
    (@entries [$($entries:expr,)*] $key:literal : {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $crate::__json_object!(
            @entries [$($entries,)* ($key.to_string(), $crate::json!({$($inner)*})),] $($($rest)*)?
        )
    };
    (@entries [$($entries:expr,)*] $key:literal : $val:expr $(, $($rest:tt)*)?) => {
        $crate::__json_object!(
            @entries [$($entries,)* ($key.to_string(), $crate::Value::from(&$val)),] $($($rest)*)?
        )
    };
}

#[cfg(test)]
mod tests {
    use crate::Value;

    #[test]
    fn macro_builds_nested_values() {
        let name = "float";
        let v = json!({
            "name": name,
            "qps": 12.5,
            "hits": 3u64,
            "ok": true,
            "none": null,
            "inner": {"a": 1.0},
            "arr": [1.0, 2.0],
        });
        assert_eq!(v["name"], "float");
        assert_eq!(v["qps"].as_f64(), Some(12.5));
        assert_eq!(v["hits"].as_u64(), Some(3));
        assert_eq!(v["ok"], Value::Bool(true));
        assert!(v["none"].is_null());
        assert_eq!(v["inner"]["a"].as_f64(), Some(1.0));
        assert_eq!(v["arr"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn macro_accepts_expressions_and_vecs() {
        let rows: Vec<Value> = vec![json!({"x": 1.0}), json!({"x": 2.0})];
        let v = json!(rows);
        assert_eq!(v.as_array().unwrap().len(), 2);
        let opt: Value = json!(2.0 + 3.0);
        assert_eq!(opt.as_f64(), Some(5.0));
    }

    #[test]
    fn macro_accepts_multi_token_expressions() {
        struct Row {
            qps: f64,
        }
        let r = Row { qps: 3.5 };
        let nan = f64::NAN;
        let v = json!({
            "field": r.qps,
            "call": r.qps.max(1.0),
            "cond": if nan.is_nan() { Value::Null } else { json!(nan) },
            "arr": [r.qps, r.qps * 2.0],
        });
        assert_eq!(v["field"].as_f64(), Some(3.5));
        assert_eq!(v["call"].as_f64(), Some(3.5));
        assert!(v["cond"].is_null());
        assert_eq!(v["arr"][1].as_f64(), Some(7.0));
    }

    #[test]
    fn pretty_round_trips_through_parser() {
        let v = json!({"a": [1.0, {"b": "x\"y"}], "c": null});
        let text = crate::to_string_pretty(&v).unwrap();
        let back = crate::parse(&text).unwrap();
        assert_eq!(v, back);
    }
}
