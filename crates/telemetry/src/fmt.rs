//! Shared JSON formatting helpers for the sinks. No JSON crate is
//! vendored; `{:?}` on `f64` prints the shortest round-trippable
//! representation, and strings are escaped by [`push_string`].

use crate::json::push_string;
use crate::recorder::{Fields, Value};
use std::fmt::Write as _;

/// Append a finite JSON number; non-finite floats become `null` so the
/// output always stays well-formed.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Append one field value.
pub(crate) fn push_value(out: &mut String, v: &Value<'_>) {
    match v {
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) => push_f64(out, *x),
        Value::Str(s) => push_string(out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Append `fields` as a JSON object (braces included).
pub(crate) fn push_fields(out: &mut String, fields: Fields<'_>) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_string(out, k);
        out.push(':');
        push_value(out, v);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_floats_become_null() {
        let mut s = String::new();
        push_f64(&mut s, f64::NAN);
        s.push(' ');
        push_f64(&mut s, f64::INFINITY);
        assert_eq!(s, "null null");
    }

    #[test]
    fn fields_render_as_object() {
        let mut s = String::new();
        push_fields(
            &mut s,
            &[
                ("n", Value::U64(3)),
                ("x", Value::F64(1.5)),
                ("ok", Value::Bool(true)),
                ("who", Value::Str("site-0")),
                ("d", Value::I64(-2)),
            ],
        );
        assert_eq!(
            s,
            "{\"n\":3,\"x\":1.5,\"ok\":true,\"who\":\"site-0\",\"d\":-2}"
        );
    }
}
