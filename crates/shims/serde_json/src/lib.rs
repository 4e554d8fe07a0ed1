//! Minimal vendored stand-in for `serde_json` (offline build): renders the
//! serde shim's [`Value`] tree as JSON text.

use std::fmt;

pub use serde::Value;

/// Serialization error (the shim is infallible in practice; non-finite
/// floats render as `null` like serde_json's lossy modes).
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json serialization error")
    }
}

impl std::error::Error for Error {}

/// Compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Pretty JSON with two-space indentation (serde_json style).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // Keep integral floats recognizably floats ("1.0", not "1").
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    out.push_str(&format!("{f:.1}"));
                } else {
                    out.push_str(&format!("{f}"));
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            write_seq(out, items.iter(), indent, depth, ('[', ']'), |o, x, d| {
                write_value(o, x, indent, d)
            })
        }
        Value::Object(entries) => write_seq(
            out,
            entries.iter(),
            indent,
            depth,
            ('{', '}'),
            |o, (k, x), d| {
                write_string(o, k);
                o.push(':');
                if indent.is_some() {
                    o.push(' ');
                }
                write_value(o, x, indent, d);
            },
        ),
    }
}

fn write_seq<I, F>(
    out: &mut String,
    items: I,
    indent: Option<usize>,
    depth: usize,
    brackets: (char, char),
    mut write_item: F,
) where
    I: ExactSizeIterator,
    F: FnMut(&mut String, I::Item, usize),
{
    out.push(brackets.0);
    let n = items.len();
    if n == 0 {
        out.push(brackets.1);
        return;
    }
    for (i, item) in items.enumerate() {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(brackets.1);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = Value::Object(vec![
            ("a".into(), Value::UInt(1)),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1,"b":[true,null]}"#);
    }

    #[test]
    fn pretty_rendering_indents() {
        let v = Value::Object(vec![("x".into(), Value::Float(1.5))]);
        assert_eq!(to_string_pretty(&v).unwrap(), "{\n  \"x\": 1.5\n}");
    }

    #[test]
    fn floats_keep_decimal_point() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&2.25f64).unwrap(), "2.25");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(to_string(&"a\"b\n").unwrap(), r#""a\"b\n""#);
    }

    #[test]
    fn derived_fields_skip_and_flatten() {
        use serde::Serialize;
        #[derive(Serialize)]
        struct Inner {
            x: u8,
            #[serde(skip_serializing_if = "Option::is_none")]
            y: Option<u8>,
        }
        #[derive(Serialize)]
        struct Outer {
            a: u8,
            #[serde(flatten)]
            inner: Option<Inner>,
            #[serde(skip_serializing_if = "Vec::is_empty")]
            v: Vec<u8>,
            b: u8,
        }
        let full = Outer {
            a: 1,
            inner: Some(Inner { x: 2, y: Some(3) }),
            v: vec![4],
            b: 5,
        };
        assert_eq!(
            to_string(&full).unwrap(),
            r#"{"a":1,"x":2,"y":3,"v":[4],"b":5}"#
        );
        let bare = Outer {
            a: 1,
            inner: None,
            v: Vec::new(),
            b: 5,
        };
        assert_eq!(to_string(&bare).unwrap(), r#"{"a":1,"b":5}"#);
        let partial = Outer {
            inner: Some(Inner { x: 2, y: None }),
            ..bare
        };
        assert_eq!(to_string(&partial).unwrap(), r#"{"a":1,"x":2,"b":5}"#);
    }
}
