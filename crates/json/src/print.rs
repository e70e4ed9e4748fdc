//! Compact and pretty JSON writers. Both write into a caller-owned
//! buffer: numbers are formatted in place and unescaped string runs are
//! copied as slices, so rendering allocates nothing beyond the buffer.

use crate::Value;
use std::fmt::Write as _;

pub(crate) fn write_compact(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => write_f64(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_compact(v, out);
            }
            out.push('}');
        }
    }
}

pub(crate) fn write_pretty(value: &Value, indent: usize, out: &mut String) {
    match value {
        Value::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Value::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(v, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

fn push_indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// JSON has no NaN/Infinity; mirror serde_json's lossy `null` for them.
fn write_f64(f: f64, out: &mut String) {
    if f.is_finite() {
        // `{:?}` prints the shortest string that round-trips the f64 and
        // always includes a decimal point or exponent.
        let _ = write!(out, "{f:?}");
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a quoted JSON string. Every byte that needs escaping is
/// ASCII, so the unescaped runs between them are copied as `&str` slices.
pub(crate) fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use crate::{parse, Value};

    #[test]
    fn compact_and_pretty_round_trip() {
        let v = parse(r#"{"a":[1,2.5,"x"],"b":{"c":null,"d":[]},"e":true}"#).unwrap();
        assert_eq!(parse(&v.compact()).unwrap(), v);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
        assert!(v.pretty().contains("\n  \"a\": ["));
    }

    #[test]
    fn floats_distinguishable_from_ints() {
        assert_eq!(Value::Float(1.0).compact(), "1.0");
        assert_eq!(Value::Int(1).compact(), "1");
        assert_eq!(Value::Float(f64::NAN).compact(), "null");
    }

    #[test]
    fn control_chars_escaped() {
        let v = Value::Str("a\u{1}b".into());
        assert_eq!(v.compact(), "\"a\\u0001b\"");
        assert_eq!(parse(&v.compact()).unwrap(), v);
    }
}
