//! Compact and pretty JSON writers. Both write into a caller-owned
//! buffer: numbers are formatted in place and unescaped string runs are
//! copied as slices, so rendering allocates nothing beyond the buffer.
//! The crate root exports the scalar writers (as `write_str`,
//! `write_escaped`, `write_int` and `write_float`), so text written by
//! hand matches a rendered [`Value`] byte for byte.

use crate::Value;
use std::fmt::Write as _;

pub(crate) fn write_compact(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => write_int(*i, out),
        Value::Float(f) => write_float(*f, out),
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

/// Writes `i` in decimal, as `format!("{i}")` does. A magnitude that
/// fits a `u64` is written digit by digit; only wider `i128`s go through
/// the `fmt` machinery.
pub(crate) fn write_int(i: i128, out: &mut String) {
    let Ok(mut magnitude) = u64::try_from(i.unsigned_abs()) else {
        let _ = write!(out, "{i}");
        return;
    };
    if i < 0 {
        out.push('-');
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (magnitude % 10) as u8;
        magnitude /= 10;
        if magnitude == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// JSON has no NaN/Infinity; mirror serde_json's lossy `null` for them.
pub(crate) fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        // `{:?}` prints the shortest string that round-trips the f64 and
        // always includes a decimal point or exponent.
        let _ = write!(out, "{f:?}");
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a quoted JSON string.
pub(crate) fn write_string(s: &str, out: &mut String) {
    out.push('"');
    write_escaped(s, out);
    out.push('"');
}

/// Writes `s` escaped as the inside of a JSON string. Every byte that
/// needs escaping is ASCII, so the unescaped runs between them are copied
/// as `&str` slices.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
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
