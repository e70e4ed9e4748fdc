//! Seeded round-trip properties of the printer and parser: for random
//! trees, `parse(compact(v))` reproduces `v` bit for bit (non-finite
//! floats become `null`), `write_compact` appends exactly `compact`, and
//! the pretty form parses back to the same tree.

use noc_json::{parse, write_str, Value};

/// SplitMix64: a dependency-free seeded stream for the generators.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Pieces strings are built from: plain runs, every escape the printer
/// writes, other control characters, and one- to four-byte UTF-8.
const PIECES: &[&str] = &[
    "plain",
    "x",
    " ",
    "\"",
    "\\",
    "/",
    "\n",
    "\r",
    "\t",
    "\u{0}",
    "\u{8}",
    "\u{c}",
    "\u{1f}",
    "\u{7f}",
    "é",
    "ß",
    "直",
    "€",
    "😀",
    "\u{10ffff}",
];

fn random_string(s: &mut Stream) -> String {
    (0..s.below(8))
        .map(|_| PIECES[s.below(PIECES.len())])
        .collect()
}

fn random_float(s: &mut Stream) -> f64 {
    match s.below(8) {
        0 => -0.0,
        1 => f64::from_bits(1 + s.next() % ((1u64 << 52) - 1)), // subnormal
        2 => f64::MIN_POSITIVE,
        3 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][s.below(3)],
        4 => (s.next() as i64 >> 11) as f64, // integral values print as "N.0"
        _ => f64::from_bits(s.next()),
    }
}

fn random_value(s: &mut Stream, depth: usize) -> Value {
    let kinds = if depth == 0 { 5 } else { 7 };
    match s.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(s.next() & 1 == 1),
        2 => Value::Int(match s.below(5) {
            0 => i128::MIN,
            1 => i128::MAX,
            2 => u64::MAX as i128,
            _ => (s.next() as i64 as i128) << s.below(64),
        }),
        3 => Value::Float(random_float(s)),
        4 => Value::Str(random_string(s)),
        5 => Value::Arr(
            (0..s.below(5))
                .map(|_| random_value(s, depth - 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..s.below(5))
                .map(|_| (random_string(s), random_value(s, depth - 1)))
                .collect(),
        ),
    }
}

/// `v` as it reads back from JSON: non-finite floats become `null`.
fn finite(v: &Value) -> Value {
    match v {
        Value::Float(f) if !f.is_finite() => Value::Null,
        Value::Arr(items) => Value::Arr(items.iter().map(finite).collect()),
        Value::Obj(pairs) => {
            Value::Obj(pairs.iter().map(|(k, v)| (k.clone(), finite(v))).collect())
        }
        other => other.clone(),
    }
}

/// Structural equality with floats compared by bit pattern, so `-0.0`
/// must come back as `-0.0`, not merely as something `== 0.0`.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Arr(x), Value::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b))
        }
        (Value::Obj(x), Value::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb))
        }
        _ => a == b,
    }
}

#[test]
fn compact_round_trips_random_trees() {
    for seed in 0..2_000 {
        let mut s = Stream(seed);
        let v = random_value(&mut s, 4);
        let text = v.compact();
        assert!(!text.contains('\n'), "compact output spans lines: {text}");
        let back = parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        assert!(same(&back, &finite(&v)), "seed {seed}: {text}\n{back:?}");
        // Appending into a non-empty buffer writes exactly `compact`.
        let mut buf = String::from("[0,");
        v.write_compact(&mut buf);
        assert_eq!(&buf[3..], text, "seed {seed}");
        // The pretty form is the same document.
        let pretty = parse(&v.pretty()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(same(&pretty, &finite(&v)), "seed {seed}: pretty differs");
    }
}

#[test]
fn scalar_edge_cases_round_trip() {
    let cases = [
        Value::Int(i128::MIN),
        Value::Int(i128::MAX),
        Value::Int(0),
        Value::Float(-0.0),
        Value::Float(f64::from_bits(1)),
        Value::Float(f64::MIN_POSITIVE / 2.0),
        Value::Float(f64::MAX),
        Value::Float(f64::MIN),
        Value::Float(1e16),
        Value::Str("\u{0}\u{1f}\"\\/é直😀\u{7f}".into()),
        Value::Str(String::new()),
    ];
    for v in cases {
        let text = v.compact();
        assert!(same(&parse(&text).unwrap(), &v), "{v:?} -> {text}");
    }
    assert_eq!(Value::Float(-0.0).compact(), "-0.0");
    assert_eq!(Value::Int(i128::MIN).compact(), i128::MIN.to_string());
    for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Value::Float(f).compact(), "null");
    }
}

#[test]
fn write_str_matches_the_string_value() {
    for seed in 0..500 {
        let text = random_string(&mut Stream(seed));
        let mut buf = String::new();
        write_str(&text, &mut buf);
        assert_eq!(buf, Value::Str(text.clone()).compact());
        assert_eq!(parse(&buf).unwrap(), Value::Str(text));
    }
    let mut buf = String::new();
    write_str("a\"b\\c\nd\u{1}é", &mut buf);
    assert_eq!(buf, r#""a\"b\\c\nd\u0001é""#);
}

#[test]
fn raw_control_characters_in_strings_are_rejected() {
    for byte in 0u8..0x20 {
        let c = byte as char;
        for doc in [
            format!("\"{c}\""),
            format!("\"plain run {c}\""),
            format!("\"é直{c}😀\""),
            format!("\"\\n{c}\""),
            format!("{{\"key{c}\":1}}"),
        ] {
            assert!(parse(&doc).is_err(), "accepted raw {byte:#04x} in {doc:?}");
        }
    }
    // DEL and everything above it are ordinary characters.
    assert_eq!(parse("\"\u{7f}\"").unwrap(), Value::Str("\u{7f}".into()));
}

#[test]
fn long_strings_parse_in_one_pass() {
    // Each unescaped run is copied as one slice; a long multi-byte string
    // with escapes sprinkled through it must come back unchanged.
    let text: String = (0..20_000)
        .map(|i| if i % 1000 == 0 { "\"\\\n" } else { "é直a" })
        .collect();
    let doc = Value::Str(text.clone()).compact();
    assert_eq!(parse(&doc).unwrap(), Value::Str(text));
}
