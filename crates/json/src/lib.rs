//! Self-contained JSON: a [`Value`] model, a strict parser, compact and
//! pretty printers, and [`ToJson`]/[`FromJson`] conversion traits with a
//! [`json_struct!`] macro for plain structs.
//!
//! This replaces `serde`/`serde_json` (unavailable in offline builds) for
//! the two places the workspace needs JSON: archiving experiment results
//! under `results/*.json`, and the `noc-service` newline-delimited wire
//! protocol.
//!
//! Integers are kept in an [`i128`] variant so every `u64`/`i64` value
//! (seeds, cycle counts, fingerprints) round-trips exactly; only genuine
//! floating-point data goes through `f64`.

mod parse;
mod print;

pub use parse::{parse, ParseError};

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction/exponent), exact up to 128 bits.
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view (integers widen losslessly where they fit in f64).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view; floats with zero fraction are accepted.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 2f64.powi(96) => Some(*f as i128),
            _ => None,
        }
    }

    /// Unsigned integer view.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i128().and_then(|i| u64::try_from(i).ok())
    }

    /// `usize` view.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i128().and_then(|i| usize::try_from(i).ok())
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Single-line rendering (the wire format).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the single-line rendering to `out`: [`Value::compact`]
    /// into a caller-owned buffer, so a value can be framed inside a larger
    /// line without being cloned or rendered twice.
    pub fn write_compact(&self, out: &mut String) {
        print::write_compact(self, out);
    }

    /// Indented rendering (the `results/*.json` archive format).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        print::write_pretty(self, 0, &mut out);
        out
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string: the rendering
/// of `Value::Str(s)` without building the [`Value`].
pub fn write_str(s: &str, out: &mut String) {
    print::write_string(s, out);
}

/// Conversion into a [`Value`].
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Value;
}

/// Conversion from a [`Value`]; `None` on shape mismatch.
pub trait FromJson: Sized {
    /// Reads `Self` out of a JSON value.
    fn from_json(v: &Value) -> Option<Self>;
}

/// Renders any [`ToJson`] type as pretty JSON (serde_json::to_string_pretty
/// stand-in; infallible).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().pretty()
}

/// Parses a string into any [`FromJson`] type (serde_json::from_str
/// stand-in).
pub fn from_str<T: FromJson>(s: &str) -> Result<T, ParseError> {
    let v = parse(s)?;
    T::from_json(&v).ok_or(ParseError::shape())
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value { Value::Int(*self as i128) }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Option<Self> {
                v.as_i128().and_then(|i| <$t>::try_from(i).ok())
            }
        }
    )*};
}
json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}
impl FromJson for f64 {
    fn from_json(v: &Value) -> Option<Self> {
        v.as_f64()
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        Value::Float(*self as f64)
    }
}
impl FromJson for f32 {
    fn from_json(v: &Value) -> Option<Self> {
        v.as_f64().map(|f| f as f32)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}
impl FromJson for bool {
    fn from_json(v: &Value) -> Option<Self> {
        v.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl FromJson for String {
    fn from_json(v: &Value) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Option<Self> {
        v.as_array()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Value) -> Option<Self> {
        let items = v.as_array()?;
        if items.len() != N {
            return None;
        }
        let parsed: Option<Vec<T>> = items.iter().map(T::from_json).collect();
        parsed?.try_into().ok()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(t) => t.to_json(),
            None => Value::Null,
        }
    }
}
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Option<Self> {
        match v {
            Value::Null => Some(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Value {
        (*self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}
impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Option<Self> {
        match v.as_array()? {
            [a, b] => Some((A::from_json(a)?, B::from_json(b)?)),
            _ => None,
        }
    }
}

/// Implements [`ToJson`] + [`FromJson`] for a plain struct with named
/// fields, mapping each field to an object key of the same name:
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Point { x: f64, y: f64 }
/// noc_json::json_struct!(Point { x, y });
///
/// use noc_json::{FromJson, ToJson};
/// let p = Point { x: 1.0, y: 2.5 };
/// let round = Point::from_json(&p.to_json()).unwrap();
/// assert_eq!(round, p);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::ToJson::to_json(&self.$field)),)*
                ])
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> Option<Self> {
                Some($ty {
                    $($field: $crate::FromJson::from_json(
                        v.get(stringify!($field))?)?,)*
                })
            }
        }
    };
}

/// Builds a [`Value::Obj`] literal: `obj! { "k" => v.to_json(), ... }`.
#[macro_export]
macro_rules! obj {
    ($($key:expr => $val:expr),* $(,)?) => {
        $crate::Value::Obj(vec![$(($key.to_string(), $val)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Nested {
        label: String,
        weights: Vec<f64>,
    }
    json_struct!(Nested { label, weights });

    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        id: u64,
        flag: bool,
        inner: Vec<Nested>,
        maybe: Option<i32>,
    }
    json_struct!(Outer {
        id,
        flag,
        inner,
        maybe
    });

    #[test]
    fn struct_round_trip() {
        let value = Outer {
            id: u64::MAX,
            flag: true,
            inner: vec![Nested {
                label: "a\"b\\c\n".into(),
                weights: vec![1.0, -0.25, 1e-9],
            }],
            maybe: None,
        };
        let text = to_string_pretty(&value);
        let back: Outer = from_str(&text).unwrap();
        assert_eq!(back, value);
        let compact: Outer = from_str(&value.to_json().compact()).unwrap();
        assert_eq!(compact, value);
    }

    #[test]
    fn u64_is_exact() {
        let v = (u64::MAX).to_json();
        assert_eq!(v.compact(), "18446744073709551615");
        assert_eq!(
            u64::from_json(&parse(&v.compact()).unwrap()),
            Some(u64::MAX)
        );
    }

    #[test]
    fn float_round_trips_shortest() {
        for &f in &[0.1, 1.0 / 3.0, 6.5625, -2.5e-17, 1e300] {
            let text = f.to_json().compact();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, f, "text {text}");
        }
    }

    #[test]
    fn option_and_missing_key() {
        let v = parse(r#"{"maybe": 3, "id": 1, "flag": false, "inner": []}"#).unwrap();
        let outer = Outer::from_json(&v).unwrap();
        assert_eq!(outer.maybe, Some(3));
        // A missing non-optional key fails cleanly.
        let v = parse(r#"{"id": 1}"#).unwrap();
        assert!(Outer::from_json(&v).is_none());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": [1, 2.5, "x", null, true]}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_usize(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(arr[3], Value::Null);
        assert_eq!(arr[4].as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
    }
}
