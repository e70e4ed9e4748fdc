//! Field declarations: the one place a field's name, type and bounds,
//! default and cache-key membership are written down.
//!
//! Request lines (`noc-service`), CLI flags and scenario manifest
//! sections all read and write their fields through these declarations,
//! so a field means the same thing on every surface. One rule holds for
//! every field: absent or `null` takes the default, and a value of the
//! wrong type or out of bounds is refused naming the field.

use noc_json::{FromJson, ToJson, Value};
use noc_placement::InitialStrategy;
use noc_traffic::SyntheticPattern;
use std::fmt::Write as _;

/// Upper bound on `n` for placement requests: large enough for every
/// setup in the paper (up to 16×16) with head-room, small enough that a
/// single request cannot monopolise a worker for minutes.
pub const MAX_N: usize = 64;
/// Largest mesh side the cycle-level simulator takes: `simulate` and
/// `throughput` requests and scenario topologies.
pub const MAX_SIM_N: usize = 32;
/// Widest flit, in bits.
pub const MAX_FLIT: u32 = 4_096;
/// Upper bound on the SA move budget per chain.
pub const MAX_MOVES: usize = 2_000_000;
/// Upper bound on parallel annealing chains and worker threads: bounded
/// so one request cannot fan out unbounded work (the move budget cap
/// applies per chain).
pub const MAX_CHAINS: usize = 64;
/// Upper bound on simulated cycles: a request's measurement window, and
/// a scenario phase's warmup plus measurement.
pub const MAX_CYCLES: u64 = 2_000_000;
/// Upper bound on weight-lattice points per `frontier` request: together
/// with the move cap this bounds one request's total SA work.
pub const MAX_WEIGHT_STEPS: usize = 33;
/// Upper bound on the phases of one scenario.
pub const MAX_PHASES: usize = 32;
/// Upper bound on a hop weight, `router_cycles` (`T_r`) or
/// `unit_link_cycles` (`T_l`). A path across the longest row costs at
/// most `(MAX_N − 1)·(T_r + T_l)` cycles, which must fit the `u32` the
/// latency solvers add hop costs in.
pub const MAX_HOP_CYCLES: u32 = 1_000_000;
const _: () = assert!((MAX_N as u64 - 1) * 2 * MAX_HOP_CYCLES as u64 <= u32::MAX as u64);
/// Lower bound on a saturation sweep's `start_rate`, which the sweep
/// itself asserts: from it the rate ladder reaches 1.0 within 28 points.
pub use noc_sim::MIN_START_RATE;

/// What a field holds, with its bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ty {
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// A number in `(0, 1]`.
    Rate,
    /// A number in `[min, 1]`.
    RateFrom(f64),
    /// A number in `(0, 1)`.
    Share,
    /// A finite number above 0.
    Positive,
    /// Any string.
    Text,
    /// A synthetic traffic pattern by name.
    Pattern,
    /// An initial-solution strategy by name.
    Strategy,
    /// `[[a, b], …]`, each a valid express link of the row.
    Links,
    /// `[[a, b], …]` router pairs, each stored as `(min, max)`.
    Spans,
    /// An object: the named manifest section.
    Section(&'static str),
    /// An array of at most `max` objects of the named manifest section.
    Sections(&'static str, usize),
    /// An object of matrix axes.
    Matrix,
    /// A scenario manifest.
    Manifest,
}

fn names<T>(table: &[(&str, T)], note: &str) -> String {
    table.iter().map(|e| e.0).collect::<Vec<_>>().join(", ") + note
}

impl Ty {
    /// Any unsigned 64-bit integer.
    pub const U64: Ty = Ty::Int(0, u64::MAX);

    /// The JSON type and the values it may take, for errors and the docs.
    pub(crate) fn describe(self) -> (&'static str, String) {
        match self {
            Ty::Int(min, max) => ("integer", format!("{min}..={max}")),
            Ty::Rate => ("number", "(0, 1]".into()),
            Ty::RateFrom(min) => ("number", format!("[{min}, 1]")),
            Ty::Share => ("number", "(0, 1)".into()),
            Ty::Positive => ("number", "> 0".into()),
            Ty::Text => ("string", "any".into()),
            Ty::Pattern => ("string", names(&SyntheticPattern::NAMES, "; any case")),
            Ty::Strategy => ("string", names(&InitialStrategy::NAMES, "; d&c = dnc")),
            Ty::Links => ("array", "[a, b] express links of the row".into()),
            Ty::Spans => ("array", "[a, b] router pairs".into()),
            Ty::Section(name) => ("object", format!("the `{name}` fields")),
            Ty::Sections(name, usize::MAX) => ("array", format!("objects of `{name}` fields")),
            Ty::Sections(name, max) => ("array", format!("up to {max} objects of `{name}` fields")),
            Ty::Matrix => ("object", "axis name: value list or {\"range\": …}".into()),
            Ty::Manifest => ("object", "a scenario manifest".into()),
        }
    }

    fn mismatch(self) -> String {
        let (ty, values) = self.describe();
        format!("expected {ty}, {values}")
    }

    /// The refusal of a value that is not of this type.
    pub(crate) fn refuse(self) -> FieldError {
        FieldError::Reason(self.mismatch())
    }

    /// Whether a value lies within the numeric bounds, if there are any.
    fn admits(self, v: &Value) -> bool {
        let number = v.as_f64();
        match self {
            Ty::Int(min, max) => v.as_u64().is_some_and(|x| (min..=max).contains(&x)),
            Ty::Rate => number.is_some_and(|r| r > 0.0 && r <= 1.0),
            Ty::RateFrom(min) => number.is_some_and(|r| (min..=1.0).contains(&r)),
            Ty::Share => number.is_some_and(|r| r > 0.0 && r < 1.0),
            Ty::Positive => number.is_some_and(|r| r.is_finite() && r > 0.0),
            _ => true,
        }
    }

    /// The JSON value a CLI flag's text stands for: numbers for numeric
    /// fields, read the way Rust reads them (`.02`, `5.`, `08` and `+8`
    /// too), `a-b,c-d` for links, JSON for a manifest, the text itself for
    /// the rest.
    pub fn flag_value(self, text: &str) -> Result<Value, String> {
        match self {
            Ty::Manifest => noc_json::parse(text).map_err(|e| format!("invalid JSON: {e}")),
            Ty::Int(..) | Ty::Rate | Ty::RateFrom(_) | Ty::Share | Ty::Positive => text
                .parse()
                .map(Value::Int)
                .or_else(|_| text.parse().map(Value::Float))
                .map_err(|_| self.mismatch()),
            Ty::Links | Ty::Spans => parse_links(text).map(|links| links.to_json()),
            _ => Ok(Value::Str(text.to_string())),
        }
    }
}

/// Parses a link list like `0-3,3-7,1-4`.
pub fn parse_links(text: &str) -> Result<Vec<(usize, usize)>, String> {
    text.split(',')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let (a, b) = pair
                .split_once('-')
                .ok_or_else(|| format!("bad link {pair:?}, expected A-B"))?;
            let endpoint = |s: &str| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("bad endpoint in {pair:?}"))
            };
            Ok((endpoint(a)?, endpoint(b)?))
        })
        .collect()
}

/// A refused field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldError {
    /// Why a value is refused, not yet tied to a field: the reader of the
    /// enclosing object names the field. From a rule spanning fields, it
    /// stands alone.
    Reason(String),
    /// A key the section does not declare.
    Unknown {
        /// The section holding the key.
        section: &'static str,
        /// The key.
        field: String,
    },
    /// A required field is absent.
    Missing {
        /// The section lacking the field.
        section: &'static str,
        /// The field.
        field: &'static str,
    },
    /// A value is malformed or out of bounds.
    Invalid {
        /// The field's path: `traffic.rate` in a manifest, `rate` on a
        /// request line.
        field: String,
        /// What is wrong with it.
        reason: String,
    },
}

impl FieldError {
    /// Ties a bare reason to field `name` of `section`.
    pub(crate) fn at(self, section: &str, name: &str) -> Self {
        match self {
            FieldError::Reason(reason) => FieldError::Invalid {
                field: if section.is_empty() {
                    name.to_string()
                } else {
                    format!("{section}.{name}")
                },
                reason,
            },
            named => named,
        }
    }

    /// The message a request line or a CLI flag shows; `label` names a
    /// field the way the surface does (`field "x"`, `flag --x`).
    pub fn message(&self, label: impl Fn(&str) -> String) -> String {
        match self {
            FieldError::Reason(reason) => reason.clone(),
            FieldError::Unknown { field, .. } => format!("unknown {}", label(field)),
            FieldError::Missing { field, .. } => format!("missing required {}", label(field)),
            FieldError::Invalid { field, reason } => format!("{}: {reason}", label(field)),
        }
    }
}

/// Whether a field may be left out, and how absence sets it.
pub enum Need<R> {
    /// Absence is refused.
    Required,
    /// Absence applies the setter (a no-op where `R::default()` already
    /// holds the default).
    Optional(fn(&mut R)),
    /// Like `Optional`, but left off lines and documents while at its
    /// default, so lines from before the field existed stay
    /// byte-identical.
    Quiet(fn(&mut R)),
}

/// One field of struct `R`; built by [`field!`](crate::field!).
pub struct Field<R> {
    /// Its name on every surface (`-` for `_` as a CLI flag).
    pub name: &'static str,
    /// What it holds.
    pub ty: Ty,
    /// Whether it may be left out.
    pub need: Need<R>,
    /// Whether a request's cache key covers it. Unkeyed fields change how
    /// a result is produced, never the result.
    pub keyed: bool,
    /// Reads a present, non-null value into `R`.
    pub read: fn(&mut R, &Value, Ty) -> Result<(), FieldError>,
    /// The value as lines carry it.
    pub write: fn(&R) -> Value,
    /// The value as a cache key holds it.
    pub key: fn(&R) -> Value,
}

/// `field!("name" => path.in.struct, ty, need)`, where `need` is
/// `Required`, `Optional(default)` or `Quiet(default)`, or a bare
/// `Optional`/`Quiet` when `Default` holds the default. A trailing
/// `, false` leaves the field out of cache keys.
#[macro_export]
macro_rules! field {
    ($name:literal => $($path:ident).+, $ty:expr, Required $(, $keyed:expr)?) => {
        $crate::field!(@ $name, [$($path).+], $ty, $crate::field::Need::Required, [$($keyed)?])
    };
    ($name:literal => $($path:ident).+, $ty:expr, $need:ident($default:expr) $(, $keyed:expr)?) => {
        $crate::field!(@ $name, [$($path).+], $ty,
            $crate::field::Need::$need(|r| r.$($path).+ = $default), [$($keyed)?])
    };
    ($name:literal => $($path:ident).+, $ty:expr, $need:ident $(, $keyed:expr)?) => {
        $crate::field!(@ $name, [$($path).+], $ty, $crate::field::Need::$need(|_| {}), [$($keyed)?])
    };
    (@ $name:literal, [$($path:ident).+], $ty:expr, $need:expr, [$($keyed:expr)?]) => {
        $crate::field::Field {
            name: $name,
            ty: $ty,
            need: $need,
            keyed: true $(&& $keyed)?,
            read: |r, v, ty| $crate::field::Wire::read(v, ty).map(|x| r.$($path).+ = x),
            write: |r| $crate::field::Wire::write(&r.$($path).+),
            key: |r| $crate::field::Wire::key(&r.$($path).+),
        }
    };
}

/// A struct read and written field by field: a request kind or a
/// manifest section.
pub trait Fields: Default + 'static {
    /// The section errors name: a manifest section, or empty for a
    /// request kind, whose fields are named alone.
    const SECTION: &'static str = "";
    /// Every field, in the order lines and documents carry them.
    const FIELDS: &'static [Field<Self>];
    /// What the `index`-th object of a list starts from.
    fn start(_index: usize) -> Self {
        Self::default()
    }
    /// The rules that span fields.
    fn check(&self) -> Result<(), FieldError> {
        Ok(())
    }
}

impl<R: Fields> Field<R> {
    /// The default as lines carry it; `None` if required.
    fn default_value(&self) -> Option<Value> {
        let (Need::Optional(set) | Need::Quiet(set)) = self.need else {
            return None;
        };
        let mut r = R::default();
        set(&mut r);
        Some((self.write)(&r))
    }
}

/// Reads an object into a fresh `R`. A strict read (a manifest section)
/// refuses keys no field declares, and a later duplicate key overrides an
/// earlier one; a lenient read (a request line) ignores other keys.
pub fn read<R: Fields>(v: &Value, strict: bool) -> Result<R, FieldError> {
    read_nth(v, 0, strict)
}

fn read_nth<R: Fields>(v: &Value, index: usize, strict: bool) -> Result<R, FieldError> {
    let Value::Obj(pairs) = v else {
        return Err(FieldError::Reason("expected object".into()));
    };
    if strict {
        if let Some((key, _)) = pairs
            .iter()
            .find(|(k, _)| !R::FIELDS.iter().any(|f| f.name == k))
        {
            return Err(FieldError::Unknown {
                section: R::SECTION,
                field: key.clone(),
            });
        }
    }
    let mut r = R::start(index);
    for f in R::FIELDS {
        let mut hits = pairs.iter().filter(|(k, _)| k == f.name).map(|(_, v)| v);
        let found = if strict {
            hits.next_back()
        } else {
            hits.next()
        };
        match (found, &f.need) {
            (None | Some(Value::Null), Need::Required) => {
                return Err(FieldError::Missing {
                    section: R::SECTION,
                    field: f.name,
                });
            }
            (None | Some(Value::Null), Need::Optional(set) | Need::Quiet(set)) => set(&mut r),
            (Some(value), _) => {
                (f.read)(&mut r, value, f.ty).map_err(|e| e.at(R::SECTION, f.name))?
            }
        }
    }
    r.check()?;
    Ok(r)
}

/// Reads `v` into the field of `r` named `name`; a refusal is a bare
/// [`FieldError::Reason`] for the caller to name.
pub(crate) fn set<R: Fields>(r: &mut R, name: &str, v: &Value) -> Result<(), FieldError> {
    let f = R::FIELDS.iter().find(|f| f.name == name);
    let f = f.ok_or_else(|| FieldError::Reason(format!("no field {name:?}")))?;
    (f.read)(r, v, f.ty)
}

/// Appends every field of `r` that lines carry: a quiet field only while
/// it is off its default.
pub fn write_into<R: Fields>(r: &R, out: &mut Vec<(String, Value)>) {
    let mut defaults = None;
    for f in R::FIELDS {
        let value = (f.write)(r);
        if let Need::Quiet(set) = f.need {
            let defaults = defaults.get_or_insert_with(R::default);
            set(defaults);
            if (f.write)(defaults) == value {
                continue;
            }
        }
        out.push((f.name.to_string(), value));
    }
}

/// `r` as an object: the exact inverse of [`read`].
pub(crate) fn write<R: Fields>(r: &R) -> Value {
    let mut out = Vec::with_capacity(R::FIELDS.len());
    write_into(r, &mut out);
    Value::Obj(out)
}

/// A field as documents, help text and tests see it.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDoc {
    /// Its name.
    pub name: &'static str,
    /// What it holds.
    pub ty: Ty,
    /// The default as lines carry it; `None` if required.
    pub default: Option<Value>,
    /// Whether it is left off while at its default.
    pub quiet: bool,
    /// Whether a cache key covers it.
    pub keyed: bool,
}

/// Every field of `R`, in declaration order.
pub fn docs<R: Fields>() -> Vec<FieldDoc> {
    R::FIELDS
        .iter()
        .map(|f| FieldDoc {
            name: f.name,
            ty: f.ty,
            default: f.default_value(),
            quiet: matches!(f.need, Need::Quiet(_)),
            keyed: f.keyed,
        })
        .collect()
}

/// The Markdown table of `fields`; `keyed` adds the cache-key column, and
/// `left_off` says where a quiet field is left off.
pub fn table(fields: &[FieldDoc], keyed: bool, left_off: &str) -> String {
    let mut out = String::from("| field | type | bounds | default |");
    out.push_str(if keyed {
        " keyed |\n|---|---|---|---|---|\n"
    } else {
        "\n|---|---|---|---|\n"
    });
    for f in fields {
        let (ty, bounds) = f.ty.describe();
        let default = match &f.default {
            None => "required".to_string(),
            Some(Value::Null) => "absent".to_string(),
            Some(v) if f.quiet => format!("`{}`, {left_off}", v.compact()),
            Some(v) => format!("`{}`", v.compact()),
        };
        let _ = write!(out, "| `{}` | {ty} | {bounds} | {default} |", f.name);
        if keyed {
            out.push_str(if f.keyed { " yes |" } else { " no |" });
        }
        out.push('\n');
    }
    out
}

/// A Rust type that a field holds.
pub trait Wire: Sized {
    /// Reads a present, non-null value.
    fn read(v: &Value, ty: Ty) -> Result<Self, FieldError>;
    /// The value as lines carry it.
    fn write(&self) -> Value;
    /// What a cache key holds for the value: by default what lines carry.
    fn key(&self) -> Value {
        self.write()
    }
}

/// Integers and numbers: plain JSON within the field's bounds.
macro_rules! json_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn read(v: &Value, ty: Ty) -> Result<Self, FieldError> {
                Self::from_json(v).filter(|_| ty.admits(v)).ok_or_else(|| ty.refuse())
            }
            fn write(&self) -> Value {
                self.to_json()
            }
        }
    )*};
}
json_wire!(u64, usize, u32, f64);

impl Wire for String {
    fn read(v: &Value, ty: Ty) -> Result<Self, FieldError> {
        Self::from_json(v).ok_or_else(|| ty.refuse())
    }
    fn write(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Wire for Vec<(usize, usize)> {
    fn read(v: &Value, ty: Ty) -> Result<Self, FieldError> {
        let links = Self::from_json(v).ok_or_else(|| ty.refuse())?;
        Ok(match ty {
            Ty::Spans => links.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect(),
            _ => links,
        })
    }
    fn write(&self) -> Value {
        self.to_json()
    }
}

/// Named enums: read by the name rules below, written as their table
/// name.
macro_rules! name_wire {
    ($($t:ty => $parse:ident),*) => {$(
        impl Wire for $t {
            fn read(v: &Value, _: Ty) -> Result<Self, FieldError> {
                let name = v.as_str().ok_or(FieldError::Reason("expected string".into()))?;
                $parse(name).map_err(FieldError::Reason)
            }
            fn write(&self) -> Value {
                Value::Str(self.name().to_string())
            }
        }
    )*};
}
name_wire!(
    SyntheticPattern => parse_pattern,
    InitialStrategy => parse_strategy
);

/// An optional value: absent (`None`) unless present.
impl<T: Wire> Wire for Option<T> {
    fn read(v: &Value, ty: Ty) -> Result<Self, FieldError> {
        T::read(v, ty).map(Some)
    }
    fn write(&self) -> Value {
        self.as_ref().map_or(Value::Null, Wire::write)
    }
}

/// A list of manifest sections, each read strictly.
impl<S: Fields> Wire for Vec<S> {
    fn read(v: &Value, ty: Ty) -> Result<Self, FieldError> {
        let max = match ty {
            Ty::Sections(_, max) => max,
            _ => usize::MAX,
        };
        let objects = |items: &&[Value]| {
            items.len() <= max && items.iter().all(|item| matches!(item, Value::Obj(_)))
        };
        let items = v.as_array().filter(objects).ok_or_else(|| ty.refuse())?;
        let read = |(i, item)| read_nth(item, i, true);
        items.iter().enumerate().map(read).collect()
    }
    fn write(&self) -> Value {
        Value::Arr(self.iter().map(write).collect())
    }
}

/// A traffic pattern by wire name, in any case.
pub fn parse_pattern(name: &str) -> Result<SyntheticPattern, String> {
    SyntheticPattern::from_name(&name.to_ascii_lowercase())
        .ok_or_else(|| format!("unknown pattern {name:?} ({})", Ty::Pattern.describe().1))
}

/// An initial-solution strategy by wire name; `d&c` also means `dnc`.
pub fn parse_strategy(name: &str) -> Result<InitialStrategy, String> {
    InitialStrategy::from_name(if name == "d&c" { "dnc" } else { name })
        .ok_or_else(|| format!("unknown strategy {name:?} ({})", Ty::Strategy.describe().1))
}
