//! Every request kind, declared once.
//!
//! A compute kind is its request struct plus one field declaration per
//! wire field: its name, type and bounds, default (or that it is
//! required), and whether the cache key covers it. Parsing, request lines,
//! cache keys, [`Request::kind`] and the metrics labels all read these
//! declarations, and `docs/PROTOCOL.md` is checked against [`reference()`].
//!
//! One rule holds for every field: absent or `null` takes the default,
//! and a value of the wrong type or out of bounds is a `bad_request`
//! naming the field. Rules that span fields are one check per kind.

use crate::protocol::{
    FrontierRequest, OptimalRequest, Request, ScenarioRequest, SimulateRequest, SolveRequest,
    SweepRequest, ThroughputRequest, MAX_CHAINS, MAX_CYCLES, MAX_MOVES, MAX_N, MAX_WEIGHT_STEPS,
};
use noc_json::{FromJson, ToJson, Value};
use noc_placement::{EvalMode, InitialStrategy};
use noc_routing::HopWeights;
use noc_scenario::Manifest;
use noc_sim::MAX_LANES;
use noc_topology::{RowPlacement, MAX_C};
use noc_traffic::SyntheticPattern;
use std::fmt::Write as _;

/// What a field holds on the wire, with its bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// A number in `(0, 1]`.
    Rate,
    Pattern,
    Strategy,
    Evaluator,
    /// `[[a, b], …]`, each a valid express link of the row.
    Links,
    Manifest,
}

fn names<T>(table: &[(&str, T)], note: &str) -> String {
    table.iter().map(|e| e.0).collect::<Vec<_>>().join(", ") + note
}

impl Ty {
    /// The JSON type and the values it may take, for errors and the docs.
    fn describe(self) -> (&'static str, String) {
        match self {
            Ty::Int(min, max) => ("integer", format!("{min}..={max}")),
            Ty::Rate => ("number", "(0, 1]".into()),
            Ty::Pattern => ("string", names(&SyntheticPattern::NAMES, "; any case")),
            Ty::Strategy => ("string", names(&InitialStrategy::NAMES, "; d&c = dnc")),
            Ty::Evaluator => ("string", names(&EvalMode::NAMES, "")),
            Ty::Links => ("array", "[a, b] express links of the row".into()),
            Ty::Manifest => ("object", "a scenario manifest".into()),
        }
    }

    fn mismatch(self) -> String {
        let (ty, values) = self.describe();
        format!("expected {ty}, {values}")
    }

    /// Whether a value lies within the numeric bounds, if there are any.
    fn admits(self, v: &Value) -> bool {
        match self {
            Ty::Int(min, max) => v.as_u64().is_some_and(|x| (min..=max).contains(&x)),
            Ty::Rate => v.as_f64().is_some_and(|r| r > 0.0 && r <= 1.0),
            _ => true,
        }
    }
}

/// Whether a field may be left out of a request line, and its default.
enum Need<R> {
    Required,
    Optional(fn(&mut R)),
    /// Like `Optional`, but left off request lines while at its default,
    /// so lines from before the field existed stay byte-identical.
    Quiet(fn(&mut R)),
}

/// Unkeyed fields change how a result is produced, never the result, so
/// any value may serve a cache hit that another value produced.
const KEYED: bool = true;
const UNKEYED: bool = false;

/// One wire field of request struct `R`.
struct Field<R> {
    name: &'static str,
    ty: Ty,
    need: Need<R>,
    keyed: bool,
    read: fn(&mut R, &Value, Ty) -> Result<(), String>,
    write: fn(&R) -> Value,
    key: fn(&R) -> Value,
}

/// `field!("name" => path.in.struct, ty, need, keyed)`, where `need` is
/// `Required`, `Optional(default)` or `Quiet(default)`.
macro_rules! field {
    ($name:literal => $($path:ident).+, $ty:expr, Required, $keyed:expr) => {
        field!(@ $name, [$($path).+], $ty, Need::Required, $keyed)
    };
    ($name:literal => $($path:ident).+, $ty:expr, $need:ident($default:expr), $keyed:expr) => {
        field!(@ $name, [$($path).+], $ty, Need::$need(|r| r.$($path).+ = $default), $keyed)
    };
    (@ $name:literal, [$($path:ident).+], $ty:expr, $need:expr, $keyed:expr) => {
        Field {
            name: $name,
            ty: $ty,
            need: $need,
            keyed: $keyed,
            read: |r, v, ty| Wire::read(v, ty).map(|x| r.$($path).+ = x),
            write: |r| r.$($path).+.write(),
            key: |r| r.$($path).+.key(),
        }
    };
}

/// A Rust type that a wire field holds.
trait Wire: Sized {
    /// Reads a present, non-null value; `Err` says what was expected.
    fn read(v: &Value, ty: Ty) -> Result<Self, String>;
    fn write(&self) -> Value;
    /// What the cache key holds for the value: by default what request
    /// lines carry.
    fn key(&self) -> Value {
        self.write()
    }
}

/// Integers, rates and links: plain JSON within the field's bounds.
macro_rules! json_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn read(v: &Value, ty: Ty) -> Result<Self, String> {
                Self::from_json(v).filter(|_| ty.admits(v)).ok_or_else(|| ty.mismatch())
            }
            fn write(&self) -> Value {
                self.to_json()
            }
        }
    )*};
}
json_wire!(u64, usize, u32, f64, Vec<(usize, usize)>);

/// Named enums: read by the name rules the CLI shares, written as their
/// table name.
macro_rules! name_wire {
    ($($t:ty => $parse:ident),*) => {$(
        impl Wire for $t {
            fn read(v: &Value, _: Ty) -> Result<Self, String> {
                $parse(v.as_str().ok_or("expected string")?)
            }
            fn write(&self) -> Value {
                Value::Str(self.name().to_string())
            }
        }
    )*};
}
name_wire!(
    SyntheticPattern => parse_pattern,
    InitialStrategy => parse_strategy,
    EvalMode => parse_evaluator
);

impl Wire for Manifest {
    fn read(v: &Value, _: Ty) -> Result<Self, String> {
        Manifest::from_value(v).map_err(|e| format!("invalid manifest: {e}"))
    }
    fn write(&self) -> Value {
        self.to_value()
    }
    /// The fingerprint covers every field, expansion order included.
    fn key(&self) -> Value {
        noc_scenario::manifest_fingerprint(self).to_json()
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

/// A candidate-evaluation mode by wire name.
pub fn parse_evaluator(name: &str) -> Result<EvalMode, String> {
    EvalMode::from_name(name).ok_or_else(|| {
        format!(
            "unknown evaluator {name:?} ({})",
            Ty::Evaluator.describe().1
        )
    })
}

/// A compute kind's request struct and its declaration.
trait Kind: Default + 'static {
    /// Every wire field, in request-line order.
    const FIELDS: &'static [Field<Self>];
    /// The [`Request`] variant that holds the struct.
    const WRAP: fn(Self) -> Request;
    /// The rules that span fields.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }
}

impl<R: Default> Field<R> {
    /// The default as request lines carry it; `None` if required.
    fn default_value(&self) -> Option<Value> {
        let (Need::Optional(set) | Need::Quiet(set)) = self.need else {
            return None;
        };
        let mut r = R::default();
        set(&mut r);
        Some((self.write)(&r))
    }
}

/// The fields of a compute request, whatever its kind.
pub(crate) trait Body {
    /// Appends every field a request line carries.
    fn write(&self, out: &mut Vec<(String, Value)>);
    /// Appends the keyed fields as one compact JSON array: the cache key.
    fn key(&self, out: &mut String);
}

impl<R: Kind> Body for R {
    fn write(&self, out: &mut Vec<(String, Value)>) {
        for f in R::FIELDS {
            let value = (f.write)(self);
            if !matches!(f.need, Need::Quiet(_)) || f.default_value().as_ref() != Some(&value) {
                out.push((f.name.to_string(), value));
            }
        }
    }

    fn key(&self, out: &mut String) {
        let keyed = R::FIELDS.iter().filter(|f| f.keyed);
        Value::Arr(keyed.map(|f| (f.key)(self)).collect()).write_compact(out);
    }
}

fn parse<R: Kind>(v: &Value) -> Result<Request, String> {
    let mut r = R::default();
    for f in R::FIELDS {
        match (v.get(f.name), &f.need) {
            (None | Some(Value::Null), Need::Required) => {
                return Err(format!("missing required field {:?}", f.name));
            }
            (None | Some(Value::Null), Need::Optional(set) | Need::Quiet(set)) => set(&mut r),
            (Some(value), _) => {
                (f.read)(&mut r, value, f.ty).map_err(|why| format!("field {:?}: {why}", f.name))?
            }
        }
    }
    r.check()?;
    Ok(R::WRAP(r))
}

fn table<R: Kind>() -> String {
    let mut out =
        String::from("| field | type | bounds | default | keyed |\n|---|---|---|---|---|\n");
    for f in R::FIELDS {
        let (ty, bounds) = f.ty.describe();
        let default = match (f.default_value(), &f.need) {
            (None, _) => "required".to_string(),
            (Some(v), Need::Quiet(_)) => format!("`{}`, left off lines", v.compact()),
            (Some(v), _) => format!("`{}`", v.compact()),
        };
        let (name, keyed) = (f.name, if f.keyed { "yes" } else { "no" });
        let _ = writeln!(out, "| `{name}` | {ty} | {bounds} | {default} | {keyed} |");
    }
    out
}

/// One request kind.
pub struct KindSpec {
    /// Wire name, also the kind's metrics label.
    pub name: &'static str,
    /// Whether the response is a multi-line stream.
    pub streaming: bool,
    pub(crate) parse: fn(&Value) -> Result<Request, String>,
    table: fn() -> String,
}

const fn compute<R: Kind>(name: &'static str, streaming: bool) -> KindSpec {
    KindSpec {
        name,
        streaming,
        parse: parse::<R>,
        table: table::<R>,
    }
}

const fn inline(name: &'static str, parse: fn(&Value) -> Result<Request, String>) -> KindSpec {
    KindSpec {
        name,
        streaming: false,
        parse,
        table: || "No fields; answered inline.\n".into(),
    }
}

/// Every request kind, in the order of the [`Request`] variants, which
/// the metrics labels and `docs/PROTOCOL.md` follow.
pub static KINDS: [KindSpec; 12] = [
    compute::<SolveRequest>("solve", false),
    compute::<OptimalRequest>("optimal", false),
    compute::<SweepRequest>("sweep", false),
    compute::<SimulateRequest>("simulate", false),
    compute::<ThroughputRequest>("throughput", false),
    compute::<ScenarioRequest>("scenario", true),
    compute::<FrontierRequest>("frontier", true),
    inline("metrics", |_| Ok(Request::Metrics)),
    inline("health", |_| Ok(Request::Health)),
    inline("shutdown", |_| Ok(Request::Shutdown)),
    inline("trace", |_| Ok(Request::Trace)),
    inline("prometheus", |_| Ok(Request::Prometheus)),
];

impl Request {
    /// The request's entry in [`KINDS`], and its fields if it is a
    /// compute request.
    pub(crate) fn parts(&self) -> (&'static KindSpec, Option<&dyn Body>) {
        let (index, body): (usize, Option<&dyn Body>) = match self {
            Request::Solve(r) => (0, Some(r)),
            Request::Optimal(r) => (1, Some(r)),
            Request::Sweep(r) => (2, Some(r)),
            Request::Simulate(r) => (3, Some(r)),
            Request::Throughput(r) => (4, Some(r)),
            Request::Scenario(r) => (5, Some(&**r)),
            Request::Frontier(r) => (6, Some(r)),
            Request::Metrics => (7, None),
            Request::Health => (8, None),
            Request::Shutdown => (9, None),
            Request::Trace => (10, None),
            Request::Prometheus => (11, None),
        };
        (&KINDS[index], body)
    }
}

/// The field table of every kind, as `docs/PROTOCOL.md` must show it.
pub fn reference() -> String {
    let mut out = String::new();
    for kind in &KINDS {
        let stream = if kind.streaming { " (streaming)" } else { "" };
        let (name, fields) = (kind.name, (kind.table)());
        let _ = writeln!(out, "### `{name}`{stream}\n\n{fields}");
    }
    out
}

use Ty::{Evaluator, Int, Links, Pattern, Rate, Strategy};
const U64: Ty = Int(0, u64::MAX);
const U32: Ty = Int(0, u32::MAX as u64);
const PAPER: HopWeights = HopWeights::PAPER;

fn check_links(n: usize, links: &[(usize, usize)]) -> Result<(), String> {
    RowPlacement::with_links(n, links.iter().copied())
        .map(drop)
        .map_err(|e| format!("field \"links\": {e}"))
}

impl Kind for SolveRequest {
    const FIELDS: &'static [Field<Self>] = &[
        field!("n" => n, Int(2, MAX_N as u64), Required, KEYED),
        field!("c" => c, Int(1, MAX_C as u64), Required, KEYED),
        field!("strategy" => strategy, Strategy, Optional(InitialStrategy::DivideAndConquer), KEYED),
        field!("moves" => moves, Int(0, MAX_MOVES as u64), Optional(10_000), KEYED),
        field!("chains" => chains, Int(1, MAX_CHAINS as u64), Optional(1), KEYED),
        // The two modes are bit-identical (see `SaParams::fingerprint`).
        field!("evaluator" => evaluator, Evaluator, Optional(EvalMode::Incremental), UNKEYED),
        field!("seed" => seed, U64, Optional(42), KEYED),
        field!("router_cycles" => weights.router_cycles, U32, Optional(PAPER.router_cycles), KEYED),
        field!("unit_link_cycles" => weights.unit_link_cycles, U32, Optional(PAPER.unit_link_cycles), KEYED),
        field!("checkpoint" => checkpoint, U64, Quiet(0), UNKEYED),
    ];
    const WRAP: fn(Self) -> Request = Request::Solve;
}

impl Kind for OptimalRequest {
    const FIELDS: &'static [Field<Self>] = &[
        field!("n" => n, Int(2, 16), Required, KEYED),
        field!("c" => c, Int(1, MAX_C as u64), Required, KEYED),
        field!("router_cycles" => weights.router_cycles, U32, Optional(PAPER.router_cycles), KEYED),
        field!("unit_link_cycles" => weights.unit_link_cycles, U32, Optional(PAPER.unit_link_cycles), KEYED),
    ];
    const WRAP: fn(Self) -> Request = Request::Optimal;
    fn check(&self) -> Result<(), String> {
        if self.n > 10 && self.c > 4 {
            return Err("exhaustive search is only practical up to n = 16 with small C".into());
        }
        Ok(())
    }
}

impl Kind for SweepRequest {
    const FIELDS: &'static [Field<Self>] = &[
        field!("n" => n, Int(2, MAX_N as u64), Required, KEYED),
        field!("base_flit" => base_flit, Int(1, 4_096), Optional(256), KEYED),
        field!("seed" => seed, U64, Optional(42), KEYED),
    ];
    const WRAP: fn(Self) -> Request = Request::Sweep;
}

impl Kind for SimulateRequest {
    const FIELDS: &'static [Field<Self>] = &[
        field!("n" => n, Int(2, 32), Required, KEYED),
        field!("pattern" => pattern, Pattern, Required, KEYED),
        field!("rate" => rate, Rate, Required, KEYED),
        field!("flit" => flit, Int(1, 4_096), Optional(256), KEYED),
        field!("cycles" => cycles, Int(1, MAX_CYCLES), Optional(20_000), KEYED),
        field!("seed" => seed, U64, Optional(42), KEYED),
        field!("links" => links, Links, Optional(Vec::new()), KEYED),
        field!("checkpoint" => checkpoint, U64, Quiet(0), UNKEYED),
    ];
    const WRAP: fn(Self) -> Request = Request::Simulate;
    fn check(&self) -> Result<(), String> {
        check_links(self.n, &self.links)
    }
}

impl Kind for ThroughputRequest {
    const FIELDS: &'static [Field<Self>] = &[
        field!("n" => n, Int(2, 32), Required, KEYED),
        field!("pattern" => pattern, Pattern, Required, KEYED),
        field!("start_rate" => start_rate, Rate, Optional(0.02), KEYED),
        field!("flit" => flit, Int(1, 4_096), Optional(256), KEYED),
        field!("seed" => seed, U64, Optional(42), KEYED),
        field!("links" => links, Links, Optional(Vec::new()), KEYED),
        field!("workers" => workers, Int(0, MAX_CHAINS as u64), Optional(0), UNKEYED),
        field!("lanes" => lanes, Int(0, MAX_LANES as u64), Optional(0), UNKEYED),
    ];
    const WRAP: fn(Self) -> Request = Request::Throughput;
    fn check(&self) -> Result<(), String> {
        check_links(self.n, &self.links)
    }
}

impl Kind for ScenarioRequest {
    const FIELDS: &'static [Field<Self>] = &[
        field!("manifest" => manifest, Ty::Manifest, Required, KEYED),
        field!("workers" => workers, Int(0, MAX_CHAINS as u64), Optional(0), UNKEYED),
        field!("lanes" => lanes, Int(0, MAX_LANES as u64), Optional(0), UNKEYED),
    ];
    const WRAP: fn(Self) -> Request = |r| Request::Scenario(Box::new(r));
    /// Expansion bounds are the manifest's own; checking them at parse
    /// time refuses an oversized batch before it reaches a worker.
    fn check(&self) -> Result<(), String> {
        noc_scenario::expand(&self.manifest)
            .map(drop)
            .map_err(|e| format!("field \"manifest\": invalid manifest: {e}"))
    }
}

impl Kind for FrontierRequest {
    const FIELDS: &'static [Field<Self>] = &[
        field!("n" => n, Int(2, MAX_N as u64), Required, KEYED),
        field!("base_flit" => base_flit, Int(1, 4_096), Optional(256), KEYED),
        field!("weight_steps" => weight_steps, Int(1, MAX_WEIGHT_STEPS as u64), Optional(5), KEYED),
        field!("moves" => moves, Int(0, MAX_MOVES as u64), Optional(10_000), KEYED),
        field!("seed" => seed, U64, Optional(42), KEYED),
        field!("workers" => workers, Int(0, MAX_CHAINS as u64), Optional(0), UNKEYED),
    ];
    const WRAP: fn(Self) -> Request = Request::Frontier;
}
