//! Every request kind, declared once.
//!
//! A compute kind is its request struct plus one field declaration per
//! wire field, written with the field machinery of
//! [`noc_scenario::field`](mod@noc_scenario::field): its name, type and bounds, default (or that it
//! is required), and whether the cache key covers it. Parsing, request
//! lines, cache keys, CLI flags, [`Request::kind`] and the metrics labels
//! all read these declarations, and `docs/PROTOCOL.md` is checked against
//! [`reference()`].
//!
//! One rule holds for every field: absent or `null` takes the default,
//! and a value of the wrong type or out of bounds is a `bad_request`
//! naming the field. Rules that span fields are one check per kind.

use crate::protocol::{
    FrontierRequest, OptimalRequest, Request, ScenarioRequest, SimulateRequest, SolveRequest,
    SweepRequest, ThroughputRequest,
};
use noc_json::Value;
use noc_placement::InitialStrategy;
use noc_routing::HopWeights;
use noc_scenario::field;
use noc_scenario::field::{Field, FieldDoc, FieldError, Fields, Ty, MAX_CHAINS, MAX_CYCLES};
use noc_scenario::field::{
    MAX_FLIT, MAX_HOP_CYCLES, MAX_MOVES, MAX_N, MAX_SIM_N, MAX_WEIGHT_STEPS, MIN_START_RATE,
};
use noc_topology::{RowPlacement, MAX_C};
use std::fmt::Write as _;

/// The fields of a compute request, whatever its kind.
pub(crate) trait Body {
    /// Appends every field a request line carries.
    fn write(&self, out: &mut Vec<(String, Value)>);
    /// Appends the keyed fields as one compact JSON array: the cache key.
    fn key(&self, out: &mut String);
}

impl<R: Fields> Body for R {
    fn write(&self, out: &mut Vec<(String, Value)>) {
        field::write_into(self, out);
    }

    fn key(&self, out: &mut String) {
        let keyed = R::FIELDS.iter().filter(|f| f.keyed);
        Value::Arr(keyed.map(|f| (f.key)(self)).collect()).write_compact(out);
    }
}

/// How a request line names a field in an error.
pub(crate) fn wire_label(name: &str) -> String {
    format!("field {name:?}")
}

/// How the CLI names a field in an error: as its flag.
fn flag_label(name: &str) -> String {
    format!("flag --{}", name.replace('_', "-"))
}

/// Reads a kind's request out of a request object.
type Read = fn(&Value) -> Result<Request, FieldError>;

/// One request kind.
pub struct KindSpec {
    /// Wire name, also the kind's metrics label.
    pub name: &'static str,
    /// Whether the response is a multi-line stream.
    pub streaming: bool,
    /// Reads the kind's fields out of a request object, ignoring other
    /// keys.
    pub(crate) read: Read,
    /// The kind's fields in request-line order; none for inline kinds.
    pub fields: fn() -> Vec<FieldDoc>,
}

/// A compute kind: `read` reads its request struct `R` and wraps it in
/// its [`Request`] variant.
const fn compute<R: Fields>(name: &'static str, streaming: bool, read: Read) -> KindSpec {
    KindSpec {
        name,
        streaming,
        read,
        fields: field::docs::<R>,
    }
}

const fn inline(name: &'static str, read: Read) -> KindSpec {
    KindSpec {
        name,
        streaming: false,
        read,
        fields: Vec::new,
    }
}

/// Reads a compute request's fields, ignoring other keys.
fn read<R: Fields>(v: &Value) -> Result<R, FieldError> {
    field::read(v, false)
}

/// Every request kind, in the order of the [`Request`] variants, which
/// the metrics labels and `docs/PROTOCOL.md` follow.
pub static KINDS: [KindSpec; 12] = [
    compute::<SolveRequest>("solve", false, |v| read(v).map(Request::Solve)),
    compute::<OptimalRequest>("optimal", false, |v| read(v).map(Request::Optimal)),
    compute::<SweepRequest>("sweep", false, |v| read(v).map(Request::Sweep)),
    compute::<SimulateRequest>("simulate", false, |v| read(v).map(Request::Simulate)),
    compute::<ThroughputRequest>("throughput", false, |v| read(v).map(Request::Throughput)),
    compute::<ScenarioRequest>("scenario", true, |v| {
        read(v).map(|r| Request::Scenario(Box::new(r)))
    }),
    compute::<FrontierRequest>("frontier", true, |v| read(v).map(Request::Frontier)),
    inline("metrics", |_| Ok(Request::Metrics)),
    inline("health", |_| Ok(Request::Health)),
    inline("shutdown", |_| Ok(Request::Shutdown)),
    inline("trace", |_| Ok(Request::Trace)),
    inline("prometheus", |_| Ok(Request::Prometheus)),
];

/// The entry of [`KINDS`] named `name`.
pub fn kind(name: &str) -> Option<&'static KindSpec> {
    KINDS.iter().find(|k| k.name == name)
}

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
        let fields = (kind.fields)();
        let table = if fields.is_empty() {
            "No fields; answered inline.\n".to_string()
        } else {
            field::table(&fields, true, "left off lines")
        };
        let _ = writeln!(out, "### `{}`{stream}\n\n{table}", kind.name);
    }
    out
}

/// Splits command-line arguments into `--flag value` pairs, in order.
pub fn flag_pairs(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::with_capacity(args.len() / 2);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        pairs.push((name.to_string(), value.clone()));
    }
    Ok(pairs)
}

/// The fields a CLI command of `kind` takes as flags: every wire field but
/// the quiet ones (`checkpoint`, whose snapshots only a daemon's store
/// keeps).
pub fn flag_fields(kind: &KindSpec) -> Vec<FieldDoc> {
    let mut fields = (kind.fields)();
    fields.retain(|f| !f.quiet);
    fields
}

/// Reads a CLI command's flags as a request of `kind`. Each flag is one
/// of [`flag_fields`] with `-` for `_`, and its value is read by the
/// field's type (links as `a-b,c-d`); a later flag overrides an earlier
/// one. Flags named in `extra` belong to the command and are skipped; any
/// other flag is refused, naming it.
pub fn read_flags(
    kind: &KindSpec,
    flags: &[(String, String)],
    extra: &[&str],
) -> Result<Request, String> {
    let fields = flag_fields(kind);
    let mut object: Vec<(String, Value)> = Vec::with_capacity(flags.len());
    for (flag, text) in flags.iter().filter(|(flag, _)| !extra.contains(&&**flag)) {
        let field = fields.iter().find(|f| f.name.replace('_', "-") == *flag);
        let field = field.ok_or_else(|| format!("unknown flag --{flag}"))?;
        let value = field.ty.flag_value(text);
        let value = value.map_err(|why| format!("{}: {why}", flag_label(field.name)))?;
        object.retain(|(name, _)| name != field.name);
        object.push((field.name.to_string(), value));
    }
    (kind.read)(&Value::Obj(object)).map_err(|e| e.message(flag_label))
}

use Ty::{Int, Links, Pattern, Rate, RateFrom, Strategy};
const U64: Ty = Ty::U64;
const PAPER: HopWeights = HopWeights::PAPER;
const UNKEYED: bool = false;
const FLIT: Ty = Int(1, MAX_FLIT as u64);
const HOP_CYCLES: Ty = Int(0, MAX_HOP_CYCLES as u64);

fn check_links(n: usize, links: &[(usize, usize)]) -> Result<(), FieldError> {
    RowPlacement::with_links(n, links.iter().copied())
        .map(drop)
        .map_err(|e| FieldError::Invalid {
            field: "links".to_string(),
            reason: e.to_string(),
        })
}

impl Fields for SolveRequest {
    const FIELDS: &'static [Field<Self>] = &[
        field!("n" => n, Int(2, MAX_N as u64), Required),
        field!("c" => c, Int(1, MAX_C as u64), Required),
        field!("strategy" => strategy, Strategy, Optional(InitialStrategy::DivideAndConquer)),
        field!("moves" => moves, Int(0, MAX_MOVES as u64), Optional(10_000)),
        field!("chains" => chains, Int(1, MAX_CHAINS as u64), Optional(1)),
        field!("seed" => seed, U64, Optional(42)),
        field!("router_cycles" => weights.router_cycles, HOP_CYCLES, Optional(PAPER.router_cycles)),
        field!("unit_link_cycles" => weights.unit_link_cycles, HOP_CYCLES, Optional(PAPER.unit_link_cycles)),
        field!("checkpoint" => checkpoint, U64, Quiet(0), UNKEYED),
    ];
}

/// The largest `c` `optimal` takes on a row of `n` routers, at index `n`
/// (the longest row it takes is the last index): the largest link limit
/// whose exhaustive search measured under 5 s on a 2-vCPU VM, a sixth of
/// the default deadline. Up to `n = 9` every `c` is: once every link fits,
/// a larger `c` adds no node, and the search visits all `2^(L+1) − 1` of
/// them for `L = (n − 1)(n − 2)/2` candidate links (P(9, 20), 2^29 − 1
/// nodes, 3.8 s). The accepted searches that take longest are P(9, 30)
/// (3.8–4.6 s) and P(16, 3) (4.0–4.3 s). The first refused `c` took
/// 7.4 s at n = 10, 27 s at n = 11, 29 s at n = 12 and 5.7 s at n = 13
/// (P(13, 4), 2.1e8 nodes); a longer row at the same `c` visits more
/// nodes.
const OPTIMAL_MAX_C: [usize; 17] = [
    0, 0, MAX_C, MAX_C, MAX_C, MAX_C, MAX_C, MAX_C, MAX_C, MAX_C, 6, 5, 4, 3, 3, 3, 3,
];

impl Fields for OptimalRequest {
    const FIELDS: &'static [Field<Self>] = &[
        field!("n" => n, Int(2, OPTIMAL_MAX_C.len() as u64 - 1), Required),
        field!("c" => c, Int(1, MAX_C as u64), Required),
        field!("router_cycles" => weights.router_cycles, HOP_CYCLES, Optional(PAPER.router_cycles)),
        field!("unit_link_cycles" => weights.unit_link_cycles, HOP_CYCLES, Optional(PAPER.unit_link_cycles)),
    ];
    fn check(&self) -> Result<(), FieldError> {
        let max_c = OPTIMAL_MAX_C[self.n];
        if self.c > max_c {
            return Err(FieldError::Invalid {
                field: "n".to_string(),
                reason: format!(
                    "exhaustive search on {} routers takes c up to {max_c}",
                    self.n
                ),
            });
        }
        Ok(())
    }
}

impl Fields for SweepRequest {
    const FIELDS: &'static [Field<Self>] = &[
        field!("n" => n, Int(2, MAX_N as u64), Required),
        field!("base_flit" => base_flit, FLIT, Optional(256)),
        field!("seed" => seed, U64, Optional(42)),
    ];
}

impl Fields for SimulateRequest {
    const FIELDS: &'static [Field<Self>] = &[
        field!("n" => n, Int(2, MAX_SIM_N as u64), Required),
        field!("pattern" => pattern, Pattern, Required),
        field!("rate" => rate, Rate, Required),
        field!("flit" => flit, FLIT, Optional(256)),
        field!("cycles" => cycles, Int(1, MAX_CYCLES), Optional(20_000)),
        field!("seed" => seed, U64, Optional(42)),
        field!("links" => links, Links, Optional(Vec::new())),
        field!("checkpoint" => checkpoint, U64, Quiet(0), UNKEYED),
    ];
    fn check(&self) -> Result<(), FieldError> {
        check_links(self.n, &self.links)
    }
}

impl Fields for ThroughputRequest {
    const FIELDS: &'static [Field<Self>] = &[
        field!("n" => n, Int(2, MAX_SIM_N as u64), Required),
        field!("pattern" => pattern, Pattern, Required),
        field!("start_rate" => start_rate, RateFrom(MIN_START_RATE), Optional(0.02)),
        field!("flit" => flit, FLIT, Optional(256)),
        field!("seed" => seed, U64, Optional(42)),
        field!("links" => links, Links, Optional(Vec::new())),
        field!("workers" => workers, Int(0, MAX_CHAINS as u64), Optional(0), UNKEYED),
    ];
    fn check(&self) -> Result<(), FieldError> {
        check_links(self.n, &self.links)
    }
}

impl Fields for ScenarioRequest {
    const FIELDS: &'static [Field<Self>] = &[
        field!("manifest" => manifest, Ty::Manifest, Required),
        field!("workers" => workers, Int(0, MAX_CHAINS as u64), Optional(0), UNKEYED),
    ];
    /// Expansion bounds are the manifest's own; checking them at parse
    /// time refuses an oversized batch before it reaches a worker.
    fn check(&self) -> Result<(), FieldError> {
        noc_scenario::expand(&self.manifest)
            .map(drop)
            .map_err(|e| FieldError::Invalid {
                field: "manifest".to_string(),
                reason: format!("invalid manifest: {e}"),
            })
    }
}

impl Fields for FrontierRequest {
    const FIELDS: &'static [Field<Self>] = &[
        field!("n" => n, Int(2, MAX_N as u64), Required),
        field!("base_flit" => base_flit, FLIT, Optional(256)),
        field!("weight_steps" => weight_steps, Int(1, MAX_WEIGHT_STEPS as u64), Optional(5)),
        field!("moves" => moves, Int(0, MAX_MOVES as u64), Optional(10_000)),
        field!("seed" => seed, U64, Optional(42)),
        field!("workers" => workers, Int(0, MAX_CHAINS as u64), Optional(0), UNKEYED),
    ];
}
