//! The newline-delimited-JSON wire protocol.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. The envelope carries a client-chosen `id`
//! (echoed verbatim so clients can pipeline), a `kind`, an optional
//! `deadline_ms`, and the kind's fields, declared in [`crate::spec`] and
//! tabulated in `docs/PROTOCOL.md`:
//!
//! ```text
//! {"id":"1","kind":"solve","n":8,"c":4,"strategy":"dnc","moves":10000,"seed":42}
//! ```
//!
//! Success: `{"id":"1","ok":true,"cached":false,"result":{...}}`.
//! Failure: `{"id":"1","ok":false,"error":{"code":"overloaded","message":"..."}}`.
//!
//! The `scenario` and `frontier` kinds are the *streaming* responses:
//! their result is a batch, written as one line per expanded scenario (or
//! per Pareto point)
//! (`{"id":"9","ok":true,"seq":0,"of":3,"result":{...}}`) followed by a
//! final summary line carrying `"done":true` (see [`wire_lines`]).
//!
//! A success carries its result as a [`Payload`]: the `Value` and its
//! wire text, each made at most once and shared by every clone. A compute
//! result is value-first: its text is rendered from the value, once, so
//! the result cache answers a hit with the very text its miss wrote. An
//! inline answer is text-first: written straight to its compact JSON, its
//! value parsed from that text only if a caller reads it.

use crate::spec::{kind, wire_label};
use noc_json::Value;
use noc_placement::InitialStrategy;
use noc_routing::HopWeights;
use noc_traffic::SyntheticPattern;
use std::fmt::{self, Write as _};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Upper bound on one wire line, shared by every transport and client.
///
/// The TCP server enforces it *while* reading (a peer streaming an
/// endless unterminated line is cut off at the limit), the in-process
/// channel transport refuses longer lines up front, and clients refuse
/// to send a request the server is guaranteed to reject. Fuzz tests
/// derive their oversized payloads from this constant so the three
/// enforcement points can never drift apart.
pub const MAX_LINE_BYTES: usize = 1 << 20;
pub use noc_scenario::field::{MAX_CHAINS, MAX_CYCLES, MAX_MOVES, MAX_N, MAX_WEIGHT_STEPS};
/// Default and maximum per-request deadlines.
pub const DEFAULT_DEADLINE_MS: u64 = 30_000;
/// Hard cap on client-requested deadlines.
pub const MAX_DEADLINE_MS: u64 = 600_000;

/// Parameters of a `solve` request — the 1D problem `P̂(n, C)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveRequest {
    /// Row length `n`.
    pub n: usize,
    /// Link limit `C`.
    pub c: usize,
    /// Initial-solution scheme.
    pub strategy: InitialStrategy,
    /// SA move budget `m` (per chain).
    pub moves: usize,
    /// Independent annealing chains, best-of-K.
    pub chains: usize,
    /// RNG seed (the solve is deterministic given all fields).
    pub seed: u64,
    /// Hop weights of the objective.
    pub weights: HopWeights,
    /// Checkpoint interval in cooling stages (`0` = off). When on, the
    /// worker snapshots the annealing state into the shared cache every
    /// `checkpoint` stages and resumes from the latest snapshot on a
    /// retry — progress survives worker panics and daemon restarts.
    pub checkpoint: u64,
}

/// Parameters of an `optimal` request — exhaustive branch-and-bound.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OptimalRequest {
    /// Row length `n`.
    pub n: usize,
    /// Link limit `C`.
    pub c: usize,
    /// Hop weights of the objective.
    pub weights: HopWeights,
}

/// Parameters of a `sweep` request — the full per-`C` network optimization.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepRequest {
    /// Network side length `n`.
    pub n: usize,
    /// Baseline flit width at `C = 1` in bits.
    pub base_flit: u32,
    /// RNG seed.
    pub seed: u64,
}

/// Parameters of a `simulate` request — one cycle-level simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimulateRequest {
    /// Network side length `n`.
    pub n: usize,
    /// Synthetic traffic pattern.
    pub pattern: SyntheticPattern,
    /// Injection rate in packets per node per cycle.
    pub rate: f64,
    /// Flit width in bits.
    pub flit: u32,
    /// Measurement window in cycles.
    pub cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// Express links of the row placement (empty = plain mesh).
    pub links: Vec<(usize, usize)>,
    /// Checkpoint interval in cycles (`0` = off). When on, the worker
    /// snapshots the network state into the shared cache every
    /// `checkpoint` cycles and resumes from the latest snapshot on a retry.
    pub checkpoint: u64,
}

/// Parameters of a `throughput` request — a full saturation sweep run on
/// the parallel [`noc_sim::SweepRunner`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ThroughputRequest {
    /// Network side length `n`.
    pub n: usize,
    /// Synthetic traffic pattern.
    pub pattern: SyntheticPattern,
    /// First offered rate of the geometric sweep.
    pub start_rate: f64,
    /// Flit width in bits.
    pub flit: u32,
    /// RNG seed.
    pub seed: u64,
    /// Express links of the row placement (empty = plain mesh).
    pub links: Vec<(usize, usize)>,
    /// Sweep worker threads (`0` = one per core).
    pub workers: usize,
}

/// Parameters of a `scenario` request — a full manifest carried inline,
/// expanded and executed as one batch (see `noc_scenario`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioRequest {
    /// The parsed scenario manifest (strictly validated on parse).
    pub manifest: noc_scenario::Manifest,
    /// Batch worker threads (`0` = one per core).
    pub workers: usize,
}

/// Parameters of a `frontier` request — the latency × power × link-budget
/// Pareto sweep (see `noc_pareto`). Deterministic given everything but
/// `workers`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrontierRequest {
    /// Network side length `n`.
    pub n: usize,
    /// Baseline flit width at `C = 1` in bits (the bisection budget).
    pub base_flit: u32,
    /// Points on the `(w_latency, w_power)` weight lattice.
    pub weight_steps: usize,
    /// SA move budget per scalarization chain.
    pub moves: usize,
    /// Frontier seed; every scalarization derives its own seed from it.
    pub seed: u64,
    /// Scalarization worker threads (`0` = one per core).
    pub workers: usize,
}

/// A decoded request body.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve `P̂(n, C)` with simulated annealing.
    Solve(SolveRequest),
    /// Exhaustive optimum of `P̂(n, C)`.
    Optimal(OptimalRequest),
    /// Full per-`C` network sweep.
    Sweep(SweepRequest),
    /// Cycle-level simulation.
    Simulate(SimulateRequest),
    /// Saturation-throughput sweep on the parallel sweep runner.
    Throughput(ThroughputRequest),
    /// Scenario-manifest batch: expand and run, streaming one result line
    /// per expanded scenario.
    Scenario(Box<ScenarioRequest>),
    /// Pareto-frontier sweep: solve every (weight, link-limit)
    /// scalarization, streaming one result line per nondominated point.
    Frontier(FrontierRequest),
    /// Metrics snapshot.
    Metrics,
    /// Liveness/readiness probe.
    Health,
    /// Ask the daemon to drain and exit.
    Shutdown,
    /// Drain the in-process `noc-trace` event log and registry snapshot.
    Trace,
    /// Metrics registry rendered in the Prometheus text exposition format
    /// (carried as a string field of the JSON response).
    Prometheus,
}

impl Request {
    /// The request kind as its wire name.
    pub fn kind(&self) -> &'static str {
        self.parts().0.name
    }

    /// Whether the request runs on the worker pool (vs. answered inline).
    pub fn is_compute(&self) -> bool {
        self.parts().1.is_some()
    }

    /// Whether the response is a multi-line stream rather than the usual
    /// single line. Streaming kinds are never forwarded to cluster peers:
    /// the peer forwarder reads exactly one response line per request, so
    /// a streamed batch is always served where it lands.
    pub fn is_streaming(&self) -> bool {
        self.parts().0.streaming
    }
}

/// A parsed request line: id + deadline + body.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// Per-request deadline in milliseconds.
    pub deadline_ms: u64,
    /// Whether this request was already forwarded once by a cluster peer
    /// (wire field `"fwd": true`, omitted when false). A forwarded
    /// request is always handled where it lands — never re-forwarded —
    /// so a transient ring disagreement between peers cannot bounce a
    /// request around the cluster.
    pub forwarded: bool,
    /// The request body.
    pub request: Request,
}

/// Machine-readable error categories of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON or not a valid request.
    BadRequest,
    /// The worker queue was full; the request was shed without running.
    Overloaded,
    /// The deadline elapsed before a result was produced.
    DeadlineExceeded,
    /// The daemon is draining and not accepting new work.
    ShuttingDown,
    /// The request was valid but execution failed.
    Internal,
}

impl ErrorCode {
    /// Wire name of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire name back into a code (used by clients and tests).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "overloaded" => ErrorCode::Overloaded,
            "deadline_exceeded" => ErrorCode::DeadlineExceeded,
            "shutting_down" => ErrorCode::ShuttingDown,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A success response's result: the `Value` and its wire text.
///
/// Cloning bumps a reference count. A payload is made from one of the
/// two and derives the other on first use, shared by every clone after:
/// - *value-first* (`From<Value>`): every compute result, and the only
///   kind the result cache stores. The text is rendered when first
///   needed, so a hit is served without copying the value or rendering
///   it again;
/// - *text-first* (`Payload::from_line`): the inline answers, written
///   straight to their compact JSON. The value is parsed from that text
///   only if a caller reads it.
///
/// Dereferences to the `Value`; two payloads are equal when their values
/// are.
#[derive(Clone)]
pub struct Payload(Arc<Rendered>);

/// At least one of the two is always set.
struct Rendered {
    value: OnceLock<Value>,
    text: OnceLock<Text>,
}

/// The compact JSON a payload puts on the wire.
pub(crate) enum Text {
    /// The whole result, for a one-line response.
    Line(String),
    /// A streaming result (see [`wire_lines`]): each item's JSON and the
    /// summary's.
    Stream {
        /// One rendering per item, in order.
        items: Vec<String>,
        /// The summary object's rendering.
        summary: String,
    },
}

impl Text {
    fn render(value: &Value) -> Text {
        let marker = |key: &str| value.get(key).and_then(Value::as_bool).unwrap_or(false);
        if marker("scenario_stream") || marker("frontier_stream") {
            if let (Some(items), Some(summary)) = (
                value.get("items").and_then(Value::as_array),
                value.get("summary"),
            ) {
                return Text::Stream {
                    items: items.iter().map(Value::compact).collect(),
                    summary: summary.compact(),
                };
            }
        }
        Text::Line(value.compact())
    }
}

impl Payload {
    /// A text-first payload: `json` is the result's compact JSON, one
    /// object on one line, written without building a `Value`.
    pub(crate) fn from_line(json: String) -> Payload {
        Payload(Arc::new(Rendered {
            value: OnceLock::new(),
            text: OnceLock::from(Text::Line(json)),
        }))
    }

    /// The wire text, rendered on the first call.
    pub(crate) fn text(&self) -> &Text {
        self.0.text.get_or_init(|| Text::render(self))
    }

    /// Whether both handles share one allocation.
    #[cfg(test)]
    pub(crate) fn shares(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The value and its text for tests that corrupt a stored entry in
    /// place; `None` while another handle shares the payload.
    #[cfg(test)]
    pub(crate) fn parts_mut(&mut self) -> Option<(&mut Value, &mut Text)> {
        let _ = (self.text(), &**self);
        let rendered = Arc::get_mut(&mut self.0)?;
        let value = rendered.value.get_mut().expect("parsed above");
        let text = rendered.text.get_mut().expect("rendered above");
        Some((value, text))
    }
}

impl From<Value> for Payload {
    fn from(value: Value) -> Self {
        Payload(Arc::new(Rendered {
            value: OnceLock::from(value),
            text: OnceLock::new(),
        }))
    }
}

impl Deref for Payload {
    type Target = Value;

    /// The value, parsed from a text-first payload's line on first use.
    fn deref(&self) -> &Value {
        self.0.value.get_or_init(|| match self.0.text.get() {
            Some(Text::Line(json)) => {
                noc_json::parse(json).expect("an inline answer is written as valid JSON")
            }
            _ => unreachable!("a payload without its value holds its line"),
        })
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

/// A response ready for the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success with a result payload.
    Ok {
        /// Echoed request id.
        id: String,
        /// Whether the result was served from the cache.
        cached: bool,
        /// Kind-specific result object.
        result: Payload,
    },
    /// Failure with a category and message.
    Err {
        /// Echoed request id (empty if it could not be parsed).
        id: String,
        /// Error category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Builds a success response from a `Value` or a shared [`Payload`].
    pub fn ok(id: impl Into<String>, cached: bool, result: impl Into<Payload>) -> Self {
        Response::Ok {
            id: id.into(),
            cached,
            result: result.into(),
        }
    }

    /// Builds a failure response.
    pub fn err(id: impl Into<String>, code: ErrorCode, message: impl Into<String>) -> Self {
        Response::Err {
            id: id.into(),
            code,
            message: message.into(),
        }
    }

    /// The echoed request id.
    pub fn id(&self) -> &str {
        match self {
            Response::Ok { id, .. } | Response::Err { id, .. } => id,
        }
    }

    /// Serialises to one compact wire line (without the trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Ok { id, cached, result } => {
                let whole;
                let json = match result.text() {
                    Text::Line(json) => json,
                    // A stream keeps only its lines' texts; the one-line
                    // form of a whole batch is rare (cluster logs), so it
                    // is rendered here.
                    Text::Stream { .. } => {
                        whole = result.compact();
                        &whole
                    }
                };
                let mut line = open_line(id, true, json.len());
                push_bool(&mut line, "cached", *cached);
                close_line(line, json)
            }
            Response::Err { id, code, message } => {
                let mut line = open_line(id, false, message.len());
                line.push_str(",\"error\":{\"code\":");
                noc_json::write_str(code.as_str(), &mut line);
                line.push_str(",\"message\":");
                noc_json::write_str(message, &mut line);
                line.push_str("}}");
                line
            }
        }
    }

    /// Parses a wire line back into a response (client side).
    pub fn from_line(line: &str) -> Result<Self, String> {
        let v = noc_json::parse(line).map_err(|e| format!("bad response JSON: {e}"))?;
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .ok_or("response missing id")?
            .to_string();
        let ok = v
            .get("ok")
            .and_then(Value::as_bool)
            .ok_or("response missing ok")?;
        if ok {
            Ok(Response::Ok {
                id,
                cached: v.get("cached").and_then(Value::as_bool).unwrap_or(false),
                result: v
                    .get("result")
                    .cloned()
                    .ok_or("ok response missing result")?
                    .into(),
            })
        } else {
            let err = v.get("error").ok_or("err response missing error")?;
            let code = err
                .get("code")
                .and_then(Value::as_str)
                .and_then(ErrorCode::parse)
                .ok_or("err response missing code")?;
            let message = err
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            Ok(Response::Err { id, code, message })
        }
    }
}

/// Serialises a response into its wire lines (without trailing newlines).
///
/// Every response is one line — except a streaming success (a scenario
/// batch or a Pareto frontier), whose result object carries
/// `"scenario_stream": true` (resp. `"frontier_stream": true`) with
/// `"items"` and `"summary"`. That one expands into one line per item,
/// `{"id","ok":true,"seq":i,"of":N,"result":<item>}`, followed by a final
/// `{"id","ok":true,"cached":...,"done":true,"result":<summary>}` line.
/// Because the whole batch is cached as one payload, a cache hit replays
/// the exact same stream with `"cached": true` on the summary line. Every
/// line writes its envelope around the payload's stored text, so nothing
/// is rendered twice. Frontier streams bump the `pareto.stream_lines`
/// trace counter by the number of lines written (cache replays included).
pub fn wire_lines(response: &Response) -> Vec<String> {
    let Response::Ok { id, cached, result } = response else {
        return vec![response.to_line()];
    };
    let Text::Stream { items, summary } = result.text() else {
        return vec![response.to_line()];
    };
    let of = items.len();
    let mut lines = Vec::with_capacity(of + 1);
    lines.extend(items.iter().enumerate().map(|(seq, item)| {
        let mut line = open_line(id, true, item.len());
        let _ = write!(line, ",\"seq\":{seq},\"of\":{of}");
        close_line(line, item)
    }));
    let mut last = open_line(id, true, summary.len());
    push_bool(&mut last, "cached", *cached);
    push_bool(&mut last, "done", true);
    lines.push(close_line(last, summary));
    if let Some(sink) = noc_trace::sink() {
        if result.get("frontier_stream").and_then(Value::as_bool) == Some(true) {
            sink.registry()
                .counter("pareto.stream_lines")
                .add(lines.len() as u64);
        }
    }
    lines
}

/// Starts a response line with the envelope every line shares,
/// `{"id":<id>,"ok":<ok>`, sized for `body` more bytes. The framing
/// helpers below write the rest into the same buffer.
fn open_line(id: &str, ok: bool, body: usize) -> String {
    let mut line = String::with_capacity(64 + id.len() + body);
    line.push_str("{\"id\":");
    noc_json::write_str(id, &mut line);
    push_bool(&mut line, "ok", ok);
    line
}

/// Appends `,"<key>":<flag>` (`key` is a literal that needs no escaping).
fn push_bool(line: &mut String, key: &str, flag: bool) {
    line.push_str(",\"");
    line.push_str(key);
    line.push_str(if flag { "\":true" } else { "\":false" });
}

/// Appends `,"result":<json>}` and returns the finished line.
fn close_line(mut line: String, json: &str) -> String {
    line.push_str(",\"result\":");
    line.push_str(json);
    line.push('}');
    line
}

/// Extracts a best-effort id from a line that failed full parsing, so the
/// error response still correlates when the envelope itself was readable.
pub fn best_effort_id(line: &str) -> String {
    noc_json::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_default()
}

/// Parses one request line into an [`Envelope`], validating every field
/// against its kind's declaration in [`crate::spec`] (fields, defaults and
/// bounds are tabulated in `docs/PROTOCOL.md`), so a single request cannot
/// monopolise a worker.
///
/// Absent fields take their defaults, and [`request_line`] inverts the
/// parse exactly:
///
/// ```
/// use noc_service::protocol::{parse_request, request_line, Request};
///
/// let env = parse_request(
///     r#"{"id":"1","kind":"solve","n":8,"c":4,"chains":4}"#,
/// ).unwrap();
/// let Request::Solve(solve) = &env.request else { panic!() };
/// assert_eq!((solve.chains, solve.moves, solve.seed), (4, 10_000, 42));
/// // Serialising and re-parsing is the identity.
/// assert_eq!(parse_request(&request_line(&env)).unwrap(), env);
/// ```
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    let v = noc_json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let name = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("missing required field \"kind\"")?;
    let deadline_ms = match v.get("deadline_ms") {
        None | Some(Value::Null) => DEFAULT_DEADLINE_MS,
        Some(d) => d
            .as_u64()
            .ok_or("field \"deadline_ms\" must be a non-negative integer")?
            .clamp(1, MAX_DEADLINE_MS),
    };
    let forwarded = match v.get("fwd") {
        None | Some(Value::Null) => false,
        Some(f) => f.as_bool().ok_or("field \"fwd\" must be a boolean")?,
    };
    let spec = kind(name).ok_or_else(|| format!("unknown kind {name:?}"))?;
    Ok(Envelope {
        id,
        deadline_ms,
        forwarded,
        request: (spec.read)(&v).map_err(|e| e.message(wire_label))?,
    })
}

/// Serialises an envelope back to a request line — the inverse of
/// [`parse_request`], used by the client, the load generator, and the
/// round-trip tests.
pub fn request_line(env: &Envelope) -> String {
    let mut fields: Vec<(String, Value)> = vec![
        ("id".to_string(), Value::Str(env.id.clone())),
        (
            "kind".to_string(),
            Value::Str(env.request.kind().to_string()),
        ),
        (
            "deadline_ms".to_string(),
            Value::Int(env.deadline_ms as i128),
        ),
    ];
    // Omitted when false so non-cluster lines round-trip byte-identically
    // with pre-cluster builds.
    if env.forwarded {
        fields.push(("fwd".to_string(), Value::Bool(true)));
    }
    if let Some(body) = env.request.parts().1 {
        body.write(&mut fields);
    }
    Value::Obj(fields).compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_solve() {
        let env = parse_request(r#"{"id":"a","kind":"solve","n":8,"c":4}"#).unwrap();
        assert_eq!(env.id, "a");
        assert_eq!(env.deadline_ms, DEFAULT_DEADLINE_MS);
        match env.request {
            Request::Solve(r) => {
                assert_eq!((r.n, r.c, r.moves, r.seed), (8, 4, 10_000, 42));
                assert_eq!(r.strategy, InitialStrategy::DivideAndConquer);
                assert_eq!(r.weights, HopWeights::PAPER);
                assert_eq!(r.chains, 1);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn rejects_out_of_bounds() {
        assert!(parse_request(r#"{"kind":"solve","n":1,"c":4}"#).is_err());
        assert!(parse_request(r#"{"kind":"solve","n":300,"c":4}"#).is_err());
        assert!(parse_request(r#"{"kind":"solve","n":8,"c":0}"#).is_err());
        assert!(parse_request(r#"{"kind":"solve","n":8,"c":4,"chains":0}"#).is_err());
        assert!(parse_request(r#"{"kind":"solve","n":8,"c":4,"chains":65}"#).is_err());
        assert!(parse_request(r#"{"kind":"optimal","n":17,"c":2}"#).is_err());
        assert!(parse_request(r#"{"kind":"simulate","n":8,"pattern":"ur","rate":1.5}"#).is_err());
        assert!(parse_request(r#"{"kind":"nope"}"#).is_err());
        assert!(parse_request("{").is_err());
        // Each of these was once accepted, defaulted, truncated or turned
        // into a worker error; every field now follows one rule, and the
        // error names the field.
        for (line, field) in [
            (r#"{"kind":"solve","n":8,"c":10000000000000}"#, "c"),
            (r#"{"kind":"solve","n":8,"c":4,"strategy":5}"#, "strategy"),
            (
                r#"{"kind":"solve","n":8,"c":4,"router_cycles":4294967298}"#,
                "router_cycles",
            ),
            // Hop weights this large overflowed the u32 hop costs: the
            // release build answered with a zero objective and the plain
            // mesh, and a debug build panicked.
            (
                r#"{"kind":"solve","n":8,"c":3,"router_cycles":4294967295}"#,
                "router_cycles",
            ),
            (
                r#"{"kind":"solve","n":8,"c":3,"unit_link_cycles":1000001}"#,
                "unit_link_cycles",
            ),
            (
                r#"{"kind":"optimal","n":8,"c":3,"router_cycles":1000001}"#,
                "router_cycles",
            ),
            (
                r#"{"kind":"optimal","n":8,"c":3,"unit_link_cycles":4294967295}"#,
                "unit_link_cycles",
            ),
            (
                r#"{"kind":"simulate","n":8,"pattern":5,"rate":0.02}"#,
                "pattern",
            ),
            (
                r#"{"kind":"simulate","n":8,"pattern":"ur","rate":0.02,"links":[[0,99]]}"#,
                "links",
            ),
            (
                r#"{"kind":"throughput","n":8,"pattern":"ur","links":[[2,3]]}"#,
                "links",
            ),
            // From a start rate this small the sweep's rate ladder grew
            // without end (`5e-324 · 1.3` rounds back to 5e-324) or to
            // thousands of points, until memory ran out.
            (
                r#"{"kind":"throughput","n":4,"pattern":"ur","start_rate":5e-324}"#,
                "start_rate",
            ),
            (
                r#"{"kind":"throughput","n":4,"pattern":"ur","start_rate":1e-300}"#,
                "start_rate",
            ),
            (
                r#"{"kind":"throughput","n":4,"pattern":"ur","start_rate":0.000999}"#,
                "start_rate",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(&format!("field \"{field}\"")), "{line}: {err}");
        }
        // The largest hop weights are accepted.
        let max =
            r#"{"kind":"optimal","n":8,"c":3,"router_cycles":1000000,"unit_link_cycles":1000000}"#;
        assert!(parse_request(max).is_ok());
        // So is the smallest start rate.
        let min = r#"{"kind":"throughput","n":4,"pattern":"ur","start_rate":0.001}"#;
        assert!(parse_request(min).is_ok());
        // `null` means absent for every field, `links` included.
        assert_eq!(
            parse_request(r#"{"kind":"simulate","n":8,"pattern":"ur","rate":0.02,"links":null}"#),
            parse_request(r#"{"kind":"simulate","n":8,"pattern":"ur","rate":0.02}"#)
        );
    }

    #[test]
    fn throughput_parses_and_round_trips() {
        let env = parse_request(
            r#"{"id":"t","kind":"throughput","n":8,"pattern":"ur","flit":64,"links":[[0,3]]}"#,
        )
        .unwrap();
        match &env.request {
            Request::Throughput(r) => {
                assert_eq!((r.n, r.flit, r.seed, r.workers), (8, 64, 42, 0));
                assert_eq!(r.start_rate, 0.02);
                assert_eq!(r.links, vec![(0, 3)]);
            }
            other => panic!("wrong variant {other:?}"),
        }
        assert_eq!(parse_request(&request_line(&env)).unwrap(), env);
        assert!(
            parse_request(r#"{"kind":"throughput","n":8,"pattern":"ur","workers":65}"#).is_err()
        );
        assert!(
            parse_request(r#"{"kind":"throughput","n":8,"pattern":"ur","start_rate":0.0}"#)
                .is_err()
        );
    }

    #[test]
    fn scenario_parses_and_round_trips() {
        let env = parse_request(
            r#"{"id":"s","kind":"scenario","workers":2,
                "manifest":{"scenario":1,"name":"m","topology":{"n":4},
                            "matrix":{"seed":[1,2,3]}}}"#,
        )
        .unwrap();
        match &env.request {
            Request::Scenario(r) => {
                assert_eq!(r.workers, 2);
                assert_eq!(r.manifest.name, "m");
                assert_eq!(r.manifest.topology.n, 4);
            }
            other => panic!("wrong variant {other:?}"),
        }
        assert!(env.request.is_compute());
        assert!(env.request.is_streaming());
        assert_eq!(parse_request(&request_line(&env)).unwrap(), env);
    }

    #[test]
    fn scenario_rejects_bad_manifests() {
        // Missing manifest, bad version, unknown field, oversized workers.
        assert!(parse_request(r#"{"kind":"scenario"}"#).is_err());
        assert!(parse_request(r#"{"kind":"scenario","manifest":{"scenario":2}}"#).is_err());
        assert!(
            parse_request(r#"{"kind":"scenario","manifest":{"scenario":1,"bogus":1}}"#).is_err()
        );
        assert!(
            parse_request(r#"{"kind":"scenario","workers":65,"manifest":{"scenario":1}}"#).is_err()
        );
    }

    #[test]
    fn frontier_parses_and_round_trips() {
        let env = parse_request(
            r#"{"id":"f","kind":"frontier","n":8,"weight_steps":3,"moves":500,"seed":7}"#,
        )
        .unwrap();
        match &env.request {
            Request::Frontier(r) => {
                assert_eq!((r.n, r.base_flit, r.weight_steps), (8, 256, 3));
                assert_eq!((r.moves, r.seed, r.workers), (500, 7, 0));
            }
            other => panic!("wrong variant {other:?}"),
        }
        assert!(env.request.is_compute());
        assert!(env.request.is_streaming());
        assert_eq!(parse_request(&request_line(&env)).unwrap(), env);
        assert!(parse_request(r#"{"kind":"frontier","n":8,"weight_steps":0}"#).is_err());
        assert!(parse_request(r#"{"kind":"frontier","n":8,"weight_steps":34}"#).is_err());
        assert!(parse_request(r#"{"kind":"frontier","n":8,"base_flit":0}"#).is_err());
        assert!(parse_request(r#"{"kind":"frontier","n":1}"#).is_err());
        assert!(parse_request(r#"{"kind":"frontier","n":8,"workers":65}"#).is_err());
    }

    #[test]
    fn wire_lines_expand_frontier_streams() {
        let stream = Response::ok(
            "f",
            false,
            noc_json::obj! {
                "frontier_stream" => Value::Bool(true),
                "items" => Value::Arr(vec![
                    noc_json::obj! { "latency" => Value::Float(20.0) },
                ]),
                "summary" => noc_json::obj! { "points" => Value::Int(1) },
            },
        );
        let lines = wire_lines(&stream);
        assert_eq!(lines.len(), 2);
        let first = noc_json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("seq").and_then(Value::as_usize), Some(0));
        assert_eq!(first.get("of").and_then(Value::as_usize), Some(1));
        let last = noc_json::parse(&lines[1]).unwrap();
        assert_eq!(last.get("done").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn wire_lines_expand_scenario_streams_only() {
        // Ordinary responses stay single-line.
        let ok = Response::ok("r", false, noc_json::obj! { "x" => Value::Int(1) });
        assert_eq!(wire_lines(&ok), vec![ok.to_line()]);
        let err = Response::err("r", ErrorCode::Internal, "boom");
        assert_eq!(wire_lines(&err), vec![err.to_line()]);
        // A scenario stream fans out: one line per item plus a summary.
        let stream = Response::ok(
            "s",
            true,
            noc_json::obj! {
                "scenario_stream" => Value::Bool(true),
                "items" => Value::Arr(vec![
                    noc_json::obj! { "a" => Value::Int(0) },
                    noc_json::obj! { "a" => Value::Int(1) },
                ]),
                "summary" => noc_json::obj! { "scenarios" => Value::Int(2) },
            },
        );
        let lines = wire_lines(&stream);
        assert_eq!(lines.len(), 3);
        let first = noc_json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("seq").and_then(Value::as_usize), Some(0));
        assert_eq!(first.get("of").and_then(Value::as_usize), Some(2));
        assert!(first.get("done").is_none());
        let last = noc_json::parse(&lines[2]).unwrap();
        assert_eq!(last.get("done").and_then(Value::as_bool), Some(true));
        assert_eq!(last.get("cached").and_then(Value::as_bool), Some(true));
        assert!(last
            .get("result")
            .and_then(|r| r.get("scenarios"))
            .is_some());
    }

    #[test]
    fn forwarded_flag_round_trips_and_defaults_off() {
        let plain = parse_request(r#"{"id":"a","kind":"health"}"#).unwrap();
        assert!(!plain.forwarded);
        assert!(
            !request_line(&plain).contains("fwd"),
            "un-forwarded lines must not grow a fwd field"
        );
        let fwd = parse_request(r#"{"id":"a","kind":"health","fwd":true}"#).unwrap();
        assert!(fwd.forwarded);
        assert_eq!(parse_request(&request_line(&fwd)).unwrap(), fwd);
        assert!(parse_request(r#"{"kind":"health","fwd":"yes"}"#).is_err());
    }

    #[test]
    fn checkpoint_field_round_trips_and_defaults_off() {
        let plain = parse_request(r#"{"id":"a","kind":"solve","n":8,"c":4}"#).unwrap();
        let Request::Solve(r) = &plain.request else {
            panic!()
        };
        assert_eq!(r.checkpoint, 0);
        assert!(
            !request_line(&plain).contains("checkpoint"),
            "non-checkpointed lines must not grow a checkpoint field"
        );
        let ck = parse_request(r#"{"id":"a","kind":"solve","n":8,"c":4,"checkpoint":3}"#).unwrap();
        let Request::Solve(r) = &ck.request else {
            panic!()
        };
        assert_eq!(r.checkpoint, 3);
        assert_eq!(parse_request(&request_line(&ck)).unwrap(), ck);

        let sim = parse_request(
            r#"{"id":"s","kind":"simulate","n":4,"pattern":"ur","rate":0.02,"checkpoint":500}"#,
        )
        .unwrap();
        let Request::Simulate(r) = &sim.request else {
            panic!()
        };
        assert_eq!(r.checkpoint, 500);
        assert_eq!(parse_request(&request_line(&sim)).unwrap(), sim);
        assert!(parse_request(
            r#"{"kind":"simulate","n":4,"pattern":"ur","rate":0.02,"checkpoint":-1}"#
        )
        .is_err());
    }

    #[test]
    fn deadline_is_clamped() {
        let env = parse_request(r#"{"kind":"health","deadline_ms":99999999}"#).unwrap();
        assert_eq!(env.deadline_ms, MAX_DEADLINE_MS);
    }

    #[test]
    fn response_lines_round_trip() {
        let ok = Response::ok("r1", true, noc_json::obj! { "x" => Value::Int(3) });
        assert_eq!(Response::from_line(&ok.to_line()).unwrap(), ok);
        let err = Response::err("r2", ErrorCode::Overloaded, "queue full");
        assert_eq!(Response::from_line(&err.to_line()).unwrap(), err);
    }

    #[test]
    fn best_effort_id_recovers() {
        assert_eq!(best_effort_id(r#"{"id":"z","kind":"nope"}"#), "z");
        assert_eq!(best_effort_id("not json"), "");
    }
}
