//! The newline-delimited-JSON wire protocol.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. The envelope carries a client-chosen `id`
//! (echoed verbatim so clients can pipeline), a `kind`, an optional
//! `deadline_ms`, and kind-specific parameters:
//!
//! ```text
//! {"id":"1","kind":"solve","n":8,"c":4,"strategy":"dnc","moves":10000,"seed":42,
//!  "chains":4,"evaluator":"incremental"}
//! {"id":"2","kind":"optimal","n":8,"c":3}
//! {"id":"3","kind":"sweep","n":8,"base_flit":256,"seed":42}
//! {"id":"4","kind":"simulate","n":8,"pattern":"ur","rate":0.02,"flit":64,
//!  "cycles":20000,"seed":42,"links":[[0,3],[3,7]]}
//! {"id":"5","kind":"throughput","n":8,"pattern":"ur","start_rate":0.02,
//!  "flit":64,"seed":42,"workers":4}
//! {"id":"6","kind":"metrics"}
//! {"id":"7","kind":"health"}
//! {"id":"8","kind":"shutdown"}
//! {"id":"9","kind":"scenario","manifest":{"scenario":1,...},"workers":2}
//! {"id":"10","kind":"frontier","n":8,"base_flit":256,"weight_steps":5,
//!  "moves":10000,"seed":42,"workers":0}
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

use noc_json::Value;
use noc_placement::{EvalMode, InitialStrategy};
use noc_routing::HopWeights;
use noc_traffic::SyntheticPattern;
use std::fmt::Write as _;

/// Upper bound on one wire line, shared by every transport and client.
///
/// The TCP server enforces it *while* reading (a peer streaming an
/// endless unterminated line is cut off at the limit), the in-process
/// channel transport refuses longer lines up front, and clients refuse
/// to send a request the server is guaranteed to reject. Fuzz tests
/// derive their oversized payloads from this constant so the three
/// enforcement points can never drift apart.
pub const MAX_LINE_BYTES: usize = 1 << 20;
/// Upper bound on `n` for service requests: large enough for every setup
/// in the paper (up to 16×16) with head-room, small enough that a single
/// request cannot monopolise a worker for minutes.
pub const MAX_N: usize = 64;
/// Upper bound on the SA move budget per request.
pub const MAX_MOVES: usize = 2_000_000;
/// Upper bound on parallel annealing chains per request: bounded so one
/// request cannot fan out unbounded work (the move budget cap applies per
/// chain).
pub const MAX_CHAINS: usize = 64;
/// Upper bound on simulated measurement cycles per request.
pub const MAX_CYCLES: u64 = 2_000_000;
/// Upper bound on weight-lattice points per `frontier` request: together
/// with the move cap this bounds one request's total SA work.
pub const MAX_WEIGHT_STEPS: usize = 33;
/// Default and maximum per-request deadlines.
pub const DEFAULT_DEADLINE_MS: u64 = 30_000;
/// Hard cap on client-requested deadlines.
pub const MAX_DEADLINE_MS: u64 = 600_000;

/// Parameters of a `solve` request — the 1D problem `P̂(n, C)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Row length `n`.
    pub n: usize,
    /// Link limit `C`.
    pub c: usize,
    /// Initial-solution scheme.
    pub strategy: InitialStrategy,
    /// SA move budget `m` (per chain).
    pub moves: usize,
    /// Independent annealing chains, best-of-K (optional `chains` field,
    /// default 1). Part of the cache key — a best-of-4 result is not a
    /// best-of-1 result.
    pub chains: usize,
    /// Candidate evaluation mode (optional `evaluator` field, default
    /// incremental). *Not* part of the cache key: both modes are
    /// bit-identical, so either may serve a hit for the other.
    pub evaluator: EvalMode,
    /// RNG seed (the solve is deterministic given all fields).
    pub seed: u64,
    /// Hop weights of the objective.
    pub weights: HopWeights,
    /// Checkpoint interval in cooling stages (optional `checkpoint`
    /// field, `0` = off). When on, the worker snapshots the annealing
    /// state into the shared cache every `checkpoint` stages and resumes
    /// from the latest snapshot on a retry — progress survives worker
    /// panics and daemon restarts. *Not* part of the cache key:
    /// checkpointing never changes the result, only how it is produced.
    pub checkpoint: u64,
}

/// Parameters of an `optimal` request — exhaustive branch-and-bound.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalRequest {
    /// Row length `n`.
    pub n: usize,
    /// Link limit `C`.
    pub c: usize,
    /// Hop weights of the objective.
    pub weights: HopWeights,
}

/// Parameters of a `sweep` request — the full per-`C` network optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Network side length `n`.
    pub n: usize,
    /// Baseline flit width at `C = 1` in bits.
    pub base_flit: u32,
    /// RNG seed.
    pub seed: u64,
}

/// Parameters of a `simulate` request — one cycle-level simulation.
#[derive(Debug, Clone, PartialEq)]
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
    /// Checkpoint interval in cycles (optional `checkpoint` field, `0` =
    /// off). When on, the worker snapshots the network state into the
    /// shared cache every `checkpoint` cycles and resumes from the latest
    /// snapshot on a retry. *Not* part of the cache key: checkpointing
    /// never changes the result, only how it is produced.
    pub checkpoint: u64,
}

/// Parameters of a `throughput` request — a full saturation sweep run on
/// the parallel [`noc_sim::SweepRunner`].
#[derive(Debug, Clone, PartialEq)]
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
    /// Sweep worker threads (`0` = one per core). *Not* part of the cache
    /// key: the sweep is bit-identical for any worker count.
    pub workers: usize,
    /// Lockstep batch lanes per sweep pass (`0` = default, `1` = one
    /// replica per pass). *Not* part of the cache key: the sweep is
    /// bit-identical for any lane count.
    pub lanes: usize,
}

/// Parameters of a `scenario` request — a full manifest carried inline,
/// expanded and executed as one batch (see `noc_scenario`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRequest {
    /// The parsed scenario manifest (strictly validated on parse).
    pub manifest: noc_scenario::Manifest,
    /// Batch worker threads (`0` = one per core). *Not* part of the cache
    /// key: the batch is bit-identical for any worker count.
    pub workers: usize,
    /// Lockstep batch lanes for the homogeneous fast path (`0` = default,
    /// `1` = one replica per pass). *Not* part of the cache key: the batch
    /// is byte-identical for any lane count.
    pub lanes: usize,
}

/// Parameters of a `frontier` request — the latency × power × link-budget
/// Pareto sweep (see `noc_pareto`). Deterministic given everything but
/// `workers`.
#[derive(Debug, Clone, PartialEq)]
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
    /// Scalarization worker threads (`0` = one per core). *Not* part of
    /// the cache key: the frontier is byte-identical for any worker count.
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
        match self {
            Request::Solve(_) => "solve",
            Request::Optimal(_) => "optimal",
            Request::Sweep(_) => "sweep",
            Request::Simulate(_) => "simulate",
            Request::Throughput(_) => "throughput",
            Request::Scenario(_) => "scenario",
            Request::Frontier(_) => "frontier",
            Request::Metrics => "metrics",
            Request::Health => "health",
            Request::Shutdown => "shutdown",
            Request::Trace => "trace",
            Request::Prometheus => "prometheus",
        }
    }

    /// Whether the request runs on the worker pool (vs. answered inline).
    pub fn is_compute(&self) -> bool {
        matches!(
            self,
            Request::Solve(_)
                | Request::Optimal(_)
                | Request::Sweep(_)
                | Request::Simulate(_)
                | Request::Throughput(_)
                | Request::Scenario(_)
                | Request::Frontier(_)
        )
    }

    /// Whether the response is a multi-line stream rather than the usual
    /// single line. Streaming kinds are never forwarded to cluster peers:
    /// the peer forwarder reads exactly one response line per request, so
    /// a streamed batch is always served where it lands.
    pub fn is_streaming(&self) -> bool {
        matches!(self, Request::Scenario(_) | Request::Frontier(_))
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
        result: Value,
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
    /// Builds a success response.
    pub fn ok(id: impl Into<String>, cached: bool, result: Value) -> Self {
        Response::Ok {
            id: id.into(),
            cached,
            result,
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
                let mut line = open_line(id, true);
                push_bool(&mut line, "cached", *cached);
                close_line(line, result)
            }
            Response::Err { id, code, message } => {
                let mut line = open_line(id, false);
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
                    .ok_or("ok response missing result")?,
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
/// Because the whole batch is cached as one value, a cache hit replays the
/// exact same stream with `"cached": true` on the summary line. Frontier
/// streams bump the `pareto.stream_lines` trace counter by the number of
/// lines written (cache replays included).
pub fn wire_lines(response: &Response) -> Vec<String> {
    let Response::Ok { id, cached, result } = response else {
        return vec![response.to_line()];
    };
    let marker = |key: &str| result.get(key).and_then(Value::as_bool).unwrap_or(false);
    let is_frontier = marker("frontier_stream");
    let is_stream = marker("scenario_stream") || is_frontier;
    let (Some(items), Some(summary)) = (
        result.get("items").and_then(Value::as_array),
        result.get("summary"),
    ) else {
        return vec![response.to_line()];
    };
    if !is_stream {
        return vec![response.to_line()];
    }
    let of = items.len();
    let mut lines: Vec<String> = items
        .iter()
        .enumerate()
        .map(|(seq, item)| {
            let mut line = open_line(id, true);
            let _ = write!(line, ",\"seq\":{seq},\"of\":{of}");
            close_line(line, item)
        })
        .collect();
    let mut last = open_line(id, true);
    push_bool(&mut last, "cached", *cached);
    push_bool(&mut last, "done", true);
    lines.push(close_line(last, summary));
    if is_frontier {
        if let Some(sink) = noc_trace::sink() {
            sink.registry()
                .counter("pareto.stream_lines")
                .add(lines.len() as u64);
        }
    }
    lines
}

/// Starts a response line with the envelope every line shares,
/// `{"id":<id>,"ok":<ok>`. The framing helpers below write the rest into
/// the same buffer, and the payload goes in by reference, so no wire line
/// clones its result or renders it twice.
fn open_line(id: &str, ok: bool) -> String {
    let mut line = String::with_capacity(128);
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

/// Appends `,"result":<result>}` and returns the finished line.
fn close_line(mut line: String, result: &Value) -> String {
    line.push_str(",\"result\":");
    result.write_compact(&mut line);
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

fn field_usize(v: &Value, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(f) => f
            .as_usize()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

fn field_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

fn field_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(f) => f
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a number")),
    }
}

fn require<T>(opt: Option<T>, key: &str) -> Result<T, String> {
    opt.ok_or_else(|| format!("missing required field {key:?}"))
}

fn parse_strategy(name: &str) -> Result<InitialStrategy, String> {
    match name {
        "dnc" | "d&c" => Ok(InitialStrategy::DivideAndConquer),
        "random" => Ok(InitialStrategy::Random),
        "greedy" => Ok(InitialStrategy::Greedy),
        other => Err(format!("unknown strategy {other:?} (dnc|random|greedy)")),
    }
}

/// Wire name of an [`InitialStrategy`] (inverse of request parsing).
pub fn strategy_name(s: InitialStrategy) -> &'static str {
    match s {
        InitialStrategy::DivideAndConquer => "dnc",
        InitialStrategy::Random => "random",
        InitialStrategy::Greedy => "greedy",
    }
}

fn parse_evaluator(name: &str) -> Result<EvalMode, String> {
    match name {
        "incremental" => Ok(EvalMode::Incremental),
        "full" => Ok(EvalMode::Full),
        other => Err(format!("unknown evaluator {other:?} (incremental|full)")),
    }
}

/// Wire name of an [`EvalMode`] (inverse of request parsing).
pub fn evaluator_name(mode: EvalMode) -> &'static str {
    match mode {
        EvalMode::Incremental => "incremental",
        EvalMode::Full => "full",
    }
}

fn parse_pattern(name: &str) -> Result<SyntheticPattern, String> {
    match name.to_ascii_lowercase().as_str() {
        "ur" => Ok(SyntheticPattern::UniformRandom),
        "tp" => Ok(SyntheticPattern::Transpose),
        "br" => Ok(SyntheticPattern::BitReverse),
        "bc" => Ok(SyntheticPattern::BitComplement),
        "sh" => Ok(SyntheticPattern::Shuffle),
        "hs" => Ok(SyntheticPattern::Hotspot { weight: 0.4 }),
        "nn" => Ok(SyntheticPattern::NearNeighbour),
        other => Err(format!("unknown pattern {other:?} (ur|tp|br|bc|sh|hs|nn)")),
    }
}

/// Wire name of a pattern (inverse of request parsing).
pub fn pattern_name(p: SyntheticPattern) -> &'static str {
    match p {
        SyntheticPattern::UniformRandom => "ur",
        SyntheticPattern::Transpose => "tp",
        SyntheticPattern::BitReverse => "br",
        SyntheticPattern::BitComplement => "bc",
        SyntheticPattern::Shuffle => "sh",
        SyntheticPattern::Hotspot { .. } => "hs",
        SyntheticPattern::NearNeighbour => "nn",
    }
}

fn parse_weights(v: &Value) -> Result<HopWeights, String> {
    let tr = field_u64(v, "router_cycles")?;
    let tl = field_u64(v, "unit_link_cycles")?;
    Ok(HopWeights {
        router_cycles: tr.unwrap_or(HopWeights::PAPER.router_cycles as u64) as u32,
        unit_link_cycles: tl.unwrap_or(HopWeights::PAPER.unit_link_cycles as u64) as u32,
    })
}

fn parse_links(v: &Value) -> Result<Vec<(usize, usize)>, String> {
    let Some(field) = v.get("links") else {
        return Ok(Vec::new());
    };
    let arr = field
        .as_array()
        .ok_or("field \"links\" must be an array of [a, b] pairs")?;
    arr.iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("each link must be a two-element array [a, b]")?;
            let a = pair[0].as_usize().ok_or("link endpoints must be indices")?;
            let b = pair[1].as_usize().ok_or("link endpoints must be indices")?;
            Ok((a, b))
        })
        .collect()
}

/// Parses one request line into an [`Envelope`], validating bounds so a
/// single request cannot monopolise a worker.
///
/// Optional fields default (`strategy` → dnc, `moves` → 10⁴, `chains` → 1,
/// `evaluator` → incremental, `seed` → 42), and [`request_line`] inverts
/// the parse exactly:
///
/// ```
/// use noc_service::protocol::{parse_request, request_line, Request};
///
/// let env = parse_request(
///     r#"{"id":"1","kind":"solve","n":8,"c":4,"chains":4,"evaluator":"full"}"#,
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
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("missing required field \"kind\"")?;
    let deadline_ms = field_u64(&v, "deadline_ms")?
        .unwrap_or(DEFAULT_DEADLINE_MS)
        .clamp(1, MAX_DEADLINE_MS);
    let forwarded = match v.get("fwd") {
        None | Some(Value::Null) => false,
        Some(f) => f.as_bool().ok_or("field \"fwd\" must be a boolean")?,
    };

    let bounded_n = |n: usize| -> Result<usize, String> {
        if (2..=MAX_N).contains(&n) {
            Ok(n)
        } else {
            Err(format!("n must be in 2..={MAX_N}, got {n}"))
        }
    };

    let request = match kind {
        "solve" => {
            let n = bounded_n(require(field_usize(&v, "n")?, "n")?)?;
            let c = require(field_usize(&v, "c")?, "c")?;
            if c == 0 {
                return Err("c must be at least 1".into());
            }
            let moves = field_usize(&v, "moves")?.unwrap_or(10_000);
            if moves > MAX_MOVES {
                return Err(format!("moves must be at most {MAX_MOVES}"));
            }
            let chains = field_usize(&v, "chains")?.unwrap_or(1);
            if !(1..=MAX_CHAINS).contains(&chains) {
                return Err(format!("chains must be in 1..={MAX_CHAINS}"));
            }
            let strategy = match v.get("strategy").and_then(Value::as_str) {
                None => InitialStrategy::DivideAndConquer,
                Some(name) => parse_strategy(name)?,
            };
            let evaluator = match v.get("evaluator").and_then(Value::as_str) {
                None => EvalMode::Incremental,
                Some(name) => parse_evaluator(name)?,
            };
            Request::Solve(SolveRequest {
                n,
                c,
                strategy,
                moves,
                chains,
                evaluator,
                seed: field_u64(&v, "seed")?.unwrap_or(42),
                weights: parse_weights(&v)?,
                checkpoint: field_u64(&v, "checkpoint")?.unwrap_or(0),
            })
        }
        "optimal" => {
            let n = bounded_n(require(field_usize(&v, "n")?, "n")?)?;
            let c = require(field_usize(&v, "c")?, "c")?;
            if c == 0 {
                return Err("c must be at least 1".into());
            }
            if n > 16 || (n > 10 && c > 4) {
                return Err("exhaustive search is only practical up to n = 16 with small C".into());
            }
            Request::Optimal(OptimalRequest {
                n,
                c,
                weights: parse_weights(&v)?,
            })
        }
        "sweep" => {
            let n = bounded_n(require(field_usize(&v, "n")?, "n")?)?;
            let base_flit = field_u64(&v, "base_flit")?.unwrap_or(256);
            if base_flit == 0 || base_flit > 4_096 {
                return Err("base_flit must be in 1..=4096".into());
            }
            Request::Sweep(SweepRequest {
                n,
                base_flit: base_flit as u32,
                seed: field_u64(&v, "seed")?.unwrap_or(42),
            })
        }
        "simulate" => {
            let n = bounded_n(require(field_usize(&v, "n")?, "n")?)?;
            if n > 32 {
                return Err("simulate supports n up to 32".into());
            }
            let rate = require(field_f64(&v, "rate")?, "rate")?;
            if !(rate > 0.0 && rate <= 1.0) {
                return Err("rate must be in (0, 1]".into());
            }
            let cycles = field_u64(&v, "cycles")?.unwrap_or(20_000);
            if cycles == 0 || cycles > MAX_CYCLES {
                return Err(format!("cycles must be in 1..={MAX_CYCLES}"));
            }
            let flit = field_u64(&v, "flit")?.unwrap_or(256);
            if flit == 0 || flit > 4_096 {
                return Err("flit must be in 1..=4096".into());
            }
            let pattern = parse_pattern(require(
                v.get("pattern").and_then(Value::as_str),
                "pattern",
            )?)?;
            Request::Simulate(SimulateRequest {
                n,
                pattern,
                rate,
                flit: flit as u32,
                cycles,
                seed: field_u64(&v, "seed")?.unwrap_or(42),
                links: parse_links(&v)?,
                checkpoint: field_u64(&v, "checkpoint")?.unwrap_or(0),
            })
        }
        "throughput" => {
            let n = bounded_n(require(field_usize(&v, "n")?, "n")?)?;
            if n > 32 {
                return Err("throughput supports n up to 32".into());
            }
            let start_rate = field_f64(&v, "start_rate")?.unwrap_or(0.02);
            if !(start_rate > 0.0 && start_rate <= 1.0) {
                return Err("start_rate must be in (0, 1]".into());
            }
            let flit = field_u64(&v, "flit")?.unwrap_or(256);
            if flit == 0 || flit > 4_096 {
                return Err("flit must be in 1..=4096".into());
            }
            let workers = field_usize(&v, "workers")?.unwrap_or(0);
            if workers > MAX_CHAINS {
                return Err(format!("workers must be at most {MAX_CHAINS}"));
            }
            let lanes = field_usize(&v, "lanes")?.unwrap_or(0);
            if lanes > noc_sim::MAX_LANES {
                return Err(format!("lanes must be at most {}", noc_sim::MAX_LANES));
            }
            let pattern = parse_pattern(require(
                v.get("pattern").and_then(Value::as_str),
                "pattern",
            )?)?;
            Request::Throughput(ThroughputRequest {
                n,
                pattern,
                start_rate,
                flit: flit as u32,
                seed: field_u64(&v, "seed")?.unwrap_or(42),
                links: parse_links(&v)?,
                workers,
                lanes,
            })
        }
        "scenario" => {
            let manifest = v
                .get("manifest")
                .ok_or("missing required field \"manifest\"")?;
            let manifest = noc_scenario::Manifest::from_value(manifest)
                .map_err(|e| format!("invalid manifest: {e}"))?;
            // Expansion bounds are the manifest's own; re-check here so an
            // oversized batch is refused before it reaches a worker.
            noc_scenario::expand(&manifest).map_err(|e| format!("invalid manifest: {e}"))?;
            let workers = field_usize(&v, "workers")?.unwrap_or(0);
            if workers > MAX_CHAINS {
                return Err(format!("workers must be at most {MAX_CHAINS}"));
            }
            let lanes = field_usize(&v, "lanes")?.unwrap_or(0);
            if lanes > noc_sim::MAX_LANES {
                return Err(format!("lanes must be at most {}", noc_sim::MAX_LANES));
            }
            Request::Scenario(Box::new(ScenarioRequest {
                manifest,
                workers,
                lanes,
            }))
        }
        "frontier" => {
            let n = bounded_n(require(field_usize(&v, "n")?, "n")?)?;
            let base_flit = field_u64(&v, "base_flit")?.unwrap_or(256);
            if base_flit == 0 || base_flit > 4_096 {
                return Err("base_flit must be in 1..=4096".into());
            }
            let weight_steps = field_usize(&v, "weight_steps")?.unwrap_or(5);
            if !(1..=MAX_WEIGHT_STEPS).contains(&weight_steps) {
                return Err(format!("weight_steps must be in 1..={MAX_WEIGHT_STEPS}"));
            }
            let moves = field_usize(&v, "moves")?.unwrap_or(10_000);
            if moves > MAX_MOVES {
                return Err(format!("moves must be at most {MAX_MOVES}"));
            }
            let workers = field_usize(&v, "workers")?.unwrap_or(0);
            if workers > MAX_CHAINS {
                return Err(format!("workers must be at most {MAX_CHAINS}"));
            }
            Request::Frontier(FrontierRequest {
                n,
                base_flit: base_flit as u32,
                weight_steps,
                moves,
                seed: field_u64(&v, "seed")?.unwrap_or(42),
                workers,
            })
        }
        "metrics" => Request::Metrics,
        "health" => Request::Health,
        "shutdown" => Request::Shutdown,
        "trace" => Request::Trace,
        "prometheus" => Request::Prometheus,
        other => return Err(format!("unknown kind {other:?}")),
    };
    Ok(Envelope {
        id,
        deadline_ms,
        forwarded,
        request,
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
    let push_weights = |fields: &mut Vec<(String, Value)>, w: HopWeights| {
        fields.push((
            "router_cycles".to_string(),
            Value::Int(w.router_cycles as i128),
        ));
        fields.push((
            "unit_link_cycles".to_string(),
            Value::Int(w.unit_link_cycles as i128),
        ));
    };
    match &env.request {
        Request::Solve(r) => {
            fields.push(("n".to_string(), Value::Int(r.n as i128)));
            fields.push(("c".to_string(), Value::Int(r.c as i128)));
            fields.push((
                "strategy".to_string(),
                Value::Str(strategy_name(r.strategy).to_string()),
            ));
            fields.push(("moves".to_string(), Value::Int(r.moves as i128)));
            fields.push(("chains".to_string(), Value::Int(r.chains as i128)));
            fields.push((
                "evaluator".to_string(),
                Value::Str(evaluator_name(r.evaluator).to_string()),
            ));
            fields.push(("seed".to_string(), Value::Int(r.seed as i128)));
            push_weights(&mut fields, r.weights);
            // Omitted when off so pre-snapshot lines round-trip
            // byte-identically (same discipline as "fwd" above).
            if r.checkpoint != 0 {
                fields.push(("checkpoint".to_string(), Value::Int(r.checkpoint as i128)));
            }
        }
        Request::Optimal(r) => {
            fields.push(("n".to_string(), Value::Int(r.n as i128)));
            fields.push(("c".to_string(), Value::Int(r.c as i128)));
            push_weights(&mut fields, r.weights);
        }
        Request::Sweep(r) => {
            fields.push(("n".to_string(), Value::Int(r.n as i128)));
            fields.push(("base_flit".to_string(), Value::Int(r.base_flit as i128)));
            fields.push(("seed".to_string(), Value::Int(r.seed as i128)));
        }
        Request::Simulate(r) => {
            fields.push(("n".to_string(), Value::Int(r.n as i128)));
            fields.push((
                "pattern".to_string(),
                Value::Str(pattern_name(r.pattern).to_string()),
            ));
            fields.push(("rate".to_string(), Value::Float(r.rate)));
            fields.push(("flit".to_string(), Value::Int(r.flit as i128)));
            fields.push(("cycles".to_string(), Value::Int(r.cycles as i128)));
            fields.push(("seed".to_string(), Value::Int(r.seed as i128)));
            fields.push((
                "links".to_string(),
                Value::Arr(
                    r.links
                        .iter()
                        .map(|&(a, b)| {
                            Value::Arr(vec![Value::Int(a as i128), Value::Int(b as i128)])
                        })
                        .collect(),
                ),
            ));
            // Omitted when off so pre-snapshot lines round-trip
            // byte-identically (same discipline as "fwd" above).
            if r.checkpoint != 0 {
                fields.push(("checkpoint".to_string(), Value::Int(r.checkpoint as i128)));
            }
        }
        Request::Throughput(r) => {
            fields.push(("n".to_string(), Value::Int(r.n as i128)));
            fields.push((
                "pattern".to_string(),
                Value::Str(pattern_name(r.pattern).to_string()),
            ));
            fields.push(("start_rate".to_string(), Value::Float(r.start_rate)));
            fields.push(("flit".to_string(), Value::Int(r.flit as i128)));
            fields.push(("seed".to_string(), Value::Int(r.seed as i128)));
            fields.push((
                "links".to_string(),
                Value::Arr(
                    r.links
                        .iter()
                        .map(|&(a, b)| {
                            Value::Arr(vec![Value::Int(a as i128), Value::Int(b as i128)])
                        })
                        .collect(),
                ),
            ));
            fields.push(("workers".to_string(), Value::Int(r.workers as i128)));
            fields.push(("lanes".to_string(), Value::Int(r.lanes as i128)));
        }
        Request::Scenario(r) => {
            fields.push(("manifest".to_string(), r.manifest.to_value()));
            fields.push(("workers".to_string(), Value::Int(r.workers as i128)));
            fields.push(("lanes".to_string(), Value::Int(r.lanes as i128)));
        }
        Request::Frontier(r) => {
            fields.push(("n".to_string(), Value::Int(r.n as i128)));
            fields.push(("base_flit".to_string(), Value::Int(r.base_flit as i128)));
            fields.push((
                "weight_steps".to_string(),
                Value::Int(r.weight_steps as i128),
            ));
            fields.push(("moves".to_string(), Value::Int(r.moves as i128)));
            fields.push(("seed".to_string(), Value::Int(r.seed as i128)));
            fields.push(("workers".to_string(), Value::Int(r.workers as i128)));
        }
        Request::Metrics
        | Request::Health
        | Request::Shutdown
        | Request::Trace
        | Request::Prometheus => {}
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
                assert_eq!(r.evaluator, EvalMode::Incremental);
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
        assert!(parse_request(r#"{"kind":"solve","n":8,"c":4,"evaluator":"magic"}"#).is_err());
        assert!(parse_request(r#"{"kind":"optimal","n":17,"c":2}"#).is_err());
        assert!(parse_request(r#"{"kind":"simulate","n":8,"pattern":"ur","rate":1.5}"#).is_err());
        assert!(parse_request(r#"{"kind":"nope"}"#).is_err());
        assert!(parse_request("{").is_err());
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
