//! The transport-agnostic request-handling core: parse → cache →
//! execute → respond, with no sockets.
//!
//! [`ServiceCore`] owns everything a node needs to answer requests —
//! metrics, the sharded result cache, and the drain flag — but nothing
//! about *how* request lines arrive or leave. Transports compose it:
//!
//! * the TCP daemon ([`crate::server`]) reads lines off sockets and
//!   dispatches compute work onto its bounded worker pool;
//! * the cluster layer (`noc-cluster`) drives the stages individually —
//!   [`parse_line`](ServiceCore::parse_line),
//!   [`answer_inline`](ServiceCore::answer_inline),
//!   [`cache_lookup`](ServiceCore::cache_lookup), and
//!   [`complete`](ServiceCore::complete) — so a deterministic simulation
//!   can interleave them with message delivery on a logical clock.
//!
//! Two seams make the composition pluggable: [`Dispatch`] decides how a
//! compute request runs (worker pool vs. inline), and [`Forwarder`] lets
//! a cluster layer claim shard-owned requests before the local cache and
//! execution path sees them.

use crate::cache::{CacheKey, ShardedLru};
use crate::exec::{self, ExecError, ExecOutput};
use crate::fp;
use crate::metrics::{trace_inc, trace_prometheus_text, Metrics};
use crate::protocol::{self, Envelope, ErrorCode, Payload, Request, Response};
use noc_json::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a transport runs compute requests that passed parsing, inline
/// answering, forwarding, and the cache.
pub trait Dispatch {
    /// Runs (or refuses) one compute request and produces its response.
    fn dispatch(&self, core: &ServiceCore, envelope: Envelope, accepted_at: Instant) -> Response;

    /// Current depth of the transport's compute queue, reported by the
    /// `metrics` and `health` inline kinds. Queueless transports are 0.
    fn queue_depth(&self) -> usize {
        0
    }
}

/// Executes compute requests synchronously on the calling thread — the
/// dispatcher of the deterministic cluster simulation and of single-shot
/// embedders that want daemon semantics without threads.
#[derive(Debug, Clone)]
pub struct InlineDispatch {
    /// Whether to enforce the envelope's wall-clock deadline. The
    /// deterministic cluster simulation turns this off so execution
    /// outcomes depend only on the request, never on host load.
    pub enforce_deadlines: bool,
}

impl Default for InlineDispatch {
    fn default() -> Self {
        InlineDispatch {
            enforce_deadlines: true,
        }
    }
}

impl Dispatch for InlineDispatch {
    fn dispatch(&self, core: &ServiceCore, envelope: Envelope, accepted_at: Instant) -> Response {
        let deadline = self
            .enforce_deadlines
            .then(|| accepted_at + Duration::from_millis(envelope.deadline_ms));
        let outcome = {
            let _execute_span =
                noc_trace::span_labeled("request.execute", || envelope.request.kind().to_string());
            exec::execute_with_store(&envelope.request, deadline, Some(core.cache().as_ref()))
        };
        core.complete(&envelope.id, &envelope.request, accepted_at, outcome)
    }
}

/// A cluster layer's claim on shard-owned requests.
///
/// Consulted by [`ServiceCore::handle_line`] after parsing and inline
/// answering but *before* the local cache: in a sharded cluster the
/// ring owner holds the cache line for a key, so a non-owner node must
/// not build up a shadow copy. Returning `None` means "handle locally"
/// — either this node owns the key, or every peer that could serve it
/// is unreachable and local execution is the zero-loss fallback.
pub trait Forwarder: Send + Sync {
    /// Routes the request to its shard owner, returning the owner's
    /// response, or `None` to handle it locally.
    fn forward(&self, key: &CacheKey, envelope: &Envelope) -> Option<Response>;
}

/// The sockets-free heart of a service node: metrics, result cache,
/// drain state, and the request pipeline over them.
pub struct ServiceCore {
    metrics: Arc<Metrics>,
    cache: Arc<ShardedLru>,
    shutdown: AtomicBool,
    started: Instant,
    workers: usize,
}

impl ServiceCore {
    /// Builds a core with a fresh metrics registry and an empty cache.
    /// `workers` is reported by `health` (transports without a pool pass
    /// the number of threads they execute on, usually 1).
    pub fn new(workers: usize, cache_capacity: usize, cache_shards: usize) -> Self {
        ServiceCore {
            metrics: Arc::new(Metrics::new()),
            cache: Arc::new(ShardedLru::new(cache_capacity, cache_shards)),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            workers: workers.max(1),
        }
    }

    /// The node's metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The node's sharded result cache.
    pub fn cache(&self) -> &Arc<ShardedLru> {
        &self.cache
    }

    /// Whether a drain has been requested (via a `shutdown` request or
    /// [`begin_drain`](ServiceCore::begin_drain)).
    pub fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flags the node as draining: inline kinds still answer, compute
    /// kinds are refused with `shutting_down`.
    pub fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The `health` response body.
    pub fn health(&self, queue_depth: usize) -> Value {
        noc_json::obj! {
            "status" => Value::Str(
                if self.is_draining() { "draining" } else { "ok" }.to_string(),
            ),
            "uptime_ms" => Value::Int(self.started.elapsed().as_millis() as i128),
            "workers" => Value::Int(self.workers as i128),
            "queue_depth" => Value::Int(queue_depth as i128),
            "cache_entries" => Value::Int(self.cache.len() as i128),
        }
    }

    /// Parses one request line, recording protocol metrics. `Err` carries
    /// the ready-to-send `bad_request` response.
    pub fn parse_line(&self, line: &str) -> Result<Envelope, Response> {
        let _parse_span = noc_trace::span("request.parse");
        if fp::hit("protocol.parse") == Some(fp::Injected::Error) {
            self.metrics.record_err(ErrorCode::BadRequest);
            return Err(Response::err(
                protocol::best_effort_id(line),
                ErrorCode::BadRequest,
                "injected parse failure",
            ));
        }
        match protocol::parse_request(line) {
            Ok(envelope) => {
                self.metrics.record_request(envelope.request.kind());
                Ok(envelope)
            }
            Err(message) => {
                self.metrics.record_err(ErrorCode::BadRequest);
                Err(Response::err(
                    protocol::best_effort_id(line),
                    ErrorCode::BadRequest,
                    message,
                ))
            }
        }
    }

    /// Answers the inline (non-compute) kinds — `metrics`, `health`,
    /// `shutdown`, `trace`, `prometheus` — which must stay responsive
    /// even when every worker is busy. Returns `None` for compute kinds.
    pub fn answer_inline(
        &self,
        envelope: &Envelope,
        queue_depth: usize,
        accepted_at: Instant,
    ) -> Option<Response> {
        let body = match envelope.request {
            Request::Metrics => {
                self.metrics.set_queue_depth(queue_depth as u64);
                self.metrics.snapshot()
            }
            Request::Health => self.health(queue_depth),
            Request::Shutdown => {
                self.begin_drain();
                noc_json::obj! { "draining" => Value::Bool(true) }
            }
            Request::Trace => {
                let events = noc_trace::drain_events();
                noc_json::obj! {
                    "enabled" => Value::Bool(noc_trace::enabled()),
                    "events" => Value::Arr(events.iter().map(|e| e.to_json()).collect()),
                    "registry" => noc_trace::registry_snapshot(),
                }
            }
            Request::Prometheus => {
                self.metrics.set_queue_depth(queue_depth as u64);
                // Core metrics first, then the noc-trace counters (the
                // robustness and cluster families); the trace section is
                // empty when tracing was never enabled.
                let mut text = self.metrics.prometheus_text();
                text.push_str(&trace_prometheus_text());
                noc_json::obj! {
                    "content_type" => Value::Str("text/plain; version=0.0.4".to_string()),
                    "body" => Value::Str(text),
                }
            }
            _ => return None,
        };
        let micros = accepted_at.elapsed().as_micros() as u64;
        self.metrics.record_ok(envelope.request.kind(), micros);
        Some(Response::ok(envelope.id.clone(), false, body))
    }

    /// Looks the request up in the result cache, recording hit/miss
    /// metrics. A hit answers with the stored payload itself, shared and
    /// already rendered. `None` means "not cached" (or not a cacheable
    /// kind).
    pub fn cache_lookup(&self, envelope: &Envelope, accepted_at: Instant) -> Option<Response> {
        let key = exec::cache_key(&envelope.request)?;
        let _cache_span = noc_trace::span("request.cache");
        if let Some(result) = self.cache.get(&key) {
            self.metrics.record_cache(true);
            let micros = accepted_at.elapsed().as_micros() as u64;
            self.metrics.record_ok(envelope.request.kind(), micros);
            return Some(Response::ok(envelope.id.clone(), true, result));
        }
        self.metrics.record_cache(false);
        None
    }

    /// Turns an execution outcome into the response, with the accounting
    /// every transport shares: success metrics, write-through caching of
    /// non-degraded results, and the structured deadline/internal errors.
    /// The cache stores the very payload the response carries, and
    /// storing it renders its wire text, once for the miss and every hit.
    pub fn complete(
        &self,
        id: &str,
        request: &Request,
        accepted_at: Instant,
        outcome: Result<ExecOutput, ExecError>,
    ) -> Response {
        let kind = request.kind();
        match outcome {
            Ok(out) => {
                let result = Payload::from(out.value);
                if out.degraded {
                    // A degraded answer reflects this request's deadline
                    // budget, not the request parameters alone — caching
                    // it would serve the weaker result to un-deadlined
                    // retries.
                    self.metrics.record_degraded();
                } else if let Some(key) = exec::cache_key(request) {
                    // Cache even if the requester timed out meanwhile —
                    // the work is done, and a retry should hit.
                    self.cache.put(key, result.clone());
                }
                let micros = accepted_at.elapsed().as_micros() as u64;
                self.metrics.record_ok(kind, micros);
                Response::ok(id, false, result)
            }
            Err(ExecError::DeadlineExceeded) => {
                self.metrics.record_err(ErrorCode::DeadlineExceeded);
                trace_inc("service.deadline_exceeded");
                Response::err(
                    id,
                    ErrorCode::DeadlineExceeded,
                    "deadline exceeded during execution",
                )
            }
            Err(ExecError::Failed(message)) => {
                self.metrics.record_err(ErrorCode::Internal);
                Response::err(id, ErrorCode::Internal, message)
            }
        }
    }

    /// The full pipeline for one request line: parse → inline kinds →
    /// drain refusal → forwarder claim → cache → dispatch.
    ///
    /// The TCP server funnels every line through here and the cluster
    /// simulation calls the same stages one at a time, so protocol
    /// semantics cannot drift between them.
    pub fn handle_line(
        &self,
        line: &str,
        dispatch: &dyn Dispatch,
        forwarder: Option<&dyn Forwarder>,
    ) -> Response {
        let accepted_at = Instant::now();
        let envelope = match self.parse_line(line) {
            Ok(envelope) => envelope,
            Err(response) => return response,
        };
        if let Some(response) = self.answer_inline(&envelope, dispatch.queue_depth(), accepted_at) {
            return response;
        }
        if self.is_draining() {
            self.metrics.record_err(ErrorCode::ShuttingDown);
            return Response::err(
                envelope.id,
                ErrorCode::ShuttingDown,
                "daemon is draining; retry against a live instance",
            );
        }
        // Cluster hook: the shard owner holds the cache line for a key,
        // so ownership is resolved before the local cache is consulted.
        // Forwarded requests are handled where they land (no re-forward),
        // and streaming kinds never forward at all: the peer forwarder
        // reads exactly one response line per request, so a streamed
        // batch must be served by the node it lands on.
        if let Some(forwarder) = forwarder {
            if !envelope.forwarded && !envelope.request.is_streaming() {
                if let Some(key) = exec::cache_key(&envelope.request) {
                    if let Some(response) = forwarder.forward(&key, &envelope) {
                        let micros = accepted_at.elapsed().as_micros() as u64;
                        match &response {
                            Response::Ok { .. } => {
                                self.metrics.record_ok(envelope.request.kind(), micros)
                            }
                            Response::Err { code, .. } => self.metrics.record_err(*code),
                        }
                        return response;
                    }
                }
            }
        }
        if let Some(response) = self.cache_lookup(&envelope, accepted_at) {
            return response;
        }
        dispatch.dispatch(self, envelope, accepted_at)
    }

    /// [`handle_line`](ServiceCore::handle_line) with inline execution
    /// and no forwarding — the single-node, single-thread pipeline the
    /// tests drive.
    #[cfg(test)]
    fn handle_line_sync(&self, line: &str) -> Response {
        self.handle_line(line, &InlineDispatch::default(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> ServiceCore {
        ServiceCore::new(2, 64, 4)
    }

    #[test]
    fn sync_pipeline_serves_and_caches() {
        let core = core();
        let line = r#"{"id":"a","kind":"solve","n":6,"c":3,"moves":100}"#;
        let first = core.handle_line_sync(line);
        let Response::Ok { cached, result, .. } = &first else {
            panic!("expected ok, got {first:?}");
        };
        assert!(!cached);
        let second = core.handle_line_sync(line);
        let Response::Ok {
            cached: cached2,
            result: result2,
            ..
        } = &second
        else {
            panic!("expected ok, got {second:?}");
        };
        assert!(*cached2, "second identical request must hit the cache");
        assert_eq!(result, result2, "cache must serve the identical payload");
        assert_eq!(core.metrics().cache_hit_count(), 1);
        // The miss cached the payload it answered with, and every hit
        // shares that one allocation instead of a copy.
        let third = core.handle_line_sync(line);
        let Response::Ok {
            result: result3, ..
        } = &third
        else {
            panic!("expected ok, got {third:?}");
        };
        assert!(result.shares(result2));
        assert!(result2.shares(result3));
    }

    #[test]
    fn inline_kinds_answer_without_dispatch() {
        let core = core();
        struct NeverDispatch;
        impl Dispatch for NeverDispatch {
            fn dispatch(&self, _: &ServiceCore, _: Envelope, _: Instant) -> Response {
                panic!("inline kinds must not reach dispatch")
            }
        }
        for kind in ["metrics", "health", "trace", "prometheus"] {
            let line = format!(r#"{{"id":"i","kind":"{kind}"}}"#);
            let resp = core.handle_line(&line, &NeverDispatch, None);
            assert!(matches!(resp, Response::Ok { .. }), "{kind}: {resp:?}");
        }
    }

    #[test]
    fn oversized_link_limits_are_bad_requests() {
        // Each of these once reached `ConnectionMatrix::new`, whose
        // allocation failure aborts the process past any panic recovery.
        let core = core();
        for line in [
            r#"{"id":"c","kind":"solve","n":8,"c":10000000000000}"#,
            r#"{"id":"p","kind":"scenario","manifest":{"scenario":1,"topology":{"n":8},
                "placement":{"c":10000000000000}}}"#,
            r#"{"id":"a","kind":"scenario","manifest":{"scenario":1,"topology":{"n":8},
                "placement":{"c":2},"matrix":{"c":[2,10000000000000]}}}"#,
        ] {
            let response = core.handle_line_sync(line);
            let Response::Err { code, .. } = response else {
                panic!("{line} was accepted: {response:?}")
            };
            assert_eq!(code, ErrorCode::BadRequest);
        }
        let ok = core.handle_line_sync(r#"{"id":"s","kind":"solve","n":6,"c":3,"moves":100}"#);
        assert!(matches!(ok, Response::Ok { .. }), "{ok:?}");
    }

    #[test]
    fn drain_refuses_compute_but_answers_health() {
        let core = core();
        let drain = core.handle_line_sync(r#"{"id":"s","kind":"shutdown"}"#);
        assert!(matches!(drain, Response::Ok { .. }));
        assert!(core.is_draining());
        let refused = core.handle_line_sync(r#"{"id":"x","kind":"solve","n":6,"c":3}"#);
        match refused {
            Response::Err { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
            other => panic!("expected refusal, got {other:?}"),
        }
        let health = core.handle_line_sync(r#"{"id":"h","kind":"health"}"#);
        let Response::Ok { result, .. } = health else {
            panic!("health must answer while draining")
        };
        assert_eq!(
            result.get("status").and_then(Value::as_str),
            Some("draining")
        );
    }

    #[test]
    fn forwarder_claims_before_cache_and_forwarded_lines_stay_local() {
        use std::sync::atomic::AtomicUsize;
        struct ClaimAll {
            calls: AtomicUsize,
        }
        impl Forwarder for ClaimAll {
            fn forward(&self, _key: &CacheKey, envelope: &Envelope) -> Option<Response> {
                self.calls.fetch_add(1, Ordering::SeqCst);
                Some(Response::ok(
                    envelope.id.clone(),
                    false,
                    Value::Str("forwarded".into()),
                ))
            }
        }
        let core = core();
        let fwd = ClaimAll {
            calls: AtomicUsize::new(0),
        };
        let line = r#"{"id":"f","kind":"solve","n":6,"c":3,"moves":100}"#;
        let resp = core.handle_line(line, &InlineDispatch::default(), Some(&fwd));
        let Response::Ok { result, .. } = resp else {
            panic!("expected forwarded ok")
        };
        assert_eq!(*result, Value::Str("forwarded".into()));
        assert_eq!(fwd.calls.load(Ordering::SeqCst), 1);
        assert!(
            core.cache().is_empty(),
            "forwarded requests must not populate the local cache"
        );
        // A line already marked forwarded is handled locally.
        let marked = r#"{"id":"f2","kind":"solve","n":6,"c":3,"moves":100,"fwd":true}"#;
        let resp = core.handle_line(marked, &InlineDispatch::default(), Some(&fwd));
        assert!(matches!(resp, Response::Ok { .. }));
        assert_eq!(
            fwd.calls.load(Ordering::SeqCst),
            1,
            "forwarded lines must not be re-forwarded"
        );
        assert!(!core.cache().is_empty());
    }

    #[test]
    fn streaming_kinds_are_never_forwarded() {
        struct ClaimAll;
        impl Forwarder for ClaimAll {
            fn forward(&self, _key: &CacheKey, _envelope: &Envelope) -> Option<Response> {
                panic!("streaming kinds must not consult the forwarder");
            }
        }
        let core = core();
        let line = r#"{"id":"s","kind":"scenario",
            "manifest":{"scenario":1,"topology":{"n":4},
                        "sim":{"warmup":50,"cycles":200}}}"#
            .replace('\n', " ");
        let resp = core.handle_line(&line, &InlineDispatch::default(), Some(&ClaimAll));
        let Response::Ok { result, .. } = resp else {
            panic!("expected local ok, got {resp:?}")
        };
        assert_eq!(
            result.get("scenario_stream").and_then(Value::as_bool),
            Some(true)
        );
    }
}
