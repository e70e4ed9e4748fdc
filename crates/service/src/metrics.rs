//! In-process metrics: lock-free counters and log-bucket latency
//! histograms, written on demand straight to wire text: the `metrics`
//! answer's compact JSON ([`Metrics::write_snapshot`]) and the
//! `prometheus` answer's exposition, already escaped for its JSON string
//! ([`Metrics::write_prometheus_body`]). Neither builds a `Value` tree or
//! an intermediate `String`.
//!
//! Counters are plain relaxed atomics — metrics reads race with updates
//! by design and only need to be approximately consistent with each
//! other. Histograms bucket service times by `floor(log2(micros))`, so
//! quantile estimates are exact to within a factor of two, which is
//! plenty for load-shedding decisions and dashboards.

use noc_json::{write_float, write_int, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Request kinds tracked per-kind: every kind in [`crate::spec::KINDS`],
/// in its order, then a final `other` bucket that absorbs any kind not
/// listed, so an unknown kind can never inflate another kind's counters.
pub const KINDS: [&str; crate::spec::KINDS.len() + 1] = {
    let mut labels = ["other"; crate::spec::KINDS.len() + 1];
    let mut i = 0;
    while i < crate::spec::KINDS.len() {
        labels[i] = crate::spec::KINDS[i].name;
        i += 1;
    }
    labels
};

fn kind_index(kind: &str) -> usize {
    KINDS
        .iter()
        .position(|&k| k == kind)
        .unwrap_or(KINDS.len() - 1)
}

/// Histogram over `floor(log2(micros))` buckets, 0..=63.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation in microseconds.
    pub fn record(&self, micros: u64) {
        let idx = 63 - (micros | 1).leading_zeros() as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (0 < q <= 1) in microseconds: the upper
    /// edge of the bucket holding the `ceil(q·count)`-th observation.
    /// Returns 0 with no observations.
    fn quantile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }

    /// Sum of all observations in microseconds.
    fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Mean observation in microseconds (0 with no observations).
    fn mean_micros(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_micros.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Writes `{"count":..,"mean_us":..,"p50_us":..,"p99_us":..}`.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"count\":");
        write_int(self.count().into(), out);
        out.push_str(",\"mean_us\":");
        write_float(self.mean_micros(), out);
        out.push_str(",\"p50_us\":");
        write_int(self.quantile_micros(0.50).into(), out);
        out.push_str(",\"p99_us\":");
        write_int(self.quantile_micros(0.99).into(), out);
        out.push('}');
    }
}

/// The service-wide metrics registry. One instance lives for the daemon's
/// lifetime; everything is interior-mutable and shareable across threads.
#[derive(Debug, Default)]
pub struct Metrics {
    requests_by_kind: [AtomicU64; KINDS.len()],
    service_time_by_kind: [LatencyHistogram; KINDS.len()],
    responses_ok: AtomicU64,
    responses_err: AtomicU64,
    bad_requests: AtomicU64,
    shed_overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    degraded: AtomicU64,
    worker_respawns: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    connections_opened: AtomicU64,
    connections_active: AtomicU64,
    queue_depth: AtomicU64,
    inflight: AtomicU64,
}

impl Metrics {
    /// Fresh registry with all counters at zero.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Counts an incoming request of the given kind.
    pub fn record_request(&self, kind: &str) {
        self.requests_by_kind[kind_index(kind)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a successful response, with its end-to-end service time.
    pub fn record_ok(&self, kind: &str, micros: u64) {
        self.responses_ok.fetch_add(1, Ordering::Relaxed);
        self.service_time_by_kind[kind_index(kind)].record(micros);
    }

    /// Counts a failed response.
    pub fn record_err(&self, code: crate::protocol::ErrorCode) {
        use crate::protocol::ErrorCode;
        self.responses_err.fetch_add(1, Ordering::Relaxed);
        match code {
            ErrorCode::BadRequest => {
                self.bad_requests.fetch_add(1, Ordering::Relaxed);
            }
            ErrorCode::Overloaded => {
                self.shed_overloaded.fetch_add(1, Ordering::Relaxed);
            }
            ErrorCode::DeadlineExceeded => {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            ErrorCode::ShuttingDown | ErrorCode::Internal => {}
        }
    }

    /// Counts a request answered with the degraded (initial-solution)
    /// fallback because its deadline budget was too small for full SA.
    pub fn record_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a worker thread respawned after a panic.
    pub fn record_worker_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a cache hit or miss for a compute request.
    pub fn record_cache(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Tracks connection lifecycle.
    pub fn connection_opened(&self) {
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Tracks connection lifecycle.
    pub fn connection_closed(&self) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Publishes the current worker-queue depth (set by the pool).
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Tracks jobs currently executing on workers.
    pub fn job_started(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Tracks jobs currently executing on workers.
    pub fn job_finished(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Total cache hits so far (tests and the loadgen report read this
    /// through the `metrics` request instead).
    pub fn cache_hit_count(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// The single-valued counters and gauges, as (`metrics` key,
    /// prometheus type, value), in the order both answers list them.
    /// Prometheus names a counter `noc_<key>_total` and a gauge
    /// `noc_<key>`.
    fn scalars(&self) -> [(&'static str, &'static str, &AtomicU64); 13] {
        [
            ("responses_ok", "counter", &self.responses_ok),
            ("responses_err", "counter", &self.responses_err),
            ("bad_requests", "counter", &self.bad_requests),
            ("shed_overloaded", "counter", &self.shed_overloaded),
            ("deadline_exceeded", "counter", &self.deadline_exceeded),
            ("degraded", "counter", &self.degraded),
            ("worker_respawns", "counter", &self.worker_respawns),
            ("cache_hits", "counter", &self.cache_hits),
            ("cache_misses", "counter", &self.cache_misses),
            ("connections_opened", "counter", &self.connections_opened),
            ("connections_active", "gauge", &self.connections_active),
            ("queue_depth", "gauge", &self.queue_depth),
            ("inflight", "gauge", &self.inflight),
        ]
    }

    /// Writes every counter and histogram as the `metrics` answer's
    /// compact JSON object: `requests` per kind, the scalar counters, and
    /// `service_time_us` for each kind that has answered. Kind names and
    /// keys are static identifiers that need no escaping.
    pub fn write_snapshot(&self, out: &mut String) {
        out.push_str("{\"requests\":{");
        for (i, kind) in KINDS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(kind, out);
            write_int(load(&self.requests_by_kind[i]), out);
        }
        out.push('}');
        for (key, _, value) in self.scalars() {
            out.push(',');
            push_key(key, out);
            write_int(load(value), out);
        }
        out.push_str(",\"service_time_us\":{");
        let mut first = true;
        for (kind, hist) in KINDS.iter().zip(&self.service_time_by_kind) {
            if hist.count() == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            push_key(kind, out);
            hist.write_json(out);
        }
        out.push_str("}}");
    }

    /// The `metrics` answer as a `Value`: a parse of the line
    /// [`write_snapshot`](Metrics::write_snapshot) writes, for callers
    /// that read counters by key.
    pub fn snapshot(&self) -> Value {
        let mut line = String::new();
        self.write_snapshot(&mut line);
        noc_json::parse(&line).expect("the metrics snapshot is written as valid JSON")
    }

    /// Writes every counter and histogram in the Prometheus text
    /// exposition format, already escaped as the inside of a JSON string
    /// (each `"` as `\"`, each newline as `\n`): the `prometheus`
    /// answer's `body`, written without a second escaping pass. Kind and
    /// metric names are static identifiers that need no escaping.
    pub fn write_prometheus_body(&self, out: &mut String) {
        out.push_str(r"# TYPE noc_requests_total counter\n");
        for (i, kind) in KINDS.iter().enumerate() {
            push_labelled("noc_requests_total", kind, "", out);
            write_int(load(&self.requests_by_kind[i]), out);
            out.push_str(r"\n");
        }
        for (key, family, value) in self.scalars() {
            let suffix = if family == "counter" { "_total" } else { "" };
            push_all(out, &["# TYPE noc_", key, suffix, " ", family, r"\n"]);
            push_all(out, &["noc_", key, suffix, " "]);
            write_int(load(value), out);
            out.push_str(r"\n");
        }
        out.push_str(r"# TYPE noc_service_time_microseconds summary\n");
        for (kind, hist) in KINDS.iter().zip(&self.service_time_by_kind) {
            if hist.count() == 0 {
                continue;
            }
            const NAME: &str = "noc_service_time_microseconds";
            let samples = [
                (NAME, r#",quantile=\"0.5\""#, hist.quantile_micros(0.50)),
                (NAME, r#",quantile=\"0.99\""#, hist.quantile_micros(0.99)),
                ("noc_service_time_microseconds_sum", "", hist.sum_micros()),
                ("noc_service_time_microseconds_count", "", hist.count()),
            ];
            for (name, quantile, value) in samples {
                push_labelled(name, kind, quantile, out);
                write_int(value.into(), out);
                out.push_str(r"\n");
            }
        }
    }
}

/// A counter's current value, as [`write_int`] takes it.
fn load(counter: &AtomicU64) -> i128 {
    counter.load(Ordering::Relaxed).into()
}

/// Appends each piece in turn.
fn push_all(out: &mut String, pieces: &[&str]) {
    for piece in pieces {
        out.push_str(piece);
    }
}

/// Appends `"key":`.
fn push_key(key: &str, out: &mut String) {
    push_all(out, &["\"", key, "\":"]);
}

/// Appends `name{kind=\"kind\"extra} `, escaped for a JSON string.
fn push_labelled(name: &str, kind: &str, extra: &str, out: &mut String) {
    push_all(out, &[name, r#"{kind=\""#, kind, r#"\""#, extra, "} "]);
}

/// Bumps the named `noc-trace` counter (no-op when tracing is off). The
/// robustness events — shed, deadline-exceeded, degraded, respawned,
/// retried, poison-dropped — go through here so they are observable in
/// the `trace` and `prometheus` request kinds alongside the core
/// service metrics.
pub(crate) fn trace_inc(name: &str) {
    if let Some(sink) = noc_trace::sink() {
        sink.registry().counter(name).inc();
    }
}

/// Serialises the unit tests that switch the process-global trace sink on
/// and off, so one test's `disable` cannot swallow another's counters.
#[cfg(test)]
pub(crate) fn trace_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Renders the `noc-trace` registry's counters and gauges in the
/// Prometheus text exposition format, as `noc_trace_counter` /
/// `noc_trace_gauge` families labelled by metric name. Empty when
/// tracing was never enabled. The `prometheus` request handler appends it,
/// escaped, to the body [`Metrics::write_prometheus_body`] writes.
pub fn trace_prometheus_text() -> String {
    use std::fmt::Write as _;
    let Some(sink) = noc_trace::installed_sink() else {
        return String::new();
    };
    let snapshot = sink.registry().snapshot();
    let mut out = String::new();
    for (family, kind) in [("counters", "counter"), ("gauges", "gauge")] {
        let Some(Value::Obj(entries)) = snapshot.get(family).cloned() else {
            continue;
        };
        if entries.is_empty() {
            continue;
        }
        let _ = writeln!(out, "# TYPE noc_trace_{kind} {kind}");
        for (name, value) in entries {
            let v = value.as_i128().unwrap_or(0);
            let _ = writeln!(out, "noc_trace_{kind}{{name=\"{name}\"}} {v}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::default();
        for micros in [10u64, 20, 30, 40, 1000] {
            h.record(micros);
        }
        assert_eq!(h.count(), 5);
        // p50 lands in the bucket of 30 µs (16..32): upper edge 32.
        assert_eq!(h.quantile_micros(0.5), 32);
        // p99 lands in the bucket of 1000 µs (512..1024): upper edge 1024.
        assert_eq!(h.quantile_micros(0.99), 1024);
        assert!(h.mean_micros() > 0.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_micros(0.5), 0);
        assert_eq!(h.mean_micros(), 0.0);
    }

    #[test]
    fn snapshot_contains_core_counters() {
        let m = Metrics::new();
        m.record_request("solve");
        m.record_ok("solve", 1500);
        m.record_cache(false);
        m.record_cache(true);
        let snap = m.snapshot();
        assert_eq!(snap.get("cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(snap.get("cache_misses").unwrap().as_u64(), Some(1));
        assert_eq!(
            snap.get("requests").unwrap().get("solve").unwrap().as_u64(),
            Some(1)
        );
        assert!(snap.get("service_time_us").unwrap().get("solve").is_some());
    }

    #[test]
    fn every_protocol_kind_has_its_own_counter() {
        use crate::protocol::{parse_request, Request};
        // Position of each variant. The match has no wildcard arm, so a new
        // request kind fails to compile here until it gets a line below.
        fn variant(request: &Request) -> usize {
            match request {
                Request::Solve(_) => 0,
                Request::Optimal(_) => 1,
                Request::Sweep(_) => 2,
                Request::Simulate(_) => 3,
                Request::Throughput(_) => 4,
                Request::Scenario(_) => 5,
                Request::Frontier(_) => 6,
                Request::Metrics => 7,
                Request::Health => 8,
                Request::Shutdown => 9,
                Request::Trace => 10,
                Request::Prometheus => 11,
            }
        }
        let lines = [
            r#"{"kind":"solve","n":8,"c":4}"#,
            r#"{"kind":"optimal","n":8,"c":2}"#,
            r#"{"kind":"sweep","n":4}"#,
            r#"{"kind":"simulate","n":4,"pattern":"ur","rate":0.02}"#,
            r#"{"kind":"throughput","n":4,"pattern":"ur"}"#,
            r#"{"kind":"scenario","manifest":{"scenario":1,"topology":{"n":4}}}"#,
            r#"{"kind":"frontier","n":4}"#,
            r#"{"kind":"metrics"}"#,
            r#"{"kind":"health"}"#,
            r#"{"kind":"shutdown"}"#,
            r#"{"kind":"trace"}"#,
            r#"{"kind":"prometheus"}"#,
        ];
        let mut seen = [false; 12];
        for line in lines {
            let request = parse_request(line)
                .unwrap_or_else(|e| panic!("{line}: {e}"))
                .request;
            seen[variant(&request)] = true;
            let kind = request.kind();
            assert_eq!(KINDS[kind_index(kind)], kind, "{kind} not tracked");
        }
        assert!(seen.iter().all(|&s| s), "a request variant has no line");
        // And no stale slots: every named kind but the catch-all is real.
        assert_eq!(KINDS.len(), lines.len() + 1);
        assert_eq!(KINDS[KINDS.len() - 1], "other");
    }

    #[test]
    fn unknown_kinds_land_in_the_other_bucket() {
        // Regression: `kind_index` used to fall back to slot 0, silently
        // inflating the `solve` counters for any unlisted kind.
        let m = Metrics::new();
        m.record_request("frobnicate");
        m.record_ok("frobnicate", 10);
        let snap = m.snapshot();
        let requests = snap.get("requests").unwrap();
        assert_eq!(requests.get("other").unwrap().as_u64(), Some(1));
        assert_eq!(requests.get("solve").unwrap().as_u64(), Some(0));
        assert!(snap.get("service_time_us").unwrap().get("other").is_some());
        assert!(snap.get("service_time_us").unwrap().get("solve").is_none());
    }

    #[test]
    fn trace_counters_render_as_prometheus_text() {
        let _lock = trace_test_lock();
        noc_trace::enable_with_capacity(1024);
        trace_inc("service.test.metric");
        let text = trace_prometheus_text();
        assert!(text.contains("# TYPE noc_trace_counter counter"));
        assert!(text.contains("noc_trace_counter{name=\"service.test.metric\"}"));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
        }
        noc_trace::disable();
    }

    #[test]
    fn kind_names_need_no_escaping() {
        // The writers copy kind names into JSON keys and escaped label
        // values as they are.
        for kind in KINDS {
            let mut quoted = String::new();
            noc_json::write_str(kind, &mut quoted);
            assert_eq!(quoted, format!("\"{kind}\""));
        }
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let m = Metrics::new();
        m.record_request("solve");
        m.record_ok("solve", 1500);
        m.record_cache(true);
        // The body is escaped for a JSON string: quoted, it parses to the
        // exposition text.
        let mut quoted = String::from('"');
        m.write_prometheus_body(&mut quoted);
        quoted.push('"');
        let body = noc_json::parse(&quoted).expect("the body is an escaped JSON string");
        let text = body.as_str().expect("a string");
        assert!(text.contains("# TYPE noc_requests_total counter"));
        assert!(text.contains("noc_requests_total{kind=\"solve\"} 1"));
        assert!(text.contains("noc_cache_hits_total 1"));
        assert!(
            text.contains("noc_service_time_microseconds{kind=\"solve\",quantile=\"0.99\"} 2048")
        );
        assert!(text.contains("noc_service_time_microseconds_count{kind=\"solve\"} 1"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(!name.is_empty());
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
        }
    }
}
