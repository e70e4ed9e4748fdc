//! The inline answers' wire bytes, pinned. A registry filled by fixed
//! calls answers `metrics`, `prometheus`, `health` and `shutdown`, so
//! every byte of their response lines is known in advance (`health`'s
//! `uptime_ms` aside, which is masked). Whatever writes these answers
//! must write exactly these lines.

use noc_service::protocol::wire_lines;
use noc_service::{ErrorCode, InlineDispatch, ServiceCore};

/// A core whose registry holds a fixed history: several kinds with fixed
/// service times, one garbage kind, cache hits and misses, and one error
/// of each code.
fn filled_core() -> ServiceCore {
    let core = ServiceCore::new(3, 64, 4);
    let metrics = core.metrics();
    for (kind, micros) in [
        ("solve", 1500),
        ("solve", 20),
        ("solve", 35),
        ("simulate", 0),
        ("sweep", 70_000),
        ("frontier", 999),
        ("frontier", 1000),
        ("health", 3),
        ("frobnicate", 7),
    ] {
        metrics.record_request(kind);
        metrics.record_ok(kind, micros);
    }
    metrics.record_request("optimal");
    metrics.record_request("");
    for hit in [true, false, true, true, false] {
        metrics.record_cache(hit);
    }
    for code in [
        ErrorCode::BadRequest,
        ErrorCode::BadRequest,
        ErrorCode::Overloaded,
        ErrorCode::DeadlineExceeded,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ] {
        metrics.record_err(code);
    }
    metrics.record_degraded();
    metrics.record_worker_respawn();
    metrics.connection_opened();
    metrics.connection_opened();
    metrics.connection_closed();
    metrics.job_started();
    core
}

/// The one wire line a fresh filled core answers `line` with.
fn answer(line: &str) -> String {
    let core = filled_core();
    let response = core.handle_line(line, &InlineDispatch::default(), None);
    let mut wire = wire_lines(&response);
    assert_eq!(wire.len(), 1, "{wire:?}");
    wire.remove(0)
}

/// Replaces the digits after `"uptime_ms":` with `0`.
fn mask_uptime(line: &str) -> String {
    const KEY: &str = "\"uptime_ms\":";
    let at = line.find(KEY).expect("health carries uptime_ms") + KEY.len();
    let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
    assert!(digits > 0, "uptime_ms is not an integer in {line}");
    format!("{}0{}", &line[..at], &line[at + digits..])
}

const METRICS: &str = concat!(
    r#"{"id":"m","ok":true,"cached":false,"result":{"requests":{"solve":3,"#,
    r#""optimal":1,"sweep":1,"simulate":1,"throughput":0,"scenario":0,"#,
    r#""frontier":2,"metrics":1,"health":1,"shutdown":0,"trace":0,"#,
    r#""prometheus":0,"other":2},"responses_ok":9,"responses_err":6,"#,
    r#""bad_requests":2,"shed_overloaded":1,"deadline_exceeded":1,"#,
    r#""degraded":1,"worker_respawns":1,"cache_hits":3,"cache_misses":2,"#,
    r#""connections_opened":2,"connections_active":1,"queue_depth":0,"#,
    r#""inflight":1,"service_time_us":{"solve":{"count":3,"mean_us":518.3333333333334,"#,
    r#""p50_us":64,"p99_us":2048},"sweep":{"count":1,"mean_us":70000.0,"#,
    r#""p50_us":131072,"p99_us":131072},"simulate":{"count":1,"mean_us":0.0,"#,
    r#""p50_us":2,"p99_us":2},"frontier":{"count":2,"mean_us":999.5,"#,
    r#""p50_us":1024,"p99_us":1024},"health":{"count":1,"mean_us":3.0,"#,
    r#""p50_us":4,"p99_us":4},"other":{"count":1,"mean_us":7.0,"#,
    r#""p50_us":8,"p99_us":8}}}}"#,
);

const PROMETHEUS: &str = concat!(
    r#"{"id":"p","ok":true,"cached":false,"result":"#,
    r#"{"content_type":"text/plain; version=0.0.4","body":""#,
    r##"# TYPE noc_requests_total counter\n"##,
    r##"noc_requests_total{kind=\"solve\"} 3\n"##,
    r##"noc_requests_total{kind=\"optimal\"} 1\n"##,
    r##"noc_requests_total{kind=\"sweep\"} 1\n"##,
    r##"noc_requests_total{kind=\"simulate\"} 1\n"##,
    r##"noc_requests_total{kind=\"throughput\"} 0\n"##,
    r##"noc_requests_total{kind=\"scenario\"} 0\n"##,
    r##"noc_requests_total{kind=\"frontier\"} 2\n"##,
    r##"noc_requests_total{kind=\"metrics\"} 0\n"##,
    r##"noc_requests_total{kind=\"health\"} 1\n"##,
    r##"noc_requests_total{kind=\"shutdown\"} 0\n"##,
    r##"noc_requests_total{kind=\"trace\"} 0\n"##,
    r##"noc_requests_total{kind=\"prometheus\"} 1\n"##,
    r##"noc_requests_total{kind=\"other\"} 2\n"##,
    r##"# TYPE noc_responses_ok_total counter\n"##,
    r##"noc_responses_ok_total 9\n"##,
    r##"# TYPE noc_responses_err_total counter\n"##,
    r##"noc_responses_err_total 6\n"##,
    r##"# TYPE noc_bad_requests_total counter\n"##,
    r##"noc_bad_requests_total 2\n"##,
    r##"# TYPE noc_shed_overloaded_total counter\n"##,
    r##"noc_shed_overloaded_total 1\n"##,
    r##"# TYPE noc_deadline_exceeded_total counter\n"##,
    r##"noc_deadline_exceeded_total 1\n"##,
    r##"# TYPE noc_degraded_total counter\n"##,
    r##"noc_degraded_total 1\n"##,
    r##"# TYPE noc_worker_respawns_total counter\n"##,
    r##"noc_worker_respawns_total 1\n"##,
    r##"# TYPE noc_cache_hits_total counter\n"##,
    r##"noc_cache_hits_total 3\n"##,
    r##"# TYPE noc_cache_misses_total counter\n"##,
    r##"noc_cache_misses_total 2\n"##,
    r##"# TYPE noc_connections_opened_total counter\n"##,
    r##"noc_connections_opened_total 2\n"##,
    r##"# TYPE noc_connections_active gauge\n"##,
    r##"noc_connections_active 1\n"##,
    r##"# TYPE noc_queue_depth gauge\n"##,
    r##"noc_queue_depth 0\n"##,
    r##"# TYPE noc_inflight gauge\n"##,
    r##"noc_inflight 1\n"##,
    r##"# TYPE noc_service_time_microseconds summary\n"##,
    r##"noc_service_time_microseconds{kind=\"solve\",quantile=\"0.5\"} 64\n"##,
    r##"noc_service_time_microseconds{kind=\"solve\",quantile=\"0.99\"} 2048\n"##,
    r##"noc_service_time_microseconds_sum{kind=\"solve\"} 1555\n"##,
    r##"noc_service_time_microseconds_count{kind=\"solve\"} 3\n"##,
    r##"noc_service_time_microseconds{kind=\"sweep\",quantile=\"0.5\"} 131072\n"##,
    r##"noc_service_time_microseconds{kind=\"sweep\",quantile=\"0.99\"} 131072\n"##,
    r##"noc_service_time_microseconds_sum{kind=\"sweep\"} 70000\n"##,
    r##"noc_service_time_microseconds_count{kind=\"sweep\"} 1\n"##,
    r##"noc_service_time_microseconds{kind=\"simulate\",quantile=\"0.5\"} 2\n"##,
    r##"noc_service_time_microseconds{kind=\"simulate\",quantile=\"0.99\"} 2\n"##,
    r##"noc_service_time_microseconds_sum{kind=\"simulate\"} 0\n"##,
    r##"noc_service_time_microseconds_count{kind=\"simulate\"} 1\n"##,
    r##"noc_service_time_microseconds{kind=\"frontier\",quantile=\"0.5\"} 1024\n"##,
    r##"noc_service_time_microseconds{kind=\"frontier\",quantile=\"0.99\"} 1024\n"##,
    r##"noc_service_time_microseconds_sum{kind=\"frontier\"} 1999\n"##,
    r##"noc_service_time_microseconds_count{kind=\"frontier\"} 2\n"##,
    r##"noc_service_time_microseconds{kind=\"health\",quantile=\"0.5\"} 4\n"##,
    r##"noc_service_time_microseconds{kind=\"health\",quantile=\"0.99\"} 4\n"##,
    r##"noc_service_time_microseconds_sum{kind=\"health\"} 3\n"##,
    r##"noc_service_time_microseconds_count{kind=\"health\"} 1\n"##,
    r##"noc_service_time_microseconds{kind=\"other\",quantile=\"0.5\"} 8\n"##,
    r##"noc_service_time_microseconds{kind=\"other\",quantile=\"0.99\"} 8\n"##,
    r##"noc_service_time_microseconds_sum{kind=\"other\"} 7\n"##,
    r##"noc_service_time_microseconds_count{kind=\"other\"} 1\n"##,
    r##""}}"##,
);

const HEALTH: &str = concat!(
    r#"{"id":"h","ok":true,"cached":false,"result":{"status":"ok","#,
    r#""uptime_ms":0,"workers":3,"queue_depth":0,"cache_entries":0}}"#,
);

const SHUTDOWN: &str = r#"{"id":"s","ok":true,"cached":false,"result":{"draining":true}}"#;

#[test]
fn metrics_line_is_pinned() {
    assert_eq!(answer(r#"{"id":"m","kind":"metrics"}"#), METRICS);
}

#[test]
fn prometheus_line_is_pinned() {
    assert_eq!(answer(r#"{"id":"p","kind":"prometheus"}"#), PROMETHEUS);
}

#[test]
fn health_line_is_pinned() {
    let line = answer(r#"{"id":"h","kind":"health"}"#);
    assert_eq!(mask_uptime(&line), HEALTH);
}

#[test]
fn shutdown_line_is_pinned() {
    assert_eq!(answer(r#"{"id":"s","kind":"shutdown"}"#), SHUTDOWN);
}
