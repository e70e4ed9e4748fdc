//! End-to-end daemon tests: a real server on an ephemeral port, real TCP
//! clients, concurrent requests, cache behaviour, and graceful shutdown.

use noc_json::Value;
use noc_placement::objective::AllPairsObjective;
use noc_placement::{solve_row, InitialStrategy, SaParams};
use noc_service::{Client, ErrorCode, Response, Server, ServerHandle, ServiceConfig};
use std::thread::JoinHandle;

/// Starts a daemon on an ephemeral port; returns its address, a stop
/// handle, and the join handle of the serving thread.
fn start_daemon(config: ServiceConfig) -> (String, ServerHandle, JoinHandle<()>) {
    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, thread)
}

fn small_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServiceConfig::default()
    }
}

fn expect_ok(resp: Response) -> (bool, Value) {
    match resp {
        Response::Ok { cached, result, .. } => (cached, Value::clone(&result)),
        Response::Err { code, message, .. } => {
            panic!("expected ok, got {code:?}: {message}")
        }
    }
}

#[test]
fn concurrent_solves_match_direct_solver() {
    let (addr, handle, thread) = start_daemon(small_config());
    // Four clients, each solving a different seed concurrently; every
    // response must equal the direct in-process solve bit-for-bit.
    std::thread::scope(|s| {
        for seed in 0u64..4 {
            let addr = addr.clone();
            s.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let line = format!(
                    r#"{{"id":"s{seed}","kind":"solve","n":8,"c":4,"moves":400,"seed":{seed}}}"#
                );
                let (_cached, result) = expect_ok(client.request(&line).expect("round trip"));
                let direct = solve_row(
                    8,
                    4,
                    &AllPairsObjective::paper(),
                    InitialStrategy::DivideAndConquer,
                    &SaParams::paper().with_moves(400),
                    seed,
                );
                let got = result.get("objective").and_then(Value::as_f64).unwrap();
                assert_eq!(
                    got.to_bits(),
                    direct.best_objective.to_bits(),
                    "seed {seed}: daemon {got} != direct {}",
                    direct.best_objective
                );
                let links: Vec<(usize, usize)> = result
                    .get("links")
                    .and_then(Value::as_array)
                    .unwrap()
                    .iter()
                    .map(|pair| {
                        let p = pair.as_array().unwrap();
                        (p[0].as_usize().unwrap(), p[1].as_usize().unwrap())
                    })
                    .collect();
                let direct_links: Vec<(usize, usize)> =
                    direct.best.express_links().map(|l| (l.a, l.b)).collect();
                assert_eq!(links, direct_links, "seed {seed} placements differ");
            });
        }
    });
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn identical_requests_hit_the_cache() {
    let (addr, handle, thread) = start_daemon(small_config());
    let mut client = Client::connect(&addr).expect("connect");
    let line = r#"{"id":"c","kind":"solve","n":8,"c":3,"moves":300,"seed":11}"#;

    let (cached_first, first) = expect_ok(client.request(line).expect("first"));
    assert!(!cached_first, "first request cannot be a cache hit");
    let (cached_second, second) = expect_ok(client.request(line).expect("second"));
    assert!(cached_second, "identical request must be served from cache");
    assert_eq!(first, second, "cache returned a different result");

    // A different seed is a different key — miss again.
    let other = r#"{"id":"c2","kind":"solve","n":8,"c":3,"moves":300,"seed":12}"#;
    let (cached_other, _) = expect_ok(client.request(other).expect("other"));
    assert!(!cached_other);

    // The daemon's own metrics agree.
    let (_, metrics) = expect_ok(
        client
            .request(r#"{"id":"m","kind":"metrics"}"#)
            .expect("metrics"),
    );
    assert_eq!(metrics.get("cache_hits").unwrap().as_u64(), Some(1));
    assert_eq!(metrics.get("cache_misses").unwrap().as_u64(), Some(2));
    assert!(
        metrics
            .get("service_time_us")
            .unwrap()
            .get("solve")
            .is_some(),
        "solve latency histogram missing"
    );

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn health_and_bad_requests() {
    let (addr, handle, thread) = start_daemon(small_config());
    let mut client = Client::connect(&addr).expect("connect");

    let (_, health) = expect_ok(
        client
            .request(r#"{"id":"h","kind":"health"}"#)
            .expect("health"),
    );
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("workers").unwrap().as_u64(), Some(2));

    match client
        .request(r#"{"id":"bad","kind":"solve","n":1}"#)
        .unwrap()
    {
        Response::Err { id, code, .. } => {
            assert_eq!(id, "bad");
            assert_eq!(code, ErrorCode::BadRequest);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    match client.request("this is not json").unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected bad_request, got {other:?}"),
    }

    // The connection survives bad requests.
    let (_, health2) = expect_ok(
        client
            .request(r#"{"id":"h2","kind":"health"}"#)
            .expect("health after errors"),
    );
    assert_eq!(health2.get("status").unwrap().as_str(), Some("ok"));

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn trace_and_prometheus_endpoints() {
    noc_trace::enable_with_capacity(16_384);
    let (addr, handle, thread) = start_daemon(small_config());
    let mut client = Client::connect(&addr).expect("connect");

    // A small solve generates request spans and SA convergence events.
    expect_ok(
        client
            .request(r#"{"id":"s","kind":"solve","n":8,"c":4,"moves":2000,"seed":1}"#)
            .expect("solve"),
    );

    let (_, trace) = expect_ok(
        client
            .request(r#"{"id":"t","kind":"trace"}"#)
            .expect("trace"),
    );
    assert_eq!(trace.get("enabled"), Some(&Value::Bool(true)));
    let events = trace.get("events").unwrap().as_array().unwrap();
    let has = |name: &str| {
        events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
    };
    assert!(has("request.execute"), "worker span missing from trace");
    assert!(has("sa.epoch"), "SA convergence series missing from trace");
    assert!(trace.get("registry").unwrap().get("histograms").is_some());

    let (_, prom) = expect_ok(
        client
            .request(r#"{"id":"p","kind":"prometheus"}"#)
            .expect("prometheus"),
    );
    let body = prom.get("body").unwrap().as_str().unwrap();
    assert!(body.contains("# TYPE noc_requests_total counter"));
    assert!(body.contains("noc_requests_total{kind=\"solve\"} 1"));
    assert!(body.contains("noc_service_time_microseconds_count{kind=\"solve\"} 1"));

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn tiny_deadline_is_reported_as_exceeded() {
    let (addr, handle, thread) = start_daemon(small_config());
    let mut client = Client::connect(&addr).expect("connect");
    // A 1 ms deadline on a non-trivial simulation cannot be met, and
    // `simulate` has no degraded fallback — the deadline must surface as
    // a structured error. (`solve` would instead answer with the
    // degraded constructive heuristic; see the degradation test below.)
    let line = r#"{"id":"dl","kind":"simulate","n":16,"pattern":"ur","rate":0.05,"cycles":200000,"seed":5,"deadline_ms":1}"#;
    match client.request(line).expect("round trip") {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded),
        Response::Ok { .. } => panic!("a 1 ms deadline should not be met on a 200k-cycle sim"),
    }
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn starved_solve_degrades_to_the_constructive_heuristic() {
    let (addr, handle, thread) = start_daemon(small_config());
    let mut client = Client::connect(&addr).expect("connect");
    // 2M moves at the conservative 100 moves/ms planning rate needs
    // ~20 s — a 5 s budget cannot absorb it, so the service answers with
    // the divide-and-conquer construction instead of failing.
    let line =
        r#"{"id":"deg","kind":"solve","n":12,"c":4,"moves":2000000,"seed":3,"deadline_ms":5000}"#;
    let (cached, result) = expect_ok(client.request(line).expect("round trip"));
    assert!(!cached);
    assert_eq!(result.get("degraded"), Some(&Value::Bool(true)));
    assert!(result.get("links").is_some());
    let mcs = result.get("max_cross_section").unwrap().as_u64().unwrap();
    assert!(mcs <= 4, "degraded placement must still respect C");

    // Degraded answers are never cached: the identical request misses
    // again (and degrades again), because the weaker result must not be
    // served to a later caller with a generous budget.
    let (cached_again, again) = expect_ok(client.request(line).expect("second round trip"));
    assert!(!cached_again, "degraded results must not be cached");
    assert_eq!(again, result, "degradation path must be deterministic");

    // An un-deadlined (default budget) small solve is never degraded and
    // carries no `degraded` field at all — byte-identical to a build
    // without the robustness layer.
    let normal = r#"{"id":"n","kind":"solve","n":8,"c":4,"moves":300,"seed":3}"#;
    let (_, full) = expect_ok(client.request(normal).expect("normal solve"));
    assert_eq!(full.get("degraded"), None);

    let (_, metrics) = expect_ok(
        client
            .request(r#"{"id":"m","kind":"metrics"}"#)
            .expect("metrics"),
    );
    assert_eq!(metrics.get("degraded").unwrap().as_u64(), Some(2));

    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn shutdown_request_drains_the_daemon() {
    let (addr, _handle, thread) = start_daemon(small_config());
    let mut client = Client::connect(&addr).expect("connect");
    let (_, body) = expect_ok(
        client
            .request(r#"{"id":"down","kind":"shutdown"}"#)
            .expect("shutdown"),
    );
    assert_eq!(body.get("draining").unwrap().as_bool(), Some(true));
    // run() must return on its own after the shutdown request.
    thread.join().unwrap();
    // New connections are refused once the listener is gone.
    assert!(Client::connect(&addr).is_err());
}
