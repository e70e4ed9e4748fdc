//! Chaos suite: a real daemon on a real socket under seeded fault
//! schedules. Requires the `faultpoint` feature:
//!
//! ```text
//! cargo test -p noc-service --features faultpoint --test chaos
//! ```
//!
//! Every scenario asserts the same three invariants: the server never
//! panics (its thread joins cleanly), every request is answered with a
//! structured response (or a transport error the client recovers from),
//! and the outcome sequence is a pure function of the fault seed.
//!
//! The armed schedule and the hit counters are process-global, so every
//! test takes the `SERIAL` lock and disarms on exit via a drop guard.

#![cfg(feature = "faultpoint")]

use faultpoint::{Fault, Schedule};
use noc_json::Value;
use noc_service::{
    Client, ErrorCode, Response, RetryPolicy, RetryingClient, Server, ServerHandle, ServiceConfig,
};
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Disarms the process-global schedule even when an assertion fails, so
/// one failing scenario cannot bleed faults into the next.
struct DisarmGuard;

impl Drop for DisarmGuard {
    fn drop(&mut self) {
        faultpoint::disarm();
    }
}

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

fn config(workers: usize, queue: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity: queue,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServiceConfig::default()
    }
}

fn expect_ok(resp: Response) -> (bool, Value) {
    match resp {
        Response::Ok { cached, result, .. } => (cached, Value::clone(&result)),
        Response::Err { code, message, .. } => panic!("expected ok, got {code:?}: {message}"),
    }
}

fn metric(client: &mut Client, name: &str) -> u64 {
    let (_, snap) = expect_ok(
        client
            .request(r#"{"id":"m","kind":"metrics"}"#)
            .expect("metrics"),
    );
    snap.get(name)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn prometheus_body(client: &mut Client) -> String {
    let (_, prom) = expect_ok(
        client
            .request(r#"{"id":"p","kind":"prometheus"}"#)
            .expect("prometheus"),
    );
    prom.get("body").unwrap().as_str().unwrap().to_string()
}

/// Value of a `noc_trace_counter{name="..."}` sample in a Prometheus
/// body; 0 when the counter has never been touched.
fn trace_counter(body: &str, name: &str) -> u64 {
    let needle = format!("noc_trace_counter{{name=\"{name}\"}} ");
    body.lines()
        .find_map(|l| l.strip_prefix(needle.as_str()))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

#[test]
fn worker_panic_fails_only_the_inflight_request_and_respawns() {
    let _s = serial();
    let _d = DisarmGuard;
    faultpoint::arm(Schedule::new().fault_at("worker.exec", 1, Fault::Panic));

    let (addr, handle, thread) = start_daemon(config(2, 8));
    let mut client = Client::connect(&addr).expect("connect");

    // The first compute request eats the injected panic: it must come
    // back as a structured internal error, not a dropped connection.
    match client
        .request(r#"{"id":"boom","kind":"solve","n":8,"c":4,"moves":200,"seed":1}"#)
        .expect("round trip survives a worker panic")
    {
        Response::Err { id, code, message } => {
            assert_eq!(id, "boom");
            assert_eq!(code, ErrorCode::Internal);
            assert!(message.contains("panicked"), "unexpected message {message}");
        }
        other => panic!("expected internal error, got {other:?}"),
    }

    // Pool capacity is restored: several follow-up solves all succeed.
    for seed in 2u64..6 {
        let line =
            format!(r#"{{"id":"s{seed}","kind":"solve","n":8,"c":4,"moves":200,"seed":{seed}}}"#);
        expect_ok(client.request(&line).expect("post-panic solve"));
    }
    assert_eq!(metric(&mut client, "worker_respawns"), 1);
    assert_eq!(
        faultpoint::injection_log(),
        vec![("worker.exec".to_string(), 1, "panic")]
    );

    handle.shutdown();
    thread.join().expect("server thread must not panic");
}

#[test]
fn injected_slow_execution_trips_the_deadline() {
    let _s = serial();
    let _d = DisarmGuard;
    faultpoint::arm(Schedule::new().fault_at(
        "worker.exec",
        1,
        Fault::Delay(Duration::from_millis(400)),
    ));

    let (addr, handle, thread) = start_daemon(config(2, 8));
    let mut client = Client::connect(&addr).expect("connect");

    let t0 = Instant::now();
    match client
        .request(
            r#"{"id":"slow","kind":"solve","n":8,"c":4,"moves":200,"seed":1,"deadline_ms":50}"#,
        )
        .expect("round trip")
    {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded),
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    let waited = t0.elapsed();
    assert!(
        waited < Duration::from_millis(350),
        "client must get the deadline answer before the injected delay ends, waited {waited:?}"
    );

    // The next request (hit 2, no fault) is served normally.
    expect_ok(
        client
            .request(r#"{"id":"ok","kind":"solve","n":8,"c":4,"moves":200,"seed":2}"#)
            .expect("post-delay solve"),
    );

    // Both enforcement points fired: the handler timeout and the
    // worker-side check after the injected sleep.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if metric(&mut client, "deadline_exceeded") == 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "deadline_exceeded never reached 2"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    handle.shutdown();
    thread.join().expect("server thread must not panic");
}

#[test]
fn poisoned_cache_entries_are_dropped_not_served() {
    let _s = serial();
    let _d = DisarmGuard;
    noc_trace::enable_with_capacity(16_384);
    faultpoint::arm(Schedule::new().fault_at("cache.put", 1, Fault::Poison));

    let (addr, handle, thread) = start_daemon(config(1, 8));
    let mut client = Client::connect(&addr).expect("connect");
    let before = trace_counter(
        &prometheus_body(&mut client),
        "service.cache.poison_dropped",
    );

    let line = r#"{"id":"c","kind":"solve","n":8,"c":3,"moves":200,"seed":7}"#;
    // First request computes and stores a *poisoned* entry.
    let (cached1, first) = expect_ok(client.request(line).expect("first"));
    assert!(!cached1);
    // Second request must NOT be served the poisoned entry: the
    // integrity check drops it and the solver recomputes.
    let (cached2, second) = expect_ok(client.request(line).expect("second"));
    assert!(!cached2, "a poisoned entry must never produce a cache hit");
    assert_eq!(first, second, "recomputed result must match the original");
    // The recompute stored a clean entry (put hit 2): third time hits.
    let (cached3, third) = expect_ok(client.request(line).expect("third"));
    assert!(cached3, "clean re-stored entry must be served");
    assert_eq!(first, third);

    let after = trace_counter(
        &prometheus_body(&mut client),
        "service.cache.poison_dropped",
    );
    assert_eq!(after - before, 1, "exactly one poisoned entry was dropped");

    handle.shutdown();
    thread.join().expect("server thread must not panic");
}

#[test]
fn torn_response_write_is_recovered_by_the_retrying_client() {
    let _s = serial();
    let _d = DisarmGuard;
    faultpoint::arm(Schedule::new().fault_at("response.write", 1, Fault::Error));

    let (addr, handle, thread) = start_daemon(config(2, 8));
    let mut client = RetryingClient::new(
        &addr,
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(50),
            seed: 11,
        },
    );

    // The first response dies mid-write (torn prefix + closed socket).
    // The retrying client treats that as a transport failure, reconnects
    // and resends; the second attempt must succeed.
    let (_, result) = expect_ok(
        client
            .request(r#"{"id":"torn","kind":"solve","n":8,"c":4,"moves":200,"seed":3}"#)
            .expect("retry must recover from a torn response"),
    );
    assert!(result.get("objective").is_some());
    assert_eq!(client.retries(), 1, "exactly one retry was needed");

    handle.shutdown();
    thread.join().expect("server thread must not panic");
}

#[test]
fn checkpointed_solve_survives_a_worker_panic_and_resumes() {
    let _s = serial();
    let _d = DisarmGuard;
    noc_trace::enable_with_capacity(16_384);

    // Clean reference on an unfaulted daemon: what the answer must be.
    let line = r#"{"id":"ck","kind":"solve","n":8,"c":4,"moves":2500,"seed":9,"checkpoint":1}"#;
    let plain = r#"{"id":"ck","kind":"solve","n":8,"c":4,"moves":2500,"seed":9}"#;
    let (addr0, handle0, thread0) = start_daemon(config(1, 8));
    let mut c0 = Client::connect(&addr0).expect("connect reference");
    let (_, reference) = expect_ok(c0.request(plain).expect("reference solve"));
    handle0.shutdown();
    thread0.join().expect("reference server must not panic");

    // Faulted daemon: the first checkpoint save panics the worker *after*
    // the snapshot reached the shared cache, killing the in-flight solve.
    faultpoint::arm(Schedule::new().fault_at("exec.checkpoint", 1, Fault::Panic));
    let (addr, handle, thread) = start_daemon(config(1, 8));
    let mut client = Client::connect(&addr).expect("connect");
    let before = prometheus_body(&mut client);

    match client
        .request(line)
        .expect("round trip survives the mid-solve panic")
    {
        Response::Err { id, code, .. } => {
            assert_eq!(id, "ck");
            assert_eq!(code, ErrorCode::Internal);
        }
        other => panic!("expected internal error, got {other:?}"),
    }

    // Re-sending the request reaches the respawned worker, which finds
    // the checkpoint in the cache and resumes instead of starting over.
    // The answer must be byte-identical to the uninterrupted solve.
    let (cached, resumed) = expect_ok(client.request(line).expect("resumed solve"));
    assert!(!cached, "a resumed solve is computed, not a cache hit");
    assert_eq!(
        resumed, reference,
        "resumed result diverged from the uninterrupted solve"
    );
    // And it seeded the result cache like any solve: third time hits.
    let (cached3, third) = expect_ok(client.request(line).expect("cached solve"));
    assert!(cached3);
    assert_eq!(third, reference);

    // Counter deltas: the doomed run saved once (panicking after), the
    // resumed run loaded once and saved at its remaining boundary, and
    // exactly one worker was respawned.
    assert_eq!(metric(&mut client, "worker_respawns"), 1);
    let after = prometheus_body(&mut client);
    let delta = |name: &str| trace_counter(&after, name) - trace_counter(&before, name);
    assert_eq!(delta("snapshot.resumed"), 1, "exactly one resume");
    assert_eq!(delta("snapshot.saved"), 2, "one save per run");
    assert_eq!(delta("snapshot.corrupt_dropped"), 0);
    assert_eq!(
        faultpoint::injection_log(),
        vec![("exec.checkpoint".to_string(), 1, "panic")]
    );

    handle.shutdown();
    thread.join().expect("server thread must not panic");
}

/// Runs a fixed request sequence under the seeded schedule and returns
/// the observable outcome labels plus the fired-injection log.
fn seeded_scenario(seed: u64) -> (Vec<String>, Vec<faultpoint::InjectionRecord>) {
    faultpoint::arm(
        Schedule::seeded(seed)
            .fault("worker.exec", 3, Fault::Error)
            .fault("cache.put", 2, Fault::Poison),
    );
    // One worker so hit order equals request order.
    let (addr, handle, thread) = start_daemon(config(1, 8));
    let mut client = Client::connect(&addr).expect("connect");
    let lines = [
        r#"{"id":"a","kind":"solve","n":8,"c":4,"moves":200,"seed":1}"#,
        r#"{"id":"b","kind":"solve","n":8,"c":4,"moves":200,"seed":1}"#,
        r#"{"id":"c","kind":"solve","n":8,"c":4,"moves":200,"seed":1}"#,
        r#"{"id":"d","kind":"solve","n":8,"c":4,"moves":200,"seed":2}"#,
        r#"{"id":"e","kind":"solve","n":8,"c":4,"moves":200,"seed":2}"#,
        r#"{"id":"f","kind":"solve","n":8,"c":4,"moves":200,"seed":1}"#,
    ];
    let outcomes = lines
        .iter()
        .map(|line| match client.request(line).expect("round trip") {
            Response::Ok { cached, .. } => format!("ok:cached={cached}"),
            Response::Err { code, .. } => format!("err:{code:?}"),
        })
        .collect();
    handle.shutdown();
    thread.join().expect("server thread must not panic");
    (outcomes, faultpoint::injection_log())
}

#[test]
fn same_fault_seed_produces_identical_outcome_sequences() {
    let _s = serial();
    let _d = DisarmGuard;
    for seed in [5u64, 1234] {
        let first = seeded_scenario(seed);
        let second = seeded_scenario(seed);
        assert_eq!(
            first, second,
            "seed {seed}: outcome sequence must be reproducible"
        );
        assert!(
            !first.1.is_empty(),
            "seed {seed}: the schedule should actually fire"
        );
    }
}

#[test]
fn all_five_robustness_counters_are_visible_in_prometheus() {
    let _s = serial();
    let _d = DisarmGuard;
    noc_trace::enable_with_capacity(16_384);
    faultpoint::arm(
        Schedule::new()
            // hit 1: sleep past the 50 ms deadline (deadline counter).
            .fault_at("worker.exec", 1, Fault::Delay(Duration::from_millis(400)))
            // hit 2: panic (respawn counter).
            .fault_at("worker.exec", 2, Fault::Panic)
            // dispatch hit 3: refuse (shed counter, then retry counter).
            .fault_at("pool.dispatch", 3, Fault::Error),
    );

    let (addr, handle, thread) = start_daemon(config(1, 4));
    let mut client = Client::connect(&addr).expect("connect");
    let before = prometheus_body(&mut client);

    // 1. Deadline: the injected sleep outlives the 50 ms budget. Both
    //    enforcement points count — the handler timeout immediately, the
    //    worker-side check once the sleep ends — so the delta is 2.
    match client
        .request(r#"{"id":"dl","kind":"solve","n":8,"c":4,"moves":200,"seed":1,"deadline_ms":50}"#)
        .expect("round trip")
    {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded),
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }

    // 2. Respawn: the next execution panics; the request fails
    //    structured, the worker is replaced.
    match client
        .request(r#"{"id":"pan","kind":"solve","n":8,"c":4,"moves":200,"seed":2}"#)
        .expect("round trip")
    {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::Internal),
        other => panic!("expected internal, got {other:?}"),
    }

    // 3+4. Shed and retry: dispatch hit 3 is refused as overloaded; the
    //      retrying client backs off and succeeds on dispatch hit 4.
    let mut retrying = RetryingClient::new(
        &addr,
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(50),
            seed: 21,
        },
    );
    expect_ok(
        retrying
            .request(r#"{"id":"rt","kind":"solve","n":8,"c":4,"moves":200,"seed":3}"#)
            .expect("retry after shed"),
    );
    assert_eq!(retrying.retries(), 1);

    // 5. Degraded: a 5 s budget cannot absorb 2M moves (planned at the
    //    conservative 100 moves/ms), so the constructive fallback
    //    answers.
    let (_, degraded) = expect_ok(
        client
            .request(
                r#"{"id":"deg","kind":"solve","n":12,"c":4,"moves":2000000,"seed":4,"deadline_ms":5000}"#,
            )
            .expect("degraded solve"),
    );
    assert_eq!(degraded.get("degraded"), Some(&Value::Bool(true)));

    // All five counters moved by their exact expected deltas.
    let deadline = Instant::now() + Duration::from_secs(5);
    let expected = [
        ("service.deadline_exceeded", 2u64),
        ("service.worker.respawned", 1),
        ("service.shed", 1),
        ("service.client.retry", 1),
        ("service.degraded", 1),
    ];
    loop {
        let after = prometheus_body(&mut client);
        let deltas: Vec<u64> = expected
            .iter()
            .map(|(name, _)| trace_counter(&after, name) - trace_counter(&before, name))
            .collect();
        if deltas
            .iter()
            .zip(expected.iter())
            .all(|(got, (_, want))| got == want)
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "counters never reached expected deltas: {:?} vs {:?}",
            deltas,
            expected
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    handle.shutdown();
    thread.join().expect("server thread must not panic");
}
