//! Protocol fuzzing: seeded random, truncated, mutated, and oversized
//! inputs against both the parser and a live daemon socket. The
//! invariants are graceful ones — every input yields a structured
//! `bad_request` (or parses), nothing panics, and the connection (and
//! daemon) survives to serve the next well-formed request.

use noc_json::Value;
use noc_rng::rngs::SmallRng;
use noc_rng::{Rng, RngCore, SeedableRng};
use noc_service::protocol::{parse_request, MAX_LINE_BYTES};
use noc_service::{Client, ErrorCode, Metrics, Response, Server, ServerHandle, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;

fn start_daemon() -> (String, ServerHandle, JoinHandle<()>) {
    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 32,
        cache_shards: 2,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, thread)
}

/// Random bytes of length `len`, biased toward JSON-ish structure so the
/// fuzz reaches deeper than the first byte check.
fn random_line(rng: &mut SmallRng, len: usize) -> String {
    const ALPHABET: &[u8] = br#"{}[]",:0123456789.eE+-truefalsnl_idknsolve "#;
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.05) {
                // occasional arbitrary (possibly multi-byte) char
                char::from_u32(rng.gen_range(1u32..0xD7FF)).unwrap_or('?')
            } else {
                ALPHABET[rng.gen_range(0..ALPHABET.len())] as char
            }
        })
        .collect()
}

#[test]
fn parser_survives_random_garbage() {
    let mut rng = SmallRng::seed_from_u64(0xF0CC);
    for _ in 0..5_000 {
        let len = rng.gen_range(0usize..200);
        let line = random_line(&mut rng, len);
        // Must return, not panic; Ok is allowed (the fuzz can luck into
        // a valid request), Err must carry a message.
        if let Err(message) = parse_request(&line) {
            assert!(!message.is_empty(), "empty error for {line:?}");
        }
    }
}

#[test]
fn parser_survives_truncations_and_mutations_of_valid_requests() {
    let seeds = [
        r#"{"id":"1","kind":"solve","n":8,"c":4,"moves":10000,"seed":42,"chains":4}"#,
        r#"{"id":"2","kind":"optimal","n":8,"c":3}"#,
        r#"{"id":"3","kind":"simulate","n":16,"pattern":"ur","rate":0.05,"cycles":1000,"seed":1}"#,
        r#"{"id":"4","kind":"throughput","n":4,"pattern":"tp","start_rate":0.02,"links":[[0,2]]}"#,
        r#"{"id":"5","kind":"metrics"}"#,
    ];
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    for seed_line in seeds {
        // Every prefix truncation.
        for cut in 0..seed_line.len() {
            let _ = parse_request(&seed_line[..cut]);
        }
        // Random single-byte mutations (kept ASCII so the String stays
        // valid UTF-8, which is what the line reader hands the parser).
        for _ in 0..2_000 {
            let mut bytes = seed_line.as_bytes().to_vec();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = (rng.next_u64() & 0x7F) as u8;
            let mutated = String::from_utf8_lossy(&bytes).into_owned();
            let _ = parse_request(&mutated);
        }
    }
}

#[test]
fn parser_rejects_pathological_nesting_and_numbers() {
    // Deep nesting must hit the parser's depth guard, not the stack.
    for depth in [10usize, 100, 1_000, 100_000] {
        let line = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let _ = parse_request(&line);
        let objs = format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        let _ = parse_request(&objs);
    }
    // Absurd numeric payloads parse or fail, but never panic.
    for line in [
        r#"{"kind":"solve","n":99999999999999999999999999}"#,
        r#"{"kind":"solve","n":8,"c":4,"seed":-1}"#,
        r#"{"kind":"simulate","n":8,"pattern":"ur","rate":1e308}"#,
        r#"{"kind":"simulate","n":8,"pattern":"ur","rate":0.05,"cycles":184467440737095516150}"#,
        r#"{"kind":"solve","n":8,"deadline_ms":0}"#,
    ] {
        let _ = parse_request(line);
    }
}

#[test]
fn garbage_kind_strings_bucket_under_other() {
    // `parse_request` rejects unknown kinds before kind attribution, so
    // the only way a garbage kind reaches the registry is through
    // `record_request` — and there it must land in the `other` bucket,
    // never alias onto a real kind's counter.
    let real_kinds: Vec<&str> = noc_service::spec::KINDS.iter().map(|k| k.name).collect();
    let metrics = Metrics::new();
    let mut rng = SmallRng::seed_from_u64(0x07E4);
    let mut garbage = 0u64;
    for _ in 0..500 {
        let len = rng.gen_range(0usize..24);
        let kind = random_line(&mut rng, len);
        if real_kinds.contains(&kind.as_str()) {
            continue;
        }
        metrics.record_request(&kind);
        garbage += 1;
    }
    let snap = metrics.snapshot();
    let requests = snap.get("requests").expect("requests map");
    assert_eq!(
        requests.get("other").and_then(Value::as_u64),
        Some(garbage),
        "garbage kinds must bucket under `other`"
    );
    for kind in real_kinds {
        assert_eq!(
            requests.get(kind).and_then(Value::as_u64),
            Some(0),
            "garbage kind leaked into `{kind}`"
        );
    }
}

#[test]
fn live_socket_survives_garbage_and_answers_structured_errors() {
    let (addr, handle, thread) = start_daemon();
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    let mut rng = SmallRng::seed_from_u64(0xD1CE);
    let mut garbage_sent = 0u64;
    for _ in 0..100 {
        let len = rng.gen_range(1usize..120);
        let mut line = random_line(&mut rng, len).replace('\n', " ");
        // Keep JSON-valid lines out: this pass asserts the *error* path.
        if noc_json::parse(&line).is_ok() {
            line.insert(0, '}');
        }
        line.push('\n');
        writer.write_all(line.as_bytes()).expect("write");
        writer.flush().expect("flush");
        garbage_sent += 1;
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        let parsed = Response::from_line(response.trim_end())
            .unwrap_or_else(|e| panic!("unstructured response {response:?}: {e}"));
        match parsed {
            Response::Err { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("garbage line was accepted: {other:?}"),
        }
    }

    // Valid-JSON-with-unknown-kind also comes back structured, and the
    // daemon's counters bucket nothing under a real kind (bad requests
    // are counted before kind attribution; unknown kinds never inflate
    // `solve`).
    writer
        .write_all(b"{\"id\":\"u\",\"kind\":\"frobnicate\"}\n")
        .expect("write");
    writer.flush().expect("flush");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read");
    match Response::from_line(response.trim_end()).expect("structured") {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("unknown kind accepted: {other:?}"),
    }
    garbage_sent += 1;

    // The same connection still serves real requests, and the daemon
    // accounted every garbage line as a bad request.
    let mut client = Client::connect(&addr).expect("second connection");
    let resp = client
        .request(r#"{"id":"h","kind":"health"}"#)
        .expect("health after garbage");
    let Response::Ok { result, .. } = resp else {
        panic!("health failed after garbage: {resp:?}")
    };
    assert_eq!(result.get("status").unwrap().as_str(), Some("ok"));
    let Response::Ok { result: snap, .. } = client
        .request(r#"{"id":"m","kind":"metrics"}"#)
        .expect("metrics")
    else {
        panic!("metrics failed")
    };
    assert_eq!(
        snap.get("bad_requests").and_then(Value::as_u64),
        Some(garbage_sent)
    );
    assert_eq!(
        snap.get("requests")
            .and_then(|r| r.get("solve"))
            .and_then(Value::as_u64),
        Some(0),
        "garbage must not inflate real kind counters"
    );

    handle.shutdown();
    thread.join().expect("server thread must not panic");
}

#[test]
fn oversized_line_is_refused_and_cut_off() {
    let (addr, handle, thread) = start_daemon();
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // Stream 4x the shared line cap without a newline: the server must
    // cut the reader off at `protocol::MAX_LINE_BYTES` with a structured
    // refusal instead of buffering forever. Writes may fail once the
    // server closes its end.
    let chunk = vec![b'a'; MAX_LINE_BYTES / 16];
    for _ in 0..64 {
        if writer.write_all(&chunk).is_err() {
            break;
        }
    }
    let _ = writer.write_all(b"\n");
    let _ = writer.flush();

    let mut response = String::new();
    reader.read_line(&mut response).expect("read refusal");
    match Response::from_line(response.trim_end()).expect("structured refusal") {
        Response::Err { code, message, .. } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("limit"), "unexpected message {message}");
        }
        other => panic!("oversized line accepted: {other:?}"),
    }
    // The connection is closed after the refusal …
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0);

    // … but the daemon keeps serving fresh connections.
    let mut client = Client::connect(&addr).expect("fresh connection");
    let resp = client
        .request(r#"{"id":"h","kind":"health"}"#)
        .expect("health after oversized line");
    assert!(matches!(resp, Response::Ok { .. }));

    handle.shutdown();
    thread.join().expect("server thread must not panic");
}
