//! Wire-format round-trips: `request_line` ∘ `parse_request` must be the
//! identity on every request variant, and `to_line` ∘ `from_line` on
//! every response shape. The wire bytes themselves are pinned against a
//! reference that builds each envelope as a `Value` and renders it.

use noc_json::{obj, Value};
use noc_placement::InitialStrategy;
use noc_routing::HopWeights;
use noc_service::protocol::{
    parse_request, request_line, wire_lines, Envelope, ErrorCode, FrontierRequest, OptimalRequest,
    Request, Response, ScenarioRequest, SimulateRequest, SolveRequest, SweepRequest,
    ThroughputRequest,
};
use noc_traffic::SyntheticPattern;

fn round_trips(env: Envelope) {
    let line = request_line(&env);
    let parsed = parse_request(&line)
        .unwrap_or_else(|e| panic!("serialised request failed to parse: {e}\nline: {line}"));
    assert_eq!(parsed, env, "round-trip changed the request\nline: {line}");
}

#[test]
fn every_request_variant_round_trips() {
    let requests = vec![
        Request::Solve(SolveRequest {
            n: 12,
            c: 5,
            strategy: InitialStrategy::Random,
            moves: 777,
            chains: 4,
            seed: u64::MAX,
            weights: HopWeights {
                router_cycles: 2,
                unit_link_cycles: 1,
            },
            checkpoint: 8,
        }),
        Request::Solve(SolveRequest {
            n: 8,
            c: 4,
            strategy: InitialStrategy::Greedy,
            moves: 10_000,
            chains: 1,
            seed: 0,
            weights: HopWeights::PAPER,
            checkpoint: 0,
        }),
        Request::Optimal(OptimalRequest {
            n: 10,
            c: 3,
            weights: HopWeights::PAPER,
        }),
        Request::Sweep(SweepRequest {
            n: 16,
            base_flit: 512,
            seed: 9,
        }),
        Request::Simulate(SimulateRequest {
            n: 6,
            pattern: SyntheticPattern::Transpose,
            rate: 0.015,
            flit: 128,
            cycles: 12_345,
            seed: 3,
            links: vec![(0, 3), (2, 5)],
            checkpoint: 2_000,
        }),
        Request::Simulate(SimulateRequest {
            n: 4,
            pattern: SyntheticPattern::Hotspot { weight: 0.4 },
            rate: 0.5,
            flit: 1,
            cycles: 1,
            seed: 0,
            links: vec![],
            checkpoint: 0,
        }),
        Request::Throughput(ThroughputRequest {
            n: 8,
            pattern: SyntheticPattern::BitReverse,
            start_rate: 0.02,
            flit: 64,
            seed: 11,
            links: vec![(1, 4)],
            workers: 8,
        }),
        Request::Scenario(Box::new(ScenarioRequest {
            manifest: noc_scenario::Manifest::parse(
                r#"{"scenario":1,"name":"rt","topology":{"n":4,"links":[[0,2]]},
                    "placement":{"c":2,"moves":100,"strategy":"greedy"},
                    "matrix":{"seed":{"range":[1,3]},"pattern":["ur","tp"]}}"#,
            )
            .expect("manifest parses"),
            workers: 3,
        })),
        Request::Frontier(FrontierRequest {
            n: 6,
            base_flit: 128,
            weight_steps: 7,
            moves: 321,
            seed: 5,
            workers: 2,
        }),
        Request::Metrics,
        Request::Health,
        Request::Shutdown,
        Request::Trace,
        Request::Prometheus,
    ];
    for request in requests {
        round_trips(Envelope {
            id: format!("id-{}", request.kind()),
            deadline_ms: 1_234,
            forwarded: false,
            request,
        });
    }
}

#[test]
fn every_response_shape_round_trips() {
    let responses = vec![
        Response::ok("a", false, Value::Null),
        Response::ok(
            "b",
            true,
            noc_json::obj! {
                "objective" => Value::Float(6.5625),
                "links" => Value::Arr(vec![Value::Arr(vec![
                    Value::Int(0), Value::Int(4),
                ])]),
            },
        ),
        Response::err("c", ErrorCode::BadRequest, "missing n"),
        Response::err("d", ErrorCode::Overloaded, "queue full"),
        Response::err("e", ErrorCode::DeadlineExceeded, "too slow"),
        Response::err("f", ErrorCode::ShuttingDown, "draining"),
        Response::err("", ErrorCode::Internal, "boom \"quoted\" \u{1F980}"),
    ];
    for response in responses {
        let line = response.to_line();
        assert!(!line.contains('\n'), "wire lines must be single-line");
        assert_eq!(Response::from_line(&line).unwrap(), response);
    }
}

#[test]
fn unknown_fields_are_tolerated() {
    // Forward compatibility: clients may send extra fields.
    let env = parse_request(
        r#"{"id":"x","kind":"health","future_field":{"nested":[1,2]},"deadline_ms":50}"#,
    )
    .unwrap();
    assert_eq!(env.request, Request::Health);
    assert_eq!(env.deadline_ms, 50);
}

/// Ids that stress the envelope's string escaping.
const IDS: &[&str] = &[
    "",
    "plain-7",
    "say \"hi\"",
    "back\\slash",
    "ctl\u{0}\u{1}\n\t\r\u{1f}",
    "é直😀",
    "mixed \"é\\\n😀\"",
];

/// The single line of `response`, built as one object and rendered.
fn reference_line(response: &Response) -> String {
    match response {
        Response::Ok { id, cached, result } => obj! {
            "id" => Value::Str(id.clone()),
            "ok" => Value::Bool(true),
            "cached" => Value::Bool(*cached),
            "result" => Value::clone(result),
        }
        .compact(),
        Response::Err { id, code, message } => obj! {
            "id" => Value::Str(id.clone()),
            "ok" => Value::Bool(false),
            "error" => obj! {
                "code" => Value::Str(code.as_str().to_string()),
                "message" => Value::Str(message.clone()),
            },
        }
        .compact(),
    }
}

/// The stream lines of a streaming result: one per item, then a summary.
fn reference_stream(id: &str, cached: bool, items: &[Value], summary: &Value) -> Vec<String> {
    let mut lines: Vec<String> = items
        .iter()
        .enumerate()
        .map(|(seq, item)| {
            obj! {
                "id" => Value::Str(id.to_string()),
                "ok" => Value::Bool(true),
                "seq" => Value::Int(seq as i128),
                "of" => Value::Int(items.len() as i128),
                "result" => item.clone(),
            }
            .compact()
        })
        .collect();
    lines.push(
        obj! {
            "id" => Value::Str(id.to_string()),
            "ok" => Value::Bool(true),
            "cached" => Value::Bool(cached),
            "done" => Value::Bool(true),
            "result" => summary.clone(),
        }
        .compact(),
    );
    lines
}

fn sample_result() -> Value {
    obj! {
        "objective" => Value::Float(6.5625),
        "negative_zero" => Value::Float(-0.0),
        "not_finite" => Value::Float(f64::NAN),
        "big" => Value::Int(i128::MIN),
        "label" => Value::Str("tab\there \"q\" é".into()),
        "links" => Value::Arr(vec![Value::Arr(vec![Value::Int(0), Value::Int(4)])]),
        "nested" => obj! { "empty" => Value::Arr(vec![]), "none" => Value::Null },
    }
}

#[test]
fn single_lines_match_the_reference_bytes() {
    let codes = [
        ErrorCode::BadRequest,
        ErrorCode::Overloaded,
        ErrorCode::DeadlineExceeded,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ];
    for (i, &id) in IDS.iter().enumerate() {
        let mut responses = vec![
            Response::ok(id, false, sample_result()),
            Response::ok(id, true, sample_result()),
            Response::ok(id, true, Value::Null),
            Response::err(id, codes[i % codes.len()], format!("bad \"{id}\"\n\u{2}")),
        ];
        // A result that only looks like a stream (no items) stays one line.
        responses.push(Response::ok(
            id,
            false,
            obj! { "scenario_stream" => Value::Bool(true), "summary" => Value::Null },
        ));
        for response in responses {
            let want = reference_line(&response);
            assert_eq!(response.to_line(), want);
            assert_eq!(wire_lines(&response), vec![want.clone()]);
            assert_eq!(Response::from_line(&want).unwrap().id(), id);
        }
    }
}

#[test]
fn stream_lines_match_the_reference_bytes() {
    let items: Vec<Value> = (0..4)
        .map(|i| obj! { "seq_payload" => Value::Int(i), "x" => Value::Float(i as f64 / 3.0) })
        .collect();
    let summary = obj! { "points" => Value::Int(4), "note" => Value::Str("é\"".into()) };
    for &id in IDS {
        for marker in ["scenario_stream", "frontier_stream"] {
            for cached in [false, true] {
                for count in [0, 1, items.len()] {
                    let result = obj! {
                        marker => Value::Bool(true),
                        "items" => Value::Arr(items[..count].to_vec()),
                        "summary" => summary.clone(),
                    };
                    let response = Response::ok(id, cached, result);
                    let want = reference_stream(id, cached, &items[..count], &summary);
                    assert_eq!(wire_lines(&response), want, "{marker} {id:?} {count}");
                    for line in &want {
                        let v = noc_json::parse(line).unwrap();
                        assert_eq!(v.get("id").and_then(Value::as_str), Some(id));
                    }
                }
            }
        }
    }
}
