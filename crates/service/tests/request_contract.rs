//! The request contract, pinned from outside the crate: the exact bytes
//! `request_line` writes for each kind, and which wire fields each
//! compute kind's cache key covers.

use noc_json::Value;
use noc_placement::InitialStrategy;
use noc_routing::HopWeights;
use noc_service::exec::{cache_key, execute};
use noc_service::protocol::{
    parse_request, request_line, Envelope, FrontierRequest, OptimalRequest, Request,
    ScenarioRequest, SimulateRequest, SolveRequest, SweepRequest, ThroughputRequest,
};
use noc_traffic::SyntheticPattern;

fn manifest() -> noc_scenario::Manifest {
    noc_scenario::Manifest::parse(
        r#"{"scenario":1,"name":"pin","topology":{"n":4},"matrix":{"seed":[1,2]}}"#,
    )
    .expect("pinned manifest parses")
}

#[test]
fn request_lines_are_pinned() {
    let cases = [
        (
            Request::Solve(SolveRequest {
                n: 12,
                c: 5,
                strategy: InitialStrategy::Greedy,
                moves: 777,
                chains: 4,
                seed: u64::MAX,
                weights: HopWeights {
                    router_cycles: 2,
                    unit_link_cycles: 1,
                },
                checkpoint: 0,
            }),
            r#"{"id":"solve","kind":"solve","deadline_ms":1234,"n":12,"c":5,"strategy":"greedy","moves":777,"chains":4,"seed":18446744073709551615,"router_cycles":2,"unit_link_cycles":1}"#,
        ),
        (
            Request::Optimal(OptimalRequest {
                n: 10,
                c: 3,
                weights: HopWeights::PAPER,
            }),
            r#"{"id":"optimal","kind":"optimal","deadline_ms":1234,"n":10,"c":3,"router_cycles":3,"unit_link_cycles":1}"#,
        ),
        (
            Request::Sweep(SweepRequest {
                n: 16,
                base_flit: 512,
                seed: 9,
            }),
            r#"{"id":"sweep","kind":"sweep","deadline_ms":1234,"n":16,"base_flit":512,"seed":9}"#,
        ),
        (
            Request::Simulate(SimulateRequest {
                n: 6,
                pattern: SyntheticPattern::Hotspot { weight: 0.4 },
                rate: 0.015,
                flit: 128,
                cycles: 12_345,
                seed: 3,
                links: vec![(0, 3), (2, 5)],
                checkpoint: 0,
            }),
            r#"{"id":"simulate","kind":"simulate","deadline_ms":1234,"n":6,"pattern":"hs","rate":0.015,"flit":128,"cycles":12345,"seed":3,"links":[[0,3],[2,5]]}"#,
        ),
        (
            Request::Throughput(ThroughputRequest {
                n: 8,
                pattern: SyntheticPattern::BitReverse,
                start_rate: 0.02,
                flit: 64,
                seed: 11,
                links: vec![],
                workers: 8,
            }),
            r#"{"id":"throughput","kind":"throughput","deadline_ms":1234,"n":8,"pattern":"br","start_rate":0.02,"flit":64,"seed":11,"links":[],"workers":8}"#,
        ),
        (
            Request::Scenario(Box::new(ScenarioRequest {
                manifest: manifest(),
                workers: 2,
            })),
            r#"{"id":"scenario","kind":"scenario","deadline_ms":1234,"manifest":{"scenario":1,"name":"pin","seed":42,"topology":{"n":4,"links":[]},"traffic":{"pattern":"ur","rate":0.02,"hotspot_weight":0.5},"sim":{"flit":64,"warmup":500,"cycles":2000},"matrix":{"seed":[1,2]}},"workers":2}"#,
        ),
        (
            Request::Frontier(FrontierRequest {
                n: 8,
                base_flit: 256,
                weight_steps: 5,
                moves: 10_000,
                seed: 42,
                workers: 0,
            }),
            r#"{"id":"frontier","kind":"frontier","deadline_ms":1234,"n":8,"base_flit":256,"weight_steps":5,"moves":10000,"seed":42,"workers":0}"#,
        ),
        (
            Request::Metrics,
            r#"{"id":"metrics","kind":"metrics","deadline_ms":1234}"#,
        ),
        (
            Request::Health,
            r#"{"id":"health","kind":"health","deadline_ms":1234}"#,
        ),
        (
            Request::Shutdown,
            r#"{"id":"shutdown","kind":"shutdown","deadline_ms":1234}"#,
        ),
        (
            Request::Trace,
            r#"{"id":"trace","kind":"trace","deadline_ms":1234}"#,
        ),
        (
            Request::Prometheus,
            r#"{"id":"prometheus","kind":"prometheus","deadline_ms":1234}"#,
        ),
    ];
    for (request, want) in cases {
        let env = Envelope {
            id: request.kind().to_string(),
            deadline_ms: 1_234,
            forwarded: false,
            request,
        };
        assert_eq!(request_line(&env), want);
        // A forwarded envelope grows exactly one `"fwd":true` after the
        // deadline, and a checkpoint interval one trailing field.
        let fwd = Envelope {
            forwarded: true,
            ..env.clone()
        };
        assert_eq!(
            request_line(&fwd),
            want.replacen(
                ",\"deadline_ms\":1234",
                ",\"deadline_ms\":1234,\"fwd\":true",
                1
            )
        );
    }
    for (line, field) in [
        (
            r#"{"id":"c","kind":"solve","n":8,"c":4,"checkpoint":3}"#,
            ",\"checkpoint\":3}",
        ),
        (
            r#"{"id":"c","kind":"simulate","n":4,"pattern":"ur","rate":0.5,"checkpoint":500}"#,
            ",\"checkpoint\":500}",
        ),
    ] {
        let env = parse_request(line).expect("checkpoint line parses");
        assert!(request_line(&env).ends_with(field), "{line}");
    }
}

/// One compute kind's contract: a line setting every wire field, and for
/// each field a replacement value and whether the cache key covers it.
struct KindCase {
    base: &'static str,
    fields: &'static [(&'static str, &'static str, bool)],
}

/// Envelope fields: never keyed, for any kind.
const ENVELOPE: &[(&str, &str, bool)] = &[
    ("id", r#""other""#, false),
    ("deadline_ms", "999", false),
    ("fwd", "true", false),
];

const CASES: &[KindCase] = &[
    KindCase {
        base: r#"{"id":"k","kind":"solve","n":8,"c":4,"strategy":"dnc","moves":500,"chains":2,
                  "seed":7,"router_cycles":3,"unit_link_cycles":1,"checkpoint":2}"#,
        fields: &[
            ("n", "9", true),
            ("c", "3", true),
            ("strategy", r#""greedy""#, true),
            ("moves", "501", true),
            ("chains", "3", true),
            ("seed", "8", true),
            ("router_cycles", "2", true),
            ("unit_link_cycles", "2", true),
            ("checkpoint", "3", false),
        ],
    },
    KindCase {
        base: r#"{"id":"k","kind":"optimal","n":8,"c":3,"router_cycles":3,"unit_link_cycles":1}"#,
        fields: &[
            ("n", "9", true),
            ("c", "2", true),
            ("router_cycles", "2", true),
            ("unit_link_cycles", "2", true),
        ],
    },
    KindCase {
        base: r#"{"id":"k","kind":"sweep","n":8,"base_flit":256,"seed":7}"#,
        fields: &[
            ("n", "6", true),
            ("base_flit", "128", true),
            ("seed", "8", true),
        ],
    },
    KindCase {
        base: r#"{"id":"k","kind":"simulate","n":8,"pattern":"ur","rate":0.02,"flit":64,
                  "cycles":1000,"seed":7,"links":[[0,3]],"checkpoint":200}"#,
        fields: &[
            ("n", "6", true),
            ("pattern", r#""tp""#, true),
            ("rate", "0.03", true),
            ("flit", "128", true),
            ("cycles", "1001", true),
            ("seed", "8", true),
            ("links", "[[0,4]]", true),
            ("checkpoint", "300", false),
        ],
    },
    KindCase {
        base: r#"{"id":"k","kind":"throughput","n":8,"pattern":"ur","start_rate":0.02,"flit":64,
                  "seed":7,"links":[[0,3]],"workers":2}"#,
        fields: &[
            ("n", "6", true),
            ("pattern", r#""tp""#, true),
            ("start_rate", "0.03", true),
            ("flit", "128", true),
            ("seed", "8", true),
            ("links", "[[0,4]]", true),
            ("workers", "3", false),
        ],
    },
    KindCase {
        base: r#"{"id":"k","kind":"scenario","manifest":{"scenario":1,"topology":{"n":4}},
                  "workers":2}"#,
        fields: &[
            (
                "manifest",
                r#"{"scenario":1,"topology":{"n":4},"seed":7}"#,
                true,
            ),
            ("workers", "3", false),
        ],
    },
    KindCase {
        base: r#"{"id":"k","kind":"frontier","n":8,"base_flit":256,"weight_steps":3,"moves":500,
                  "seed":7,"workers":2}"#,
        fields: &[
            ("n", "6", true),
            ("base_flit", "128", true),
            ("weight_steps", "4", true),
            ("moves", "501", true),
            ("seed", "8", true),
            ("workers", "3", false),
        ],
    },
];

/// `base` with `field` set to the JSON text `value`.
fn perturbed(base: &Value, field: &str, value: &str) -> String {
    let Value::Obj(mut pairs) = base.clone() else {
        panic!("request lines are objects")
    };
    let value = noc_json::parse(value).expect("replacement is JSON");
    match pairs.iter_mut().find(|(k, _)| k == field) {
        Some((_, slot)) => *slot = value,
        None => pairs.push((field.to_string(), value)),
    }
    Value::Obj(pairs).compact()
}

#[test]
fn cache_key_covers_exactly_the_keyed_fields() {
    for case in CASES {
        let base = noc_json::parse(case.base).expect("base line is JSON");
        let env = parse_request(case.base).expect("base line parses");
        let key = cache_key(&env.request).expect("compute kinds have a key");
        let kind = env.request.kind();
        // The table names every field the kind writes, so a new field
        // cannot join the wire without a keyed-or-not decision here.
        let Value::Obj(written) = noc_json::parse(&request_line(&env)).expect("line is JSON")
        else {
            panic!("request lines are objects")
        };
        let mut named: Vec<&str> = case.fields.iter().map(|&(f, _, _)| f).collect();
        named.sort_unstable();
        let mut wire: Vec<&str> = written
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| !["id", "kind", "deadline_ms"].contains(k))
            .collect();
        wire.sort_unstable();
        assert_eq!(named, wire, "{kind}: table and wire fields differ");

        for &(field, value, keyed) in case.fields.iter().chain(ENVELOPE) {
            let line = perturbed(&base, field, value);
            let other = parse_request(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_ne!(
                other, env,
                "{kind}.{field}: the perturbation changed nothing"
            );
            let other_key = cache_key(&other.request).expect("compute kinds have a key");
            assert_eq!(
                other_key != key,
                keyed,
                "{kind}.{field}: keyed should be {keyed}"
            );
            if keyed {
                assert_ne!(other_key.stable_hash(), key.stable_hash(), "{kind}.{field}");
            }
        }
    }
}

/// `solve` once took an `evaluator` field choosing between two
/// bit-identical ways of scoring a candidate. A line that still carries
/// it, with any value, parses, keys and answers exactly like the same line
/// without it.
#[test]
fn a_solve_line_carrying_evaluator_reads_as_one_without() {
    let new = r#"{"id":"s","kind":"solve","n":8,"c":4,"moves":300,"seed":7}"#;
    let new = parse_request(new).unwrap();
    let key = cache_key(&new.request).expect("compute kinds have a key");
    let answer = execute(&new.request).expect("the solve runs").compact();
    for evaluator in ["full", "incremental", "magic"] {
        let old = format!(
            r#"{{"id":"s","kind":"solve","n":8,"c":4,"moves":300,"evaluator":"{evaluator}","seed":7}}"#
        );
        let old = parse_request(&old).unwrap();
        assert_eq!(old, new, "{evaluator}");
        assert_eq!(request_line(&old), request_line(&new));
        assert_eq!(
            cache_key(&old.request).unwrap().stable_hash(),
            key.stable_hash()
        );
        assert_eq!(execute(&old.request).unwrap().compact(), answer);
    }
}

/// `throughput` once took a `lanes` field. Request lines are read
/// leniently, so a line from an older client that still carries it parses,
/// keys and answers exactly like the same line without it.
#[test]
fn a_throughput_line_with_lanes_reads_as_one_without() {
    let old = r#"{"id":"t","kind":"throughput","n":2,"pattern":"ur","start_rate":0.9,"flit":64,"seed":7,"workers":2,"lanes":4}"#;
    let new = old.replace(r#","lanes":4"#, "");
    let (old, new) = (parse_request(old).unwrap(), parse_request(&new).unwrap());
    assert_eq!(old, new);
    assert_eq!(request_line(&old), request_line(&new));
    let key = cache_key(&old.request).expect("compute kinds have a key");
    assert_eq!(
        key.stable_hash(),
        cache_key(&new.request).unwrap().stable_hash()
    );
    let answer = execute(&old.request).expect("the sweep runs");
    assert_eq!(answer.compact(), execute(&new.request).unwrap().compact());
}

/// `scenario` once took a `lanes` field, the lockstep width of a path the
/// executor no longer has. A line that still carries it parses, keys and
/// answers exactly like the same line without it.
#[test]
fn a_scenario_line_with_lanes_reads_as_one_without() {
    let old = r#"{"id":"s","kind":"scenario","manifest":{"scenario":1,"topology":{"n":4},"sim":{"warmup":50,"cycles":200},"matrix":{"seed":[1,2]}},"workers":1,"lanes":8}"#;
    let new = old.replace(r#","lanes":8"#, "");
    let (old, new) = (parse_request(old).unwrap(), parse_request(&new).unwrap());
    assert_eq!(old, new);
    assert_eq!(request_line(&old), request_line(&new));
    let key = cache_key(&old.request).expect("compute kinds have a key");
    assert_eq!(
        key.stable_hash(),
        cache_key(&new.request).unwrap().stable_hash()
    );
    let answer = execute(&old.request).expect("the batch runs");
    assert_eq!(answer.compact(), execute(&new.request).unwrap().compact());
}
