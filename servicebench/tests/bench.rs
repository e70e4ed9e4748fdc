//! The benchmark's own tests: deterministic inputs, the correctness gate
//! at reduced scale, percentile edge cases, metric declarations and the
//! traced run's reconciliation.

use noc_benchmark::stats::nearest_rank;
use noc_benchmark::workload::Plan;
use noc_benchmark::{Workload, END_TO_END, GOLDEN_SEED, PER_LAYER};
use noc_json::Value;

/// Scale of the reduced runs: about 1% of the timed request caps.
const SCALE: f64 = 0.01;
/// Long enough that the reduced request caps, not time, end each run.
const SECONDS: f64 = 600.0;

/// Request kinds of the plan's lines, sorted: the mix, not the order.
fn kinds(plan: &Plan) -> Vec<String> {
    let mut kinds: Vec<String> = plan
        .warmup
        .iter()
        .chain(&plan.lines)
        .map(|r| {
            let v = noc_json::parse(&r.line).expect("lines are JSON");
            v.get("kind")
                .and_then(Value::as_str)
                .expect("kind")
                .to_string()
        })
        .collect();
    kinds.sort();
    kinds
}

#[test]
fn seed_fixes_the_lines_and_only_moves_parameters() {
    for w in Workload::ALL {
        let a = Plan::generate(w, 7, SCALE);
        assert_eq!(a, Plan::generate(w, 7, SCALE), "{}: same seed", w.name());
        let b = Plan::generate(w, 8, SCALE);
        assert_ne!(
            a.lines,
            b.lines,
            "{}: another seed draws other parameters",
            w.name()
        );
        assert_eq!(
            kinds(&a),
            kinds(&b),
            "{}: the kind mix does not depend on the seed",
            w.name()
        );
    }
}

#[test]
fn a_scaled_run_sends_a_prefix_of_the_full_run() {
    let small = Plan::generate(Workload::Place, 3, SCALE);
    let full = Plan::generate(Workload::Place, 3, 1.0);
    assert_eq!(small.warmup, full.warmup);
    assert_eq!(small.lines[..], full.lines[..small.lines.len()]);
}

#[test]
fn nearest_rank_edge_cases() {
    assert_eq!(nearest_rank(&[5], 0.5), 5);
    assert_eq!(nearest_rank(&[5], 1.0), 5);
    let ten: Vec<u32> = (1..=10).collect();
    assert_eq!(nearest_rank(&ten, 0.5), 5);
    assert_eq!(nearest_rank(&ten, 0.9), 9);
    assert_eq!(nearest_rank(&ten, 0.91), 10);
    assert_eq!(nearest_rank(&ten, 1e-9), 1);
    let hundred: Vec<u32> = (1..=100).collect();
    assert_eq!(nearest_rank(&hundred, 0.9), 90);
    assert_eq!(nearest_rank(&hundred, 0.99), 99);
    assert_eq!(nearest_rank(&[1, 2], 0.5), 1);
}

#[test]
#[should_panic(expected = "no samples")]
fn nearest_rank_of_nothing_panics() {
    nearest_rank::<u32>(&[], 0.5);
}

/// `(name, unit)` of each metric `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = noc_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON");
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_tables_match_benchmark_json() {
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let table: Vec<(String, String)> = table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(key), table, "{key}");
        assert!(table.iter().all(|(n, _)| valid_name(n)), "{key}");
    }
}

fn printed_names(line: &str) -> Vec<String> {
    let v = noc_json::parse(line).expect("result line is JSON");
    match v.get("metrics") {
        Some(Value::Obj(m)) => m.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("result line without metrics"),
    }
}

#[test]
fn every_workload_passes_the_gate_at_reduced_scale() {
    let names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    for w in Workload::ALL {
        let report = noc_benchmark::measure(w, GOLDEN_SEED, SECONDS, SCALE);
        assert!(
            report.correct(),
            "{}: {:?}",
            w.name(),
            report.tally.messages
        );
        assert_eq!(
            printed_names(&report.json_line(&END_TO_END)),
            names,
            "{}",
            w.name()
        );
        assert!(report.metrics.iter().all(|&(_, v)| v > 0.0), "{}", w.name());
    }
}

#[test]
fn traced_replay_reconciles_with_its_stages() {
    let (report, spans) = noc_benchmark::trace(Workload::Replay, GOLDEN_SEED, 2.0, SCALE);
    assert!(report.correct(), "{:?}", report.tally.messages);
    assert!(!spans.is_empty());
    let names: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(printed_names(&report.json_line(&PER_LAYER)), names);
    let coverage = report
        .metrics
        .iter()
        .find(|(n, _)| *n == "service.stage_coverage")
        .expect("coverage")
        .1;
    assert!(
        (0.97..=1.0).contains(&coverage),
        "stage coverage {coverage}"
    );
    // Every time and rate is measured on every workload, so none is zero.
    for (name, unit) in PER_LAYER {
        let value = report.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(value.is_finite(), "{name} = {value}");
        if matches!(unit, "us" | "ms" | "ns" | "1/s") {
            assert!(value > 0.0, "{name} = {value}");
        }
    }
}
