//! The correctness gate: what every response must satisfy.
//!
//! A response fails when it is not `ok`, carries `"degraded": true`,
//! breaks stream framing, or violates its kind's own invariant: a solve
//! over its link limit or whose objective differs from the objective
//! recomputed on its links, a simulation that did not drain, a scenario
//! batch with failed items. A replayed hit must be byte-identical to the
//! response its fill would give on a hit.

use crate::workload::Expect;
use noc_json::Value;
use noc_placement::{AllPairsObjective, Objective};
use noc_routing::HopWeights;
use noc_service::Response;
use noc_topology::RowPlacement;

/// Checks one response. `hit` holds the expected wire lines of a
/// [`Expect::Hit`] line.
pub fn response(
    expect: &Expect,
    response: &Response,
    wire: &[String],
    hit: &[String],
) -> Result<(), String> {
    if let Expect::Hit(_) = expect {
        return if wire == hit {
            Ok(())
        } else {
            Err(format!(
                "hit differs from its fill: {}",
                wire.first().map_or("", String::as_str)
            ))
        };
    }
    let (id, result) = match response {
        Response::Ok { id, result, .. } => (id, result),
        Response::Err { code, message, .. } => {
            return Err(format!("{} error: {message}", code.as_str()))
        }
    };
    if result.get("degraded").and_then(Value::as_bool) == Some(true) {
        return Err(format!("{id}: degraded result"));
    }
    let streamed = matches!(expect, Expect::Scenario { .. } | Expect::Frontier);
    if streamed {
        framing(id, result, wire)?;
    } else if wire.len() != 1 {
        return Err(format!(
            "{id}: {} wire lines for a one-line kind",
            wire.len()
        ));
    }
    let field = |v: &Value, key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{id}: missing numeric field {key:?}"))
    };
    let summary = || result.get("summary").unwrap_or(&Value::Null);
    match expect {
        Expect::Solve { n, c } => {
            placement(id, result, *n, *c, HopWeights::PAPER)?;
            if field(result, "accepted_moves")? > field(result, "evaluations")? {
                return Err(format!("{id}: more accepted moves than evaluations"));
            }
        }
        Expect::Optimal { n, c, weights } => {
            placement(id, result, *n, *c, *weights)?;
            if field(result, "nodes")? < 1.0 {
                return Err(format!("{id}: branch and bound visited no nodes"));
            }
        }
        Expect::Sweep => {
            let points = result
                .get("points")
                .and_then(Value::as_array)
                .unwrap_or(&[]);
            let best_c = field(result, "best_c")?;
            let best = points
                .iter()
                .find(|p| p.get("c").and_then(Value::as_f64) == Some(best_c))
                .ok_or_else(|| format!("{id}: best_c is not a swept point"))?;
            if field(best, "avg_latency")? != field(result, "best_latency")? {
                return Err(format!("{id}: best_latency is not the best point's"));
            }
        }
        Expect::Simulate => {
            if result.get("drained").and_then(Value::as_bool) != Some(true) {
                return Err(format!("{id}: simulation did not drain"));
            }
            let latency = field(result, "avg_latency")?;
            if field(result, "measured_packets")? < 1.0 || !latency.is_finite() || latency <= 0.0 {
                return Err(format!("{id}: no packets measured"));
            }
        }
        Expect::Throughput => {
            let samples = result.get("samples").and_then(Value::as_array);
            let saturation = field(result, "saturation")?;
            if samples.is_none_or(|s| s.is_empty()) || !saturation.is_finite() || saturation <= 0.0
            {
                return Err(format!("{id}: empty saturation sweep"));
            }
        }
        Expect::Scenario { scenarios } => {
            let summary = summary();
            if field(summary, "scenarios")? != *scenarios as f64 {
                return Err(format!("{id}: expected {scenarios} scenarios"));
            }
            if field(summary, "failed")? != 0.0 {
                return Err(format!("{id}: scenario batch has failed items"));
            }
        }
        Expect::Frontier => {
            if field(summary(), "scalarizations")? < 1.0 {
                return Err(format!("{id}: frontier ran no scalarizations"));
            }
        }
        Expect::Hit(_) | Expect::Inline => {}
    }
    Ok(())
}

/// A solved placement: within the link limit, and its reported objective
/// bit-equal to the objective recomputed on its links.
fn placement(
    id: &str,
    result: &Value,
    n: usize,
    c: usize,
    weights: HopWeights,
) -> Result<(), String> {
    let links = result
        .get("links")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{id}: missing links"))?;
    let pairs = links
        .iter()
        .map(|pair| match pair.as_array() {
            Some([a, b]) => a.as_usize().zip(b.as_usize()),
            _ => None,
        })
        .collect::<Option<Vec<(usize, usize)>>>()
        .ok_or_else(|| format!("{id}: malformed links"))?;
    let row = RowPlacement::with_links(n, pairs).map_err(|e| format!("{id}: {e}"))?;
    if row.max_cross_section() > c {
        return Err(format!(
            "{id}: cross-section {} over C = {c}",
            row.max_cross_section()
        ));
    }
    let reported = result.get("objective").and_then(Value::as_f64);
    let recomputed = AllPairsObjective::with_weights(weights).eval(&row);
    if reported.map(f64::to_bits) != Some(recomputed.to_bits()) {
        return Err(format!(
            "{id}: objective {reported:?} but links give {recomputed}"
        ));
    }
    Ok(())
}

/// Stream framing: one `{"id","ok","seq","of","result"}` line per item in
/// order, then a `"done": true` summary line.
fn framing(id: &str, result: &Value, wire: &[String]) -> Result<(), String> {
    let items = result
        .get("items")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{id}: streamed result without items"))?;
    if wire.len() != items.len() + 1 {
        return Err(format!(
            "{id}: {} wire lines for {} items",
            wire.len(),
            items.len()
        ));
    }
    for (seq, line) in wire.iter().enumerate() {
        let v = noc_json::parse(line).map_err(|e| format!("{id}: bad stream line: {e}"))?;
        let int = |key: &str| v.get(key).and_then(Value::as_usize);
        let framed = v.get("id").and_then(Value::as_str) == Some(id)
            && v.get("ok").and_then(Value::as_bool) == Some(true)
            && if seq < items.len() {
                int("seq") == Some(seq) && int("of") == Some(items.len())
            } else {
                v.get("done").and_then(Value::as_bool) == Some(true)
            };
        if !framed {
            return Err(format!("{id}: stream line {seq} is misframed"));
        }
    }
    Ok(())
}

/// Checks a `metrics` snapshot against what the harness sent before it:
/// `ok` requests answered, compute requests served from the cache (`hits`)
/// and executed (`misses`), and nothing failed or degraded.
pub fn metrics(snapshot: &Response, ok: u64, hits: u64, misses: u64) -> Result<(), String> {
    let Response::Ok { result, .. } = snapshot else {
        return Err("metrics request failed".into());
    };
    let expected = [
        ("responses_ok", ok),
        ("responses_err", 0),
        ("degraded", 0),
        ("cache_hits", hits),
        ("cache_misses", misses),
    ];
    for (key, want) in expected {
        let got = result.get(key).and_then(Value::as_u64);
        if got != Some(want) {
            return Err(format!(
                "metrics {key} = {got:?}, but the harness counted {want}"
            ));
        }
    }
    Ok(())
}

/// Checks that a `prometheus` body exports `ok` answered requests.
pub fn prometheus(text: &Response, ok: u64) -> Result<(), String> {
    let Response::Ok { result, .. } = text else {
        return Err("prometheus request failed".into());
    };
    let want = format!("\nnoc_responses_ok_total {ok}\n");
    match result.get("body").and_then(Value::as_str) {
        Some(body) if body.contains(&want) => Ok(()),
        _ => Err(format!("prometheus body does not export {}", want.trim())),
    }
}
