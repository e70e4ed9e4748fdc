//! Link-failure robustness (extension study): how gracefully does each
//! topology degrade when a single express link fails?
//!
//! Express links are long repeatered wires — plausible single points of
//! failure. Because local links always remain, any placement stays routable:
//! the routing tables are simply recomputed without the failed link (the
//! same offline Floyd–Warshall pass of §4.5.1), and the deadlock argument is
//! unchanged. The question is how much latency the failure costs, and
//! whether the optimized placement is more brittle than the regular HFB.
//!
//! Failures are evaluated in every interior row (not just one): removing a
//! link from row `y` only re-lengthens paths whose X-phase runs in row `y`,
//! so on row-replicated topologies every row degrades identically — the
//! per-row sweep demonstrates that symmetry and generalizes to future
//! application-specific (non-uniform) placements where it breaks.

use crate::harness::Scheme;
use crate::report::{f2, pct, save_json, Table};
use noc_model::{LatencyModel, LinkBudget};
use noc_routing::{channel_dependency_cycle, DorRouter, HopWeights};
use noc_topology::MeshTopology;

/// Robustness summary of one scheme, aggregated over every single-link
/// failure in every interior row.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Scheme label.
    pub scheme: String,
    /// Express links per row (each is a distinct failure case per row).
    pub express_links: usize,
    /// Healthy average head latency (cycles).
    pub healthy: f64,
    /// Mean average-head-latency degradation over single-link failures.
    pub mean_degradation: f64,
    /// Worst-case degradation over single-link failures.
    pub worst_degradation: f64,
    /// Whether every degraded topology stayed deadlock-free.
    pub all_deadlock_free: bool,
}

/// Robustness of one scheme against failures in one specific row.
#[derive(Debug, Clone)]
pub struct RowFaultCase {
    /// Scheme label.
    pub scheme: String,
    /// The row the failed link was removed from.
    pub row: usize,
    /// Mean degradation over that row's single-link failures.
    pub mean_degradation: f64,
    /// Worst-case degradation over that row's single-link failures.
    pub worst_degradation: f64,
    /// Whether every degraded topology stayed deadlock-free.
    pub all_deadlock_free: bool,
}

/// Interior rows of an `n×n` mesh (edge rows excluded).
fn interior_rows(n: usize) -> std::ops::Range<usize> {
    1..n.saturating_sub(1)
}

/// Degradations of every single-express-link failure in `fail_row`:
/// `(relative degradations, all deadlock free)`.
fn row_degradations(scheme: &Scheme, fail_row: usize, healthy: f64) -> (Vec<f64>, bool) {
    let n = scheme.topology.side();
    let model = LatencyModel::paper();
    let links: Vec<_> = scheme
        .topology
        .row_placement(fail_row)
        .express_links()
        .collect();
    let mut degradations = Vec::with_capacity(links.len());
    let mut all_deadlock_free = true;
    for link in links {
        let mut rows: Vec<_> = (0..n)
            .map(|y| scheme.topology.row_placement(y).clone())
            .collect();
        let cols: Vec<_> = (0..n)
            .map(|x| scheme.topology.col_placement(x).clone())
            .collect();
        rows[fail_row].remove_link(link.a, link.b);
        let degraded =
            MeshTopology::from_placements(rows, cols).expect("placement sizes unchanged");
        let dor = DorRouter::new(&degraded, HopWeights::PAPER);
        if channel_dependency_cycle(&degraded, &dor).is_some() {
            all_deadlock_free = false;
        }
        let after = model.zero_load(&dor).avg_head;
        degradations.push(after / healthy - 1.0);
    }
    (degradations, all_deadlock_free)
}

fn mean_of(degradations: &[f64]) -> f64 {
    if degradations.is_empty() {
        0.0
    } else {
        degradations.iter().sum::<f64>() / degradations.len() as f64
    }
}

fn worst_of(degradations: &[f64]) -> f64 {
    degradations.iter().copied().fold(0.0f64, f64::max)
}

/// Evaluates single-express-link failures for one scheme on the 8×8
/// network, over every interior row. The failed link is removed from one
/// row at a time, the routing tables are recomputed, and the zero-load
/// average head latency is compared against the healthy network.
pub fn evaluate(scheme: &Scheme) -> FaultRow {
    let n = scheme.topology.side();
    let model = LatencyModel::paper();
    let healthy = model
        .zero_load(&DorRouter::new(&scheme.topology, HopWeights::PAPER))
        .avg_head;

    let mut degradations = Vec::new();
    let mut all_deadlock_free = true;
    for fail_row in interior_rows(n) {
        let (d, free) = row_degradations(scheme, fail_row, healthy);
        degradations.extend(d);
        all_deadlock_free &= free;
    }

    FaultRow {
        scheme: scheme.kind.label().to_string(),
        express_links: scheme.topology.row_placement(0).express_count(),
        healthy,
        mean_degradation: mean_of(&degradations),
        worst_degradation: worst_of(&degradations),
        all_deadlock_free,
    }
}

/// Per-row breakdown: the worst and mean degradation when the failure
/// strikes each interior row individually.
fn evaluate_per_row(scheme: &Scheme) -> Vec<RowFaultCase> {
    let n = scheme.topology.side();
    let model = LatencyModel::paper();
    let healthy = model
        .zero_load(&DorRouter::new(&scheme.topology, HopWeights::PAPER))
        .avg_head;
    interior_rows(n)
        .map(|fail_row| {
            let (d, free) = row_degradations(scheme, fail_row, healthy);
            RowFaultCase {
                scheme: scheme.kind.label().to_string(),
                row: fail_row,
                mean_degradation: mean_of(&d),
                worst_degradation: worst_of(&d),
                all_deadlock_free: free,
            }
        })
        .collect()
}

/// Runs the robustness study for HFB and D&C_SA (the mesh has no express
/// links to fail) and prints the aggregate and per-row tables.
pub fn run() -> Vec<FaultRow> {
    let budget = LinkBudget::paper(8);
    let schemes = [Scheme::hfb(&budget), Scheme::dnc_sa(&budget)];
    let rows: Vec<FaultRow> = schemes.iter().map(evaluate).collect();

    let mut table = Table::new(
        "Extension: single express-link failure on 8x8, all interior rows (zero-load head latency)",
        &[
            "scheme",
            "links/row",
            "healthy",
            "mean degradation",
            "worst degradation",
            "deadlock-free",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.scheme.clone(),
            r.express_links.to_string(),
            f2(r.healthy),
            pct(r.mean_degradation),
            pct(r.worst_degradation),
            if r.all_deadlock_free { "yes" } else { "NO" }.into(),
        ]);
    }
    table.print();

    let row_cases: Vec<RowFaultCase> = schemes.iter().flat_map(evaluate_per_row).collect();
    let mut per_row = Table::new(
        "Per-row worst case (failed link in row y)",
        &["scheme", "row", "mean degradation", "worst degradation"],
    );
    for c in &row_cases {
        per_row.row(vec![
            c.scheme.clone(),
            c.row.to_string(),
            pct(c.mean_degradation),
            pct(c.worst_degradation),
        ]);
    }
    per_row.print();
    println!("(local links guarantee routability; failures only re-lengthen paths)\n");
    save_json("fault", &rows);
    save_json("fault_rows", &row_cases);
    rows
}

noc_json::json_struct!(FaultRow {
    scheme,
    express_links,
    healthy,
    mean_degradation,
    worst_degradation,
    all_deadlock_free
});

noc_json::json_struct!(RowFaultCase {
    scheme,
    row,
    mean_degradation,
    worst_degradation,
    all_deadlock_free
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_degrade_but_never_break() {
        let budget = LinkBudget::paper(8);
        let row = evaluate(&Scheme::hfb(&budget));
        assert!(row.all_deadlock_free);
        assert!(row.mean_degradation >= 0.0);
        assert!(row.worst_degradation < 0.25, "catastrophic degradation");
        assert_eq!(row.express_links, 6);
    }

    #[test]
    fn row_replicated_topologies_degrade_identically_per_row() {
        // On a uniform (row-replicated) topology, a failure in any row
        // re-lengthens the same set of X-phase paths, so every interior
        // row reports the same degradation — and matches the aggregate.
        let budget = LinkBudget::paper(8);
        let scheme = Scheme::hfb(&budget);
        let cases = evaluate_per_row(&scheme);
        assert_eq!(cases.len(), 6); // rows 1..=6 of an 8×8
        let aggregate = evaluate(&scheme);
        for c in &cases {
            assert!(c.all_deadlock_free);
            assert!(
                (c.worst_degradation - aggregate.worst_degradation).abs() < 1e-12,
                "row {} deviates from the aggregate worst case",
                c.row
            );
            assert!((c.mean_degradation - aggregate.mean_degradation).abs() < 1e-12);
        }
    }
}
