//! Figure 5: average packet latency as a function of the link limit `C` on
//! 4×4, 8×8 and 16×16 networks, averaged over the PARSEC benchmarks —
//! D&C_SA and OnlySA curves against the fixed Mesh and HFB design points,
//! plus the `L_D` / `L_S` decomposition of D&C_SA.

use crate::harness::{self, Scheme, SchemeKind};
use crate::report::{f1, save_json, Table};
use noc_model::{LinkBudget, PacketMix};
use noc_par::prelude::*;
use noc_placement::InitialStrategy;
use noc_topology::MeshTopology;
use noc_traffic::ParsecBenchmark;

/// One x-position of the figure.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Link limit `C`.
    pub c_limit: usize,
    /// Flit width `b(C)` in bits.
    pub flit_bits: u32,
    /// Simulated PARSEC-average latency of the D&C_SA placement.
    pub dnc_sa: f64,
    /// Simulated PARSEC-average latency of the OnlySA placement.
    pub only_sa: f64,
    /// Analytic head latency `L_D` of the D&C_SA placement.
    pub head: f64,
    /// Analytic serialization latency `L_S` at this width.
    pub serialization: f64,
}

/// The full figure data for one network size.
#[derive(Debug, Clone)]
pub struct SizeResult {
    /// Network side length.
    pub n: usize,
    /// Per-`C` curve points.
    pub points: Vec<CurvePoint>,
    /// Simulated PARSEC-average latency of the mesh.
    pub mesh: f64,
    /// Simulated PARSEC-average latency of the HFB and its link limit.
    pub hfb: f64,
    /// HFB's implied link limit.
    pub hfb_c: usize,
    /// Best D&C_SA latency over all `C`.
    pub best_dnc_sa: f64,
    /// D&C_SA reduction vs the mesh.
    pub reduction_vs_mesh: f64,
    /// D&C_SA reduction vs the HFB.
    pub reduction_vs_hfb: f64,
}

/// PARSEC benchmark set (full suite, or three representative profiles in
/// quick mode).
pub fn benchmark_set() -> Vec<ParsecBenchmark> {
    if harness::is_quick() {
        vec![
            ParsecBenchmark::Blackscholes,
            ParsecBenchmark::Canneal,
            ParsecBenchmark::Fluidanimate,
        ]
    } else {
        ParsecBenchmark::ALL.to_vec()
    }
}

/// Benchmark set scaled to the network size: the 16x16 sweep uses five
/// representative profiles (one per communication class) to bound runtime.
fn benchmark_set_for(n: usize) -> Vec<ParsecBenchmark> {
    if n >= 16 && !harness::is_quick() {
        vec![
            ParsecBenchmark::Blackscholes,
            ParsecBenchmark::Canneal,
            ParsecBenchmark::Dedup,
            ParsecBenchmark::Fluidanimate,
            ParsecBenchmark::X264,
        ]
    } else {
        benchmark_set()
    }
}

/// Simulated latency of a scheme averaged over the benchmark set.
fn parsec_average_latency(
    scheme: &Scheme,
    budget: &LinkBudget,
    benchmarks: &[ParsecBenchmark],
) -> f64 {
    let total: f64 = benchmarks
        .par_iter()
        .map(|b| {
            let stats =
                harness::simulate(scheme, budget, &b.workload(budget.n), harness::SEED ^ 0xb);
            stats.avg_packet_latency
        })
        .sum();
    total / benchmarks.len() as f64
}

/// Runs the experiment for one network size.
pub fn run_size(n: usize) -> SizeResult {
    let budget = LinkBudget::paper(n);
    let benchmarks = benchmark_set_for(n);
    let mix = PacketMix::paper();

    let dnc = harness::best_design(&budget, InitialStrategy::DivideAndConquer);
    let only = harness::best_design(&budget, InitialStrategy::Random);

    // Simulate only the competitive region of the curve: design points whose
    // analytic latency is already far off the optimum (very large C, where
    // serialization dominates) keep their analytic value — simulating them
    // costs the most (high-degree routers) and decides nothing.
    let best_analytic = dnc
        .points
        .iter()
        .map(|p| p.avg_latency)
        .fold(f64::INFINITY, f64::min);
    let worth_simulating = |analytic: f64, c: usize| analytic <= 1.6 * best_analytic && c <= 16;

    let points: Vec<CurvePoint> = dnc
        .points
        .par_iter()
        .map(|p| {
            let scheme = Scheme {
                kind: SchemeKind::DncSa,
                topology: MeshTopology::uniform(n, &p.placement),
                flit_bits: p.flit_bits,
                c_limit: p.c_limit,
            };
            let only_point = only
                .points
                .iter()
                .find(|q| q.c_limit == p.c_limit)
                .expect("same link limits in both sweeps");
            let only_scheme = Scheme {
                kind: SchemeKind::OnlySa,
                topology: MeshTopology::uniform(n, &only_point.placement),
                flit_bits: p.flit_bits,
                c_limit: p.c_limit,
            };
            let (dnc_sa, only_sa) = if worth_simulating(p.avg_latency, p.c_limit) {
                (
                    parsec_average_latency(&scheme, &budget, &benchmarks),
                    parsec_average_latency(&only_scheme, &budget, &benchmarks),
                )
            } else {
                (p.avg_latency, only_point.avg_latency)
            };
            CurvePoint {
                c_limit: p.c_limit,
                flit_bits: p.flit_bits,
                dnc_sa,
                only_sa,
                head: p.avg_head,
                serialization: mix.serialization_latency(p.flit_bits),
            }
        })
        .collect();

    let mesh = parsec_average_latency(&Scheme::mesh(&budget), &budget, &benchmarks);
    let hfb_scheme = Scheme::hfb(&budget);
    let hfb = parsec_average_latency(&hfb_scheme, &budget, &benchmarks);
    let best_dnc_sa = points
        .iter()
        .map(|p| p.dnc_sa)
        .fold(f64::INFINITY, f64::min);

    SizeResult {
        n,
        points,
        mesh,
        hfb,
        hfb_c: hfb_scheme.c_limit,
        best_dnc_sa,
        reduction_vs_mesh: 1.0 - best_dnc_sa / mesh,
        reduction_vs_hfb: 1.0 - best_dnc_sa / hfb,
    }
}

/// Runs Figure 5 for all three network sizes and prints the tables.
pub fn run() -> Vec<SizeResult> {
    let sizes: &[usize] = if harness::is_quick() {
        &[4, 8]
    } else {
        &[4, 8, 16]
    };
    let mut results: Vec<SizeResult> = Vec::new();
    for &n in sizes {
        results.push(run_size(n));
        save_json("fig5", &results); // incremental: partial runs keep data
    }
    for r in &results {
        let mut table = Table::new(
            &format!(
                "Fig. 5: {0}x{0} average packet latency vs link limit C",
                r.n
            ),
            &["C", "b(bits)", "D&C_SA", "OnlySA", "LD", "LS"],
        );
        for p in &r.points {
            table.row(vec![
                p.c_limit.to_string(),
                p.flit_bits.to_string(),
                f1(p.dnc_sa),
                f1(p.only_sa),
                f1(p.head),
                f1(p.serialization),
            ]);
        }
        table.print();
        println!(
            "Mesh = {} cycles; HFB = {} cycles (at C = {}); best D&C_SA = {} cycles",
            f1(r.mesh),
            f1(r.hfb),
            r.hfb_c,
            f1(r.best_dnc_sa)
        );
        println!(
            "reduction vs Mesh = {:.1}% (paper: 8.1/23.5/36.4 for 4/8/16); vs HFB = {:.1}% (paper: ~0/8.0/20.1)\n",
            r.reduction_vs_mesh * 100.0,
            r.reduction_vs_hfb * 100.0
        );
    }
    results
}

noc_json::json_struct!(CurvePoint {
    c_limit,
    flit_bits,
    dnc_sa,
    only_sa,
    head,
    serialization
});
noc_json::json_struct!(SizeResult {
    n,
    points,
    mesh,
    hfb,
    hfb_c,
    best_dnc_sa,
    reduction_vs_mesh,
    reduction_vs_hfb
});
