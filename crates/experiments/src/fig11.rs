//! Figure 11: impact of the bisection-bandwidth budget — average packet
//! latency vs link limit `C` on the 8×8 network at 2 KGb/s (128-bit base
//! flits) and 8 KGb/s (512-bit base flits), for D&C_SA against the Mesh and
//! HFB fixed points.

use crate::harness::{self, Scheme, SchemeKind};
use crate::report::{f1, pct, save_json, Table};
use noc_model::LinkBudget;
use noc_placement::InitialStrategy;
use noc_topology::MeshTopology;

/// The curve for one bandwidth setting.
#[derive(Debug, Clone)]
pub struct BandwidthResult {
    /// Base flit width (bits) of this budget.
    pub base_flit_bits: u32,
    /// Bisection bandwidth in Gbit/s at 1 GHz.
    pub bisection_gbps: u64,
    /// `(C, D&C_SA latency)` pairs.
    pub curve: Vec<(usize, f64)>,
    /// Mesh latency at this budget.
    pub mesh: f64,
    /// HFB latency at this budget.
    pub hfb: f64,
    /// Best D&C_SA latency over C.
    pub best: f64,
}

/// Runs one bandwidth setting.
fn run_budget(base_flit_bits: u32) -> BandwidthResult {
    let budget = LinkBudget {
        n: 8,
        base_flit_bits,
    };
    let design = harness::best_design(&budget, InitialStrategy::DivideAndConquer);
    // Simulate the competitive region only; far-off-optimum points (e.g.
    // C = 16 at 2 KGb/s, where 8-bit flits mean 64-flit packets) keep their
    // analytic value — they sit beyond saturation and decide nothing.
    let best_analytic = design
        .points
        .iter()
        .map(|p| p.avg_latency)
        .fold(f64::INFINITY, f64::min);

    // Schemes worth simulating: competitive curve points plus the Mesh and
    // HFB fixed points. `slots[i]` maps design point `i` to its scheme
    // index, or `None` for analytic-only points.
    let mut schemes: Vec<Scheme> = Vec::new();
    let slots: Vec<Option<usize>> = design
        .points
        .iter()
        .map(|p| {
            if p.avg_latency > 1.6 * best_analytic {
                return None;
            }
            schemes.push(Scheme {
                kind: SchemeKind::DncSa,
                topology: MeshTopology::uniform(8, &p.placement),
                flit_bits: p.flit_bits,
                c_limit: p.c_limit,
            });
            Some(schemes.len() - 1)
        })
        .collect();
    let mesh_idx = schemes.len();
    schemes.push(Scheme::mesh(&budget));
    let hfb_idx = schemes.len();
    schemes.push(Scheme::hfb(&budget));

    // One flat (scheme × benchmark) batch keeps every core busy for the
    // whole figure instead of draining one scheme's benchmarks at a time.
    let benchmarks = crate::fig5::benchmark_set();
    let jobs = schemes
        .iter()
        .flat_map(|s| {
            let config = harness::sim_config(s, &budget, harness::SEED ^ 0xb);
            benchmarks
                .iter()
                .map(move |b| (&s.topology, b.workload(8), config))
        })
        .collect();
    let latency = noc_sim::simulate_many(jobs, 0, |s| s.avg_packet_latency);
    let latency_of = |i: usize| -> f64 {
        let chunk = &latency[i * benchmarks.len()..(i + 1) * benchmarks.len()];
        chunk.iter().sum::<f64>() / chunk.len() as f64
    };

    let curve: Vec<(usize, f64)> = design
        .points
        .iter()
        .zip(&slots)
        .map(|(p, slot)| match slot {
            Some(i) => (p.c_limit, latency_of(*i)),
            None => (p.c_limit, p.avg_latency),
        })
        .collect();
    let mesh = latency_of(mesh_idx);
    let hfb = latency_of(hfb_idx);
    let best = curve.iter().map(|&(_, l)| l).fold(f64::INFINITY, f64::min);
    BandwidthResult {
        base_flit_bits,
        bisection_gbps: budget.bisection_bits_per_cycle(),
        curve,
        mesh,
        hfb,
        best,
    }
}

/// Runs Figure 11 for both budgets and prints the tables.
pub fn run() -> Vec<BandwidthResult> {
    let results: Vec<BandwidthResult> = [128u32, 512].iter().map(|&b| run_budget(b)).collect();
    for r in &results {
        let mut table = Table::new(
            &format!(
                "Fig. 11: 8x8 at {} Gb/s bisection (base flit {} bits)",
                r.bisection_gbps, r.base_flit_bits
            ),
            &["C", "D&C_SA"],
        );
        for &(c, lat) in &r.curve {
            table.row(vec![c.to_string(), f1(lat)]);
        }
        table.print();
        println!(
            "Mesh = {}, HFB = {}, best D&C_SA = {}\n",
            f1(r.mesh),
            f1(r.hfb),
            f1(r.best)
        );
    }
    let low = &results[0];
    let high = &results[1];
    println!(
        "mesh gains {} from 4x bandwidth (paper: 2.3%, 25.9 -> 25.3 cycles); D&C_SA gains {} (paper: 17.8%, 21.8 -> 17.9 cycles)\n",
        pct(1.0 - high.mesh / low.mesh),
        pct(1.0 - high.best / low.best),
    );
    save_json("fig11", &results);
    results
}

noc_json::json_struct!(BandwidthResult {
    base_flit_bits,
    bisection_gbps,
    curve,
    mesh,
    hfb,
    best
});
