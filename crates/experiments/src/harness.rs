//! Shared experiment infrastructure: the compared schemes, equalised buffer
//! budgets, placement solving, and simulation wrappers.

use noc_model::{LatencyModel, LinkBudget, PacketMix, ZeroLoad};
use noc_placement::{optimize_network, InitialStrategy, NetworkDesign, SaParams};
use noc_routing::{DorRouter, HopWeights};
use noc_sim::{SimConfig, SimStats, Simulator};
use noc_topology::{hfb_mesh, hfb_row, implied_link_limit, MeshTopology};
use noc_traffic::Workload;
use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::OnceLock;

/// Deterministic seed for every experiment (the paper's publication date).
pub const SEED: u64 = 20190805;

/// Whether quick (smoke-test) mode is active (`NOC_QUICK=1`).
pub fn is_quick() -> bool {
    std::env::var("NOC_QUICK").is_ok_and(|v| v == "1")
}

/// The three compared schemes of §5.1 (plus `OnlySA` where an experiment
/// needs it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Baseline mesh (`C = 1`, full-width links).
    Mesh,
    /// Hybrid flattened butterfly (Fig. 4).
    Hfb,
    /// The proposed D&C-seeded simulated annealing, best `C`.
    DncSa,
    /// Simulated annealing from a random start, best `C`.
    OnlySa,
}

impl SchemeKind {
    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::Mesh => "Mesh",
            SchemeKind::Hfb => "HFB",
            SchemeKind::DncSa => "D&C_SA",
            SchemeKind::OnlySa => "OnlySA",
        }
    }
}

/// A concrete network design under evaluation.
#[derive(Debug, Clone)]
pub struct Scheme {
    /// Which family this design belongs to.
    pub kind: SchemeKind,
    /// The 2D topology.
    pub topology: MeshTopology,
    /// Link width in bits (set by the scheme's link limit).
    pub flit_bits: u32,
    /// The link limit the design occupies.
    pub c_limit: usize,
}

impl Scheme {
    /// The plain mesh at the budget's full width.
    pub fn mesh(budget: &LinkBudget) -> Scheme {
        Scheme {
            kind: SchemeKind::Mesh,
            topology: MeshTopology::mesh(budget.n),
            flit_bits: budget.base_flit_bits,
            c_limit: 1,
        }
    }

    /// The hybrid flattened butterfly at its implied link limit.
    pub fn hfb(budget: &LinkBudget) -> Scheme {
        let c = implied_link_limit(&hfb_row(budget.n));
        Scheme {
            kind: SchemeKind::Hfb,
            topology: hfb_mesh(budget.n),
            flit_bits: budget
                .flit_bits(c)
                .expect("HFB link limit is a power of two within budget"),
            c_limit: c,
        }
    }

    /// The proposed design: best point of the per-`C` sweep.
    pub fn dnc_sa(budget: &LinkBudget) -> Scheme {
        let design = best_design(budget, InitialStrategy::DivideAndConquer);
        let best = design.best();
        Scheme {
            kind: SchemeKind::DncSa,
            topology: MeshTopology::uniform(budget.n, &best.placement),
            flit_bits: best.flit_bits,
            c_limit: best.c_limit,
        }
    }

    /// The three schemes of Fig. 6/8/9, in plotting order.
    pub fn standard_three(budget: &LinkBudget) -> Vec<Scheme> {
        vec![
            Scheme::mesh(budget),
            Scheme::hfb(budget),
            Scheme::dnc_sa(budget),
        ]
    }

    /// Zero-load analytic statistics of this design.
    pub fn zero_load(&self) -> ZeroLoad {
        let dor = DorRouter::new(&self.topology, HopWeights::PAPER);
        LatencyModel::paper().zero_load(&dor)
    }
}

/// SA schedule used by experiments (Table 1; quick mode shrinks the move
/// budget for smoke tests).
pub fn sa_params() -> SaParams {
    if is_quick() {
        SaParams::paper().with_moves(1_000)
    } else {
        SaParams::paper()
    }
}

/// Per-`C` optimization sweep, cached per (n, base flit, strategy) within
/// the process — several figures share the same solves.
pub fn best_design(budget: &LinkBudget, strategy: InitialStrategy) -> NetworkDesign {
    type DesignCache = Mutex<HashMap<(usize, u32, bool), NetworkDesign>>;
    static CACHE: OnceLock<DesignCache> = OnceLock::new();
    let key = (
        budget.n,
        budget.base_flit_bits,
        strategy == InitialStrategy::DivideAndConquer,
    );
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().unwrap().get(&key) {
        return hit.clone();
    }
    let design = optimize_network(
        budget,
        &PacketMix::paper(),
        HopWeights::PAPER,
        strategy,
        &sa_params(),
        SEED,
    );
    cache.lock().unwrap().insert(key, design.clone());
    design
}

/// The equalised per-router buffer budget (§4.6): whatever the baseline mesh
/// router of this network uses — 5 ports × 2 VCs × 4 flits × base width.
pub fn buffer_bits_per_router(budget: &LinkBudget) -> u64 {
    5 * 2 * 4 * budget.base_flit_bits as u64
}

/// Simulation config for a scheme: the scheme's flit width, with VC depth
/// set from the equalised buffer budget and the scheme's mean port count.
pub fn sim_config(scheme: &Scheme, budget: &LinkBudget, seed: u64) -> SimConfig {
    let mean_ports = scheme.topology.mean_degree().round() as usize + 1;
    let mut config = SimConfig::latency_run(scheme.flit_bits, seed)
        .with_buffer_budget(buffer_bits_per_router(budget), mean_ports);
    if scheme.topology.side() >= 16 {
        // 16x16 runs have 4x the routers per cycle; a shorter window still
        // collects tens of thousands of packets at PARSEC rates.
        config.warmup_cycles = 2_000;
        config.measure_cycles = 8_000;
        config.drain_cycles_max = 100_000;
    }
    if is_quick() {
        config.warmup_cycles = 1_000;
        config.measure_cycles = 4_000;
        config.drain_cycles_max = 40_000;
    }
    // Explicit window override (cycles) for time-boxed full runs: shrinks
    // only the simulation windows, never the SA budget.
    if let Some(cycles) = std::env::var("NOC_SIM_CYCLES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        config.warmup_cycles = (cycles / 4).max(200);
        config.measure_cycles = cycles;
        config.drain_cycles_max = cycles * 10;
    }
    config
}

/// Runs one latency simulation of a workload on a scheme.
pub fn simulate(scheme: &Scheme, budget: &LinkBudget, workload: &Workload, seed: u64) -> SimStats {
    let config = sim_config(scheme, budget, seed);
    Simulator::new(&scheme.topology, workload.clone(), config).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget8() -> LinkBudget {
        LinkBudget::paper(8)
    }

    #[test]
    fn schemes_have_consistent_widths() {
        let b = budget8();
        let mesh = Scheme::mesh(&b);
        assert_eq!(mesh.flit_bits, 256);
        assert_eq!(mesh.c_limit, 1);
        let hfb = Scheme::hfb(&b);
        assert_eq!(hfb.c_limit, 4);
        assert_eq!(hfb.flit_bits, 64);
    }

    #[test]
    fn buffer_budget_matches_mesh_router() {
        assert_eq!(buffer_bits_per_router(&budget8()), 10_240);
    }

    #[test]
    fn hfb_analytic_beats_mesh_head_latency_on_8x8() {
        let b = budget8();
        let mesh = Scheme::mesh(&b).zero_load();
        let hfb = Scheme::hfb(&b).zero_load();
        assert!(hfb.avg_head < mesh.avg_head);
    }
}
