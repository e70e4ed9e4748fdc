//! End-to-end optimization drivers (§4's overall approach and §5.1's
//! compared schemes).
//!
//! The overall procedure: enumerate every admissible link limit `C`, solve
//! `P̂(n, C)` for each, convert each row solution into a full-network design
//! (replicated rows/columns, flit width `b(C)`), and pick the `C` whose
//! total average latency `L_D + L_S` is lowest.

use crate::dnc::{initial_solution, DivisibleObjective};
use crate::greedy::greedy_solution;
use crate::objective::{AllPairsObjective, WeightedObjective};
use crate::resume::SaChainState;
use crate::sa::{chain_seed, random_placement, SaOutcome, SaParams};
use noc_model::{LatencyModel, LinkBudget, PacketMix};
use noc_par::prelude::*;
use noc_rng::rngs::SmallRng;
use noc_rng::SeedableRng;
use noc_routing::{DorRouter, HopWeights};
use noc_topology::{MeshTopology, RowPlacement};

/// How the annealer is seeded — the paper's two evaluated schemes (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitialStrategy {
    /// `OnlySA`: a uniformly random connection matrix.
    Random,
    /// `D&C_SA`: the divide-and-conquer Procedure `I(n, C)`.
    #[default]
    DivideAndConquer,
    /// Ablation baseline: greedy best-link insertion.
    Greedy,
}

impl InitialStrategy {
    /// Wire name of each strategy, the one table the daemon protocol, the
    /// CLI and scenario manifests read.
    pub const NAMES: [(&'static str, InitialStrategy); 3] = [
        ("dnc", InitialStrategy::DivideAndConquer),
        ("random", InitialStrategy::Random),
        ("greedy", InitialStrategy::Greedy),
    ];

    /// The strategy a wire name denotes.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::NAMES.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// The strategy's wire name.
    pub fn name(self) -> &'static str {
        let row = Self::NAMES.iter().find(|r| r.1 == self);
        row.expect("every strategy has a row in NAMES").0
    }
}

/// Solves the one-dimensional problem `P̂(n, C)` with the chosen scheme.
///
/// When `params.chains > 1`, `K` independent annealing chains run in
/// parallel via [`noc_par::par_map`], each with a seed derived by
/// [`chain_seed`], and the best result wins. Deterministic initial
/// solutions (D&C, greedy) are constructed once and shared; the random
/// strategy draws a fresh start per chain. Chain 0 uses the caller's seed
/// unchanged, so `chains = 1` reproduces the single-chain result
/// bit-for-bit. The winner is the first chain attaining the minimal
/// objective — a fixed reduction order over the order-preserving
/// `par_map` output — so the outcome is independent of thread count.
pub fn solve_row<O: DivisibleObjective>(
    n: usize,
    c_limit: usize,
    objective: &O,
    strategy: InitialStrategy,
    params: &SaParams,
    seed: u64,
) -> SaOutcome {
    let chains = start_chains(n, c_limit, objective, strategy, params, seed);
    let outcomes = noc_par::par_map(chains, |mut chain: SaChainState| {
        chain.run_moves(objective, usize::MAX);
        chain.into_outcome()
    });
    best_of_chains(seed, outcomes)
}

/// The chains of a [`solve_row`] call, each at its start, for
/// `solve_row` to run and for [`SolveJob`](crate::resume::SolveJob) to
/// step and snapshot.
pub(crate) fn start_chains<O: DivisibleObjective>(
    n: usize,
    c_limit: usize,
    objective: &O,
    strategy: InitialStrategy,
    params: &SaParams,
    seed: u64,
) -> Vec<SaChainState> {
    let shared = match strategy {
        InitialStrategy::Random => None,
        InitialStrategy::DivideAndConquer => Some(initial_solution(n, c_limit, objective)),
        InitialStrategy::Greedy => Some(greedy_solution(n, c_limit, objective)),
    };
    (0..params.chains.max(1))
        .map(|k| {
            let chain = chain_seed(seed, k);
            let (initial, cost) = match &shared {
                // The shared initial solution is built once; charge its
                // evaluations to chain 0 only so aggregate counts stay
                // honest.
                Some(init) => (
                    init.placement.clone(),
                    if k == 0 { init.evaluations } else { 0 },
                ),
                // Random starts are per-chain: each chain draws its own
                // initial placement from its own seed, for extra diversity.
                None => {
                    let mut rng = SmallRng::seed_from_u64(chain ^ 0x5eed_1e55_u64);
                    (random_placement(n, c_limit, &mut rng), 0)
                }
            };
            SaChainState::new(c_limit, &initial, objective, params, chain, cost)
        })
        .collect()
}

/// Reduces the finished chains of a [`solve_row`] call with `seed` to its
/// outcome: the winner is the first chain attaining the minimal
/// objective, and the evaluation and acceptance counters sum over all
/// chains. The winner's convergence trace is kept as-is, with its own
/// chain-local evaluation axis.
pub(crate) fn best_of_chains(seed: u64, outcomes: Vec<SaOutcome>) -> SaOutcome {
    if noc_trace::enabled() {
        // Publish the chain-index → seed mapping so `sa.epoch` events
        // (keyed by seed; a chain never learns its index) can be grouped
        // per chain when reading a convergence trace.
        use noc_trace::FieldValue;
        for (k, outcome) in outcomes.iter().enumerate() {
            noc_trace::emit(
                "series",
                "sa.chain",
                vec![
                    ("chain", FieldValue::U64(k as u64)),
                    ("seed", FieldValue::U64(chain_seed(seed, k))),
                    ("best", FieldValue::F64(outcome.best_objective)),
                    ("evaluations", FieldValue::U64(outcome.evaluations as u64)),
                    (
                        "accepted_moves",
                        FieldValue::U64(outcome.accepted_moves as u64),
                    ),
                ],
            );
        }
    }
    let evaluations = outcomes.iter().map(|o| o.evaluations).sum();
    let accepted_moves = outcomes.iter().map(|o| o.accepted_moves).sum();
    let mut it = outcomes.into_iter();
    let mut best = it.next().expect("at least one annealing chain");
    for o in it {
        if o.best_objective < best.best_objective {
            best = o;
        }
    }
    best.evaluations = evaluations;
    best.accepted_moves = accepted_moves;
    best
}

/// One design point of the per-`C` sweep (one x-position of Fig. 5).
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Link limit `C` of this design point.
    pub c_limit: usize,
    /// Flit width `b(C)` in bits.
    pub flit_bits: u32,
    /// The row placement replicated across the network.
    pub placement: RowPlacement,
    /// Row objective value (1D mean segment latency).
    pub row_objective: f64,
    /// Network-wide average head latency `L_D,avg` (cycles).
    pub avg_head: f64,
    /// Average serialization latency `L_S,avg` (cycles).
    pub avg_serialization: f64,
    /// Total average packet latency `L_avg` (cycles).
    pub avg_latency: f64,
}

/// The full sweep result: every design point plus the winner.
#[derive(Debug, Clone)]
pub struct NetworkDesign {
    /// One point per admissible `C`, in increasing `C` order.
    pub points: Vec<SweepPoint>,
    /// Index into `points` of the latency-minimal design.
    pub best_index: usize,
}

impl NetworkDesign {
    /// The winning design point.
    pub fn best(&self) -> &SweepPoint {
        &self.points[self.best_index]
    }

    /// The winning topology, replicated over rows and columns.
    pub fn best_topology(&self, n: usize) -> MeshTopology {
        MeshTopology::uniform(n, &self.best().placement)
    }
}

/// Builds a [`SweepPoint`] for a given solved placement: replicates it to
/// 2D, routes it, and prices head + serialization latency.
///
/// ```
/// use noc_model::PacketMix;
/// use noc_placement::evaluate_design;
/// use noc_routing::HopWeights;
/// use noc_topology::RowPlacement;
///
/// // Price the plain 8×8 mesh row (no express links) at C = 1, 256-bit flits.
/// let mesh = RowPlacement::new(8);
/// let point = evaluate_design(8, 1, 256, mesh, 10.5, &PacketMix::paper(),
///                             HopWeights::PAPER);
/// // 512-bit packets serialize over 2 cycles, 128-bit over 1 (1:4 mix).
/// assert!((point.avg_serialization - 1.2).abs() < 1e-12);
/// assert_eq!(point.avg_latency, point.avg_head + point.avg_serialization);
/// ```
pub fn evaluate_design(
    n: usize,
    c_limit: usize,
    flit_bits: u32,
    placement: RowPlacement,
    row_objective: f64,
    mix: &PacketMix,
    weights: HopWeights,
) -> SweepPoint {
    let topo = MeshTopology::uniform(n, &placement);
    let dor = DorRouter::new(&topo, weights);
    let zero = LatencyModel { weights }.zero_load(&dor);
    let avg_serialization = mix.serialization_latency(flit_bits);
    SweepPoint {
        c_limit,
        flit_bits,
        placement,
        row_objective,
        avg_head: zero.avg_head,
        avg_serialization,
        avg_latency: zero.avg_head + avg_serialization,
    }
}

/// The paper's overall algorithm: for every admissible `C` under the
/// bandwidth budget, solve `P̂(n, C)` and keep the `C` with the lowest total
/// average latency. Link limits are solved in parallel (they are
/// independent).
pub fn optimize_network(
    budget: &LinkBudget,
    mix: &PacketMix,
    weights: HopWeights,
    strategy: InitialStrategy,
    params: &SaParams,
    seed: u64,
) -> NetworkDesign {
    let n = budget.n;
    let objective = AllPairsObjective::with_weights(weights);
    let mut points: Vec<SweepPoint> = budget
        .link_limits()
        .into_par_iter()
        .map(|c_limit| {
            let flit_bits = budget
                .flit_bits(c_limit)
                .expect("link_limits only yields admissible C");
            let outcome = solve_row(
                n,
                c_limit,
                &objective,
                strategy,
                params,
                seed.wrapping_add(c_limit as u64),
            );
            evaluate_design(
                n,
                c_limit,
                flit_bits,
                outcome.best,
                outcome.best_objective,
                mix,
                weights,
            )
        })
        .collect();
    points.sort_by_key(|p| p.c_limit);
    let best_index = points
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.avg_latency.total_cmp(&b.1.avg_latency))
        .map(|(i, _)| i)
        .expect("at least C = 1 is always admissible");
    NetworkDesign { points, best_index }
}

/// Application-specific placement (§5.6.4): optimises each row and column
/// against its own marginal traffic, instead of replicating one solution.
///
/// `gamma` is the router-to-router communication-rate matrix, row-major
/// `N × N` with `N = n²` (flat ids `y·n + x`). Row `r`'s 1D weight for the
/// column pair `(a, b)` aggregates all traffic injected at `(a, r)` whose
/// X-phase ends at column `b`; column `c`'s weight for `(u, v)` aggregates
/// all traffic whose Y-phase runs from row `u` to `(c, v)`.
pub fn optimize_app_specific(
    n: usize,
    c_limit: usize,
    gamma: &[f64],
    weights: HopWeights,
    params: &SaParams,
    seed: u64,
) -> MeshTopology {
    let routers = n * n;
    assert_eq!(gamma.len(), routers * routers, "gamma must be N x N");

    // Marginalise the 2D traffic onto each row and column (Eq. of §5.6.4
    // separated by the DOR decomposition).
    let row_gamma = |r: usize| -> Vec<f64> {
        let mut g = vec![0.0; n * n];
        for a in 0..n {
            let src = r * n + a;
            for b in 0..n {
                for dy in 0..n {
                    g[a * n + b] += gamma[src * routers + (dy * n + b)];
                }
            }
        }
        g
    };
    let col_gamma = |c: usize| -> Vec<f64> {
        let mut g = vec![0.0; n * n];
        for u in 0..n {
            for v in 0..n {
                let dst = v * n + c;
                for sx in 0..n {
                    g[u * n + v] += gamma[(u * n + sx) * routers + dst];
                }
            }
        }
        g
    };

    let solve = |g: Vec<f64>, salt: u64| -> RowPlacement {
        let objective = WeightedObjective::new(n, g, weights);
        solve_row(
            n,
            c_limit,
            &objective,
            InitialStrategy::DivideAndConquer,
            params,
            seed.wrapping_add(salt),
        )
        .best
    };

    let rows: Vec<RowPlacement> = (0..n)
        .into_par_iter()
        .map(|r| solve(row_gamma(r), r as u64))
        .collect();
    let cols: Vec<RowPlacement> = (0..n)
        .into_par_iter()
        .map(|c| solve(col_gamma(c), 0x1000 + c as u64))
        .collect();

    MeshTopology::from_placements(rows, cols).expect("placements have matching size")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> SaParams {
        SaParams::paper().with_moves(1_500)
    }

    #[test]
    fn sweep_covers_all_link_limits() {
        let budget = LinkBudget::paper(4);
        let mix = PacketMix::paper();
        let design = optimize_network(
            &budget,
            &mix,
            HopWeights::PAPER,
            InitialStrategy::DivideAndConquer,
            &quick_params(),
            1,
        );
        let cs: Vec<usize> = design.points.iter().map(|p| p.c_limit).collect();
        assert_eq!(cs, vec![1, 2, 4]);
        for p in &design.points {
            assert!(p.placement.is_within_limit(p.c_limit));
            assert!((p.avg_latency - (p.avg_head + p.avg_serialization)).abs() < 1e-9);
        }
    }

    #[test]
    fn best_design_beats_plain_mesh() {
        let budget = LinkBudget::paper(8);
        let mix = PacketMix::paper();
        let design = optimize_network(
            &budget,
            &mix,
            HopWeights::PAPER,
            InitialStrategy::DivideAndConquer,
            &quick_params(),
            2,
        );
        let mesh_point = &design.points[0]; // C = 1 is the mesh
        assert_eq!(mesh_point.c_limit, 1);
        assert!(design.best().avg_latency < mesh_point.avg_latency);
        assert!(design.best().c_limit > 1);
    }

    #[test]
    fn dnc_sa_no_worse_than_only_sa_on_average() {
        // With equal (small) move budgets, D&C seeding should win or tie on
        // the 8-router row (Fig. 7's message). Compare over a few seeds to
        // absorb SA noise.
        let obj = AllPairsObjective::paper();
        let params = SaParams::paper().with_moves(300);
        let mut dnc_total = 0.0;
        let mut rand_total = 0.0;
        for seed in 0..5 {
            dnc_total += solve_row(8, 4, &obj, InitialStrategy::DivideAndConquer, &params, seed)
                .best_objective;
            rand_total +=
                solve_row(8, 4, &obj, InitialStrategy::Random, &params, seed).best_objective;
        }
        assert!(
            dnc_total <= rand_total + 1e-9,
            "D&C_SA {dnc_total} vs OnlySA {rand_total}"
        );
    }

    #[test]
    fn app_specific_exploits_hot_flows() {
        // All traffic: router 0 -> router n²-1 (opposite corners).
        let n = 4;
        let routers = n * n;
        let mut gamma = vec![0.0; routers * routers];
        gamma[routers - 1] = 1.0; // (0,0) -> (3,3)
        let topo = optimize_app_specific(n, 2, &gamma, HopWeights::PAPER, &quick_params(), 3);
        // Row 0 must provide a fast path 0 -> 3, column 3 a fast path 0 -> 3.
        let row = topo.row_placement(0);
        let col = topo.col_placement(3);
        let row_d = noc_routing::monotone_apsp(row, HopWeights::PAPER).dist(0, 3);
        let col_d = noc_routing::monotone_apsp(col, HopWeights::PAPER).dist(0, 3);
        assert!(row_d < 12, "row distance {row_d}");
        assert!(col_d < 12, "col distance {col_d}");
    }
}
