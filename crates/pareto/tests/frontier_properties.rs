//! Frontier property tests (the archive and weight-extreme contracts the
//! subsystem's determinism story rests on).

use noc_model::PacketMix;
use noc_pareto::{
    compute_frontier, dominates_raw, frontier_seed, scalarized_solve, FrontierConfig, ParetoPoint,
    ScalarizedObjective, StaticPowerModel,
};
use noc_placement::dnc::DivisibleObjective;
use noc_placement::{
    evaluate_design, exhaustive_optimal, greedy_solution, initial_solution, optimize_network,
    solve_row, AllPairsObjective, InitialStrategy, Objective, SaParams,
};
use noc_routing::HopWeights;
use noc_topology::RowPlacement;

fn quick(n: usize, seed: u64) -> FrontierConfig {
    let mut cfg = FrontierConfig::paper(n, seed);
    cfg.sa = SaParams::paper().with_moves(400);
    cfg.weight_steps = 3;
    cfg
}

/// Prices a placement on the frontier axes exactly the way the engine does.
fn price(cfg: &FrontierConfig, c_limit: usize, placement: RowPlacement) -> ParetoPoint {
    let flit_bits = cfg.budget().flit_bits(c_limit).unwrap();
    let model = StaticPowerModel::new(cfg.n, flit_bits, cfg.buffer_bits_per_router, &cfg.power);
    let power_mw = model.network_total_mw(model.eval_row(&placement));
    let links = placement.express_count();
    let row_objective = AllPairsObjective::with_weights(cfg.hop_weights).eval(&placement);
    let design = evaluate_design(
        cfg.n,
        c_limit,
        flit_bits,
        placement,
        row_objective,
        &cfg.mix,
        cfg.hop_weights,
    );
    ParetoPoint {
        latency: design.avg_latency,
        avg_head: design.avg_head,
        power_mw,
        links,
        c_limit,
        flit_bits,
        w_index: usize::MAX,
        placement: design.placement,
    }
}

#[test]
fn no_returned_point_is_dominated_by_any_evaluated_candidate() {
    for seed in [3u64, 7, 19] {
        let cfg = quick(8, seed);
        let result = compute_frontier(&cfg);

        // Regenerate the full candidate set the engine evaluated: the mesh
        // baseline plus every (weight, C) scalarization.
        let mut candidates = vec![price(&cfg, 1, RowPlacement::new(cfg.n))];
        for w_index in 0..cfg.weight_steps {
            for c in cfg.budget().link_limits() {
                candidates.push(scalarized_solve(&cfg, w_index, c).point);
            }
        }

        for p in &result.points {
            for c in &candidates {
                assert!(
                    !dominates_raw(c, p),
                    "seed {seed}: frontier point (lat {}, mW {}, links {}) \
                     dominated by candidate (lat {}, mW {}, links {})",
                    p.latency,
                    p.power_mw,
                    p.links,
                    c.latency,
                    c.power_mw,
                    c.links
                );
            }
        }
    }
}

#[test]
fn latency_extreme_reproduces_optimize_network_bit_identically() {
    let cfg = quick(8, 21);
    let design = optimize_network(
        &cfg.budget(),
        &cfg.mix,
        cfg.hop_weights,
        InitialStrategy::DivideAndConquer,
        &cfg.sa,
        cfg.seed,
    );
    for point in &design.points {
        // Weight index 0 is (1, 0): the scalarized solve must take the
        // exact accept/reject path of the single-objective solve.
        let candidate = scalarized_solve(&cfg, 0, point.c_limit);
        assert_eq!(
            candidate.point.placement, point.placement,
            "C = {} placements diverged",
            point.c_limit
        );
        assert_eq!(
            candidate.scalar_objective.to_bits(),
            point.row_objective.to_bits(),
            "C = {} objective bits diverged",
            point.c_limit
        );
        assert_eq!(
            candidate.point.latency.to_bits(),
            point.avg_latency.to_bits()
        );
    }
}

#[test]
fn latency_extreme_reproduces_optimize_network_with_multiple_chains() {
    let mut cfg = quick(6, 5);
    cfg.sa = SaParams::paper().with_moves(300).with_chains(3);
    let design = optimize_network(
        &cfg.budget(),
        &cfg.mix,
        cfg.hop_weights,
        InitialStrategy::DivideAndConquer,
        &cfg.sa,
        cfg.seed,
    );
    for point in &design.points {
        let candidate = scalarized_solve(&cfg, 0, point.c_limit);
        assert_eq!(candidate.point.placement, point.placement);
        assert_eq!(
            candidate.scalar_objective.to_bits(),
            point.row_objective.to_bits()
        );
    }
}

/// A pure static-power objective, independent of the scalarization code
/// path: what a dedicated "power-min" solver would minimise.
#[derive(Debug, Clone, Copy)]
struct PurePower(StaticPowerModel);

impl Objective for PurePower {
    fn eval(&self, row: &RowPlacement) -> f64 {
        self.0.eval_row(row)
    }
}

impl DivisibleObjective for PurePower {
    fn restrict(&self, lo: usize, hi: usize) -> Self {
        PurePower(self.0.with_n(hi - lo))
    }
}

#[test]
fn power_extreme_reproduces_power_min_solve_bit_identically() {
    let cfg = quick(8, 13);
    let power_index = cfg.weight_steps - 1; // (0, 1)
    for c in cfg.budget().link_limits() {
        let flit_bits = cfg.budget().flit_bits(c).unwrap();
        let pure = PurePower(StaticPowerModel::new(
            cfg.n,
            flit_bits,
            cfg.buffer_bits_per_router,
            &cfg.power,
        ));
        let seed = frontier_seed(cfg.seed, power_index).wrapping_add(c as u64);
        let reference = solve_row(
            cfg.n,
            c,
            &pure,
            InitialStrategy::DivideAndConquer,
            &cfg.sa,
            seed,
        );
        let candidate = scalarized_solve(&cfg, power_index, c);
        assert_eq!(candidate.point.placement, reference.best, "C = {c}");
        assert_eq!(
            candidate.scalar_objective.to_bits(),
            reference.best_objective.to_bits(),
            "C = {c}"
        );
    }
}

/// The scalarized objective without its evaluators: every candidate is
/// evaluated in full.
struct FullOnly(ScalarizedObjective);

impl Objective for FullOnly {
    fn eval(&self, row: &RowPlacement) -> f64 {
        self.0.eval(row)
    }
}

impl DivisibleObjective for FullOnly {
    fn restrict(&self, lo: usize, hi: usize) -> Self {
        FullOnly(self.0.restrict(lo, hi))
    }
}

/// D&C, greedy insertion and the branch-and-bound score a scalarization's
/// candidate links on the latency rows and the power tracker, and return
/// what full evaluation of every candidate returns.
#[test]
fn scalarized_searches_answer_the_same_on_rows_as_in_full() {
    let cfg = quick(8, 5);
    for (n, c) in [(4usize, 2usize), (7, 3), (8, 4), (12, 3), (16, 5), (24, 8)] {
        for (w_latency, w_power) in [(1.0, 0.0), (0.5, 0.5), (0.25, 0.75), (0.0, 1.0)] {
            let obj = ScalarizedObjective::new(
                AllPairsObjective::with_weights(cfg.hop_weights),
                StaticPowerModel::new(n, 128, cfg.buffer_bits_per_router, &cfg.power),
                w_latency,
                w_power,
            );
            let what = format!("P({n},{c}) w = ({w_latency}, {w_power})");
            for (label, rows, full) in [
                (
                    "D&C",
                    initial_solution(n, c, &obj),
                    initial_solution(n, c, &FullOnly(obj)),
                ),
                (
                    "greedy",
                    greedy_solution(n, c, &obj),
                    greedy_solution(n, c, &FullOnly(obj)),
                ),
            ] {
                assert_eq!(rows.placement, full.placement, "{label} {what}");
                assert_eq!(
                    rows.objective.to_bits(),
                    full.objective.to_bits(),
                    "{label} {what}"
                );
                assert_eq!(rows.evaluations, full.evaluations, "{label} {what}");
            }
            if n <= 8 {
                let rows = exhaustive_optimal(n, c, &obj);
                let full = exhaustive_optimal(n, c, &FullOnly(obj));
                assert_eq!(rows.best, full.best, "optimal {what}");
                assert_eq!(
                    rows.best_objective.to_bits(),
                    full.best_objective.to_bits(),
                    "optimal {what}"
                );
                assert_eq!(
                    (rows.evaluations, rows.nodes),
                    (full.evaluations, full.nodes),
                    "optimal {what}"
                );
            }
        }
    }
}

#[test]
fn power_extreme_prefers_the_bare_mesh() {
    // Static power strictly grows with express links, so the pure-power
    // scalarization should land on (or very near) the plain mesh.
    let cfg = quick(8, 29);
    let candidate = scalarized_solve(&cfg, cfg.weight_steps - 1, 4);
    assert_eq!(
        candidate.point.links, 0,
        "pure power solve kept express links"
    );
}

#[test]
fn frontier_points_are_mutually_nondominated() {
    let result = compute_frontier(&quick(8, 31));
    for (i, a) in result.points.iter().enumerate() {
        for (j, b) in result.points.iter().enumerate() {
            if i != j {
                assert!(
                    !dominates_raw(a, b),
                    "point {i} dominates point {j} within the returned frontier"
                );
            }
        }
    }
}

#[test]
fn mix_and_weights_affect_the_config_fingerprint() {
    let a = quick(8, 1);
    let mut b = quick(8, 1);
    b.mix = PacketMix::paper();
    assert_eq!(a.fingerprint(), b.fingerprint());
    b.hop_weights = HopWeights {
        router_cycles: 5,
        unit_link_cycles: 2,
    };
    assert_ne!(a.fingerprint(), b.fingerprint());
}
