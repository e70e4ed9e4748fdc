//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Candidate generator** (§4.4.2's motivation): the connection-matrix
//!    generator, whose every move is valid, against the naive link-mutation
//!    generator, which wastes a large share of its budget on infeasible
//!    candidates.
//! 2. **Initial solution**: random vs greedy insertion vs the paper's
//!    divide-and-conquer, each followed by the same annealing budget.
//! 3. **Annealing schedule**: sensitivity of the result to `T0`, `S_c` and
//!    `m_c` around the paper's Table 1 values.

use crate::harness;
use crate::report::{f2, pct, save_json, Table};
use noc_par::prelude::*;
use noc_placement::objective::{AllPairsObjective, Objective};
use noc_placement::{
    anneal, anneal_naive, greedy_solution, initial_solution, sa::random_placement, SaParams,
};
use noc_rng::rngs::SmallRng;
use noc_rng::SeedableRng;
use noc_topology::RowPlacement;

fn seeds() -> Vec<u64> {
    let k = if harness::is_quick() { 2 } else { 8 };
    (0..k).map(|i| harness::SEED + i).collect()
}

/// Result row of the generator ablation.
#[derive(Debug, Clone)]
pub struct GeneratorRow {
    /// Instance label.
    pub instance: String,
    /// Mean best objective with the connection-matrix generator.
    pub matrix_obj: f64,
    /// Mean best objective with the naive generator.
    pub naive_obj: f64,
    /// Mean fraction of naive moves that fell out of the feasible region.
    pub naive_invalid_rate: f64,
}

/// Candidate-generator ablation (same D&C initial, same move budget).
fn run_generator() -> Vec<GeneratorRow> {
    let objective = AllPairsObjective::paper();
    let params = harness::sa_params();
    let instances: &[(usize, usize)] = &[(8, 4), (16, 4), (16, 8)];

    let rows: Vec<GeneratorRow> = instances
        .par_iter()
        .map(|&(n, c)| {
            let init = initial_solution(n, c, &objective);
            let mut matrix_sum = 0.0;
            let mut naive_sum = 0.0;
            let mut invalid_sum = 0.0;
            for &seed in &seeds() {
                let m = anneal(c, &init.placement, &objective, &params, seed, 0);
                matrix_sum += m.best_objective;
                let nv = anneal_naive(c, &init.placement, &objective, &params, seed, 0);
                naive_sum += nv.best_objective;
                invalid_sum += nv.invalid_moves as f64 / nv.total_moves as f64;
            }
            let k = seeds().len() as f64;
            GeneratorRow {
                instance: format!("P({n},{c})"),
                matrix_obj: matrix_sum / k,
                naive_obj: naive_sum / k,
                naive_invalid_rate: invalid_sum / k,
            }
        })
        .collect();

    let mut table = Table::new(
        "Ablation A: SA candidate generator (mean best objective, cycles)",
        &["instance", "conn-matrix", "naive", "naive invalid moves"],
    );
    for r in &rows {
        table.row(vec![
            r.instance.clone(),
            f2(r.matrix_obj),
            f2(r.naive_obj),
            pct(r.naive_invalid_rate),
        ]);
    }
    table.print();
    println!("(the naive generator wastes its budget on infeasible candidates, §4.4.2)\n");
    save_json("ablation_generator", &rows);
    rows
}

/// Result row of the initial-solution ablation.
#[derive(Debug, Clone)]
pub struct InitialRow {
    /// Strategy label.
    pub strategy: String,
    /// Objective of the initial solution itself.
    pub initial_obj: f64,
    /// Evaluations spent constructing it.
    pub initial_cost: usize,
    /// Mean best objective after the (short) annealing budget.
    pub final_obj: f64,
}

/// Initial-solution ablation on `P̂(16, 8)` with a short SA budget, where
/// seeding quality matters most.
fn run_initial() -> Vec<InitialRow> {
    let objective = AllPairsObjective::paper();
    let (n, c) = (16usize, 8usize);
    let budget = SaParams::paper().with_moves(if harness::is_quick() { 300 } else { 1_500 });

    let dnc = initial_solution(n, c, &objective);
    let greedy = greedy_solution(n, c, &objective);
    let mut rng = SmallRng::seed_from_u64(harness::SEED);
    let random = random_placement(n, c, &mut rng);
    let random_obj = AllPairsObjective::paper().eval(&random);
    let mesh_obj = AllPairsObjective::paper().eval(&RowPlacement::new(n));

    let anneal_from = |start: &RowPlacement| -> f64 {
        let total: f64 = seeds()
            .par_iter()
            .map(|&seed| anneal(c, start, &objective, &budget, seed, 0).best_objective)
            .sum();
        total / seeds().len() as f64
    };

    let rows = vec![
        InitialRow {
            strategy: "random".into(),
            initial_obj: random_obj,
            initial_cost: 1,
            final_obj: anneal_from(&random),
        },
        InitialRow {
            strategy: "greedy".into(),
            initial_obj: greedy.objective,
            initial_cost: greedy.evaluations,
            final_obj: anneal_from(&greedy.placement),
        },
        InitialRow {
            strategy: "divide&conquer".into(),
            initial_obj: dnc.objective,
            initial_cost: dnc.evaluations,
            final_obj: anneal_from(&dnc.placement),
        },
    ];

    let mut table = Table::new(
        &format!("Ablation B: initial solution on P({n},{c}) (mesh row = {mesh_obj:.2} cycles)"),
        &["strategy", "initial obj", "build evals", "after short SA"],
    );
    for r in &rows {
        table.row(vec![
            r.strategy.clone(),
            f2(r.initial_obj),
            r.initial_cost.to_string(),
            f2(r.final_obj),
        ]);
    }
    table.print();
    println!();
    save_json("ablation_initial", &rows);
    rows
}

/// Result row of the schedule-sensitivity sweep.
#[derive(Debug, Clone)]
pub struct ScheduleRow {
    /// Parameter being varied and its value.
    pub setting: String,
    /// Mean best objective over the seeds.
    pub objective: f64,
}

/// Annealing-schedule sensitivity around Table 1 on `P̂(16, 8)`.
fn run_schedule() -> Vec<ScheduleRow> {
    let objective = AllPairsObjective::paper();
    let (n, c) = (16usize, 8usize);
    let init = initial_solution(n, c, &objective);
    let base = harness::sa_params();

    let mut variants: Vec<(String, SaParams)> =
        vec![("paper (T0=10, Sc=2, mc=1000)".to_string(), base)];
    for t0 in [1.0, 100.0] {
        variants.push((
            format!("T0={t0}"),
            SaParams {
                initial_temperature: t0,
                ..base
            },
        ));
    }
    for sc in [1.25, 4.0] {
        variants.push((
            format!("Sc={sc}"),
            SaParams {
                cooldown_scale: sc,
                ..base
            },
        ));
    }
    for mc in [250usize, 4_000] {
        variants.push((
            format!("mc={mc}"),
            SaParams {
                moves_per_stage: mc,
                ..base
            },
        ));
    }

    let rows: Vec<ScheduleRow> = variants
        .par_iter()
        .map(|(label, params)| {
            let total: f64 = seeds()
                .iter()
                .map(|&seed| anneal(c, &init.placement, &objective, params, seed, 0).best_objective)
                .sum();
            ScheduleRow {
                setting: label.clone(),
                objective: total / seeds().len() as f64,
            }
        })
        .collect();

    let mut table = Table::new(
        &format!("Ablation C: schedule sensitivity on P({n},{c}) (mean best objective)"),
        &["setting", "objective"],
    );
    for r in &rows {
        table.row(vec![r.setting.clone(), f2(r.objective)]);
    }
    table.print();
    println!("(Table 1's schedule is robust: nearby settings land within noise)\n");
    save_json("ablation_schedule", &rows);
    rows
}

/// Runs all three ablations.
pub fn run() {
    run_generator();
    run_initial();
    run_schedule();
}

noc_json::json_struct!(GeneratorRow {
    instance,
    matrix_obj,
    naive_obj,
    naive_invalid_rate
});
noc_json::json_struct!(InitialRow {
    strategy,
    initial_obj,
    initial_cost,
    final_obj
});
noc_json::json_struct!(ScheduleRow { setting, objective });
