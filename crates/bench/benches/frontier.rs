//! Frontier overhead benchmark: what does a point on the Pareto frontier
//! cost relative to the single-objective solve the paper runs? One
//! scalarized SA solve (latency + static-power blend at mid-lattice
//! weights) is timed against one pure-latency solve of the same move
//! budget, seed, and link limit; the incremental power patch is `O(1)`
//! per move, so the target overhead ratio is ≤ ~1.3x. A whole small
//! frontier is also timed to report the end-to-end cost per
//! scalarization. Results are written to `BENCH_frontier.json` next to
//! the committed baseline.

use noc_bench::best_interleaved;
use noc_json::Value;
use noc_pareto::{compute_frontier, FrontierConfig, ScalarizedObjective, StaticPowerModel};
use noc_placement::dnc::DivisibleObjective;
use noc_placement::{solve_row, AllPairsObjective, InitialStrategy, SaParams};

const N: usize = 8;
const C_LIMIT: usize = 2;
const MOVES: usize = 20_000;
const SEED: u64 = 7;
/// Interleaved rounds (`noc_bench::best_interleaved`); each side keeps
/// its best, the stable estimator on a shared host.
const ROUNDS: usize = 9;

/// One D&C-seeded solve of the benchmark instance.
fn solve<O: DivisibleObjective>(objective: &O, sa: &SaParams) {
    std::hint::black_box(solve_row(
        N,
        C_LIMIT,
        objective,
        InitialStrategy::DivideAndConquer,
        sa,
        SEED,
    ));
}

fn main() {
    let cfg = FrontierConfig::paper(N, SEED);
    let flit_bits = cfg.budget().flit_bits(C_LIMIT).expect("admissible C");
    let sa = SaParams::paper().with_moves(MOVES);
    let latency = AllPairsObjective::with_weights(cfg.hop_weights);
    let scalarized = ScalarizedObjective::new(
        AllPairsObjective::with_weights(cfg.hop_weights),
        StaticPowerModel::new(N, flit_bits, cfg.buffer_bits_per_router, &cfg.power),
        0.5,
        0.5,
    );

    let mut single = || solve(&latency, &sa);
    let mut scalar = || solve(&scalarized, &sa);
    let best = best_interleaved(ROUNDS, &mut [&mut single, &mut scalar]);
    let single_ms = best[0].as_secs_f64() * 1e3;
    let scalar_ms = best[1].as_secs_f64() * 1e3;
    let ratio = scalar_ms / single_ms;
    println!("    single-objective solve: {single_ms:.3} ms (best of {ROUNDS})");
    println!("    scalarized solve:       {scalar_ms:.3} ms ({ratio:.3}x single)");

    // End-to-end: a small frontier, reporting the cost per scalarization.
    let mut small = FrontierConfig::paper(N, SEED);
    small.weight_steps = 3;
    small.sa = SaParams::paper().with_moves(2_000);
    let mut result = None;
    let mut frontier = || result = Some(std::hint::black_box(compute_frontier(&small)));
    let best_frontier = best_interleaved(3, &mut [&mut frontier])[0];
    let result = result.expect("frontier ran");
    let frontier_ms = best_frontier.as_secs_f64() * 1e3;
    let per_scalarization_ms = frontier_ms / result.scalarizations as f64;
    println!(
        "    frontier n{N} x{}: {frontier_ms:.1} ms, {} points, {:.3} ms/scalarization",
        result.scalarizations,
        result.points.len(),
        per_scalarization_ms
    );

    let report = noc_json::obj! {
        "bench" => Value::Str("frontier".to_string()),
        "case" => Value::Str(format!("n{N}_c{C_LIMIT}_scalarized_vs_single")),
        "moves" => Value::Int(MOVES as i128),
        "host_cpus" => Value::Int(noc_par::default_workers() as i128),
        "single_objective_ms" => Value::Float(single_ms),
        "scalarized_ms" => Value::Float(scalar_ms),
        "overhead_ratio" => Value::Float(ratio),
        "frontier" => noc_json::obj! {
            "n" => Value::Int(N as i128),
            "weight_steps" => Value::Int(small.weight_steps as i128),
            "moves" => Value::Int(2_000),
            "scalarizations" => Value::Int(result.scalarizations as i128),
            "points" => Value::Int(result.points.len() as i128),
            "total_ms" => Value::Float(frontier_ms),
            "ms_per_scalarization" => Value::Float(per_scalarization_ms),
        },
    };
    let out = std::env::var("NOC_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frontier.json").into()
    });
    std::fs::write(&out, report.pretty() + "\n").expect("write bench report");
    println!("wrote {out}");
}
