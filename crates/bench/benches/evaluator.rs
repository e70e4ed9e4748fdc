//! Objective-evaluator benchmarks: the paper's `O(n³)` Floyd–Warshall
//! routing solve versus the monotone-DP fast path that full evaluation
//! uses. Supports the Fig. 12 runtime discussion.
//!
//! An instance's two solvers interleave (`noc_bench::best_interleaved`),
//! and each keeps its fastest sample of [`CALLS`] calls.

use noc_bench::{best_interleaved, random_row};
use noc_model::RowObjective;
use noc_routing::{directional_apsp, monotone_apsp, HopWeights};
use std::hint::black_box;

/// Interleaved rounds; each case keeps its fastest sample.
const ROUNDS: usize = 9;
/// Calls per sample.
const CALLS: u32 = 200;

fn main() {
    for n in [8usize, 16, 32] {
        let row = random_row(n, 4, 42);
        let mut floyd_warshall = || {
            for _ in 0..CALLS {
                black_box(directional_apsp(black_box(&row), HopWeights::PAPER));
            }
        };
        let mut monotone_dp = || {
            for _ in 0..CALLS {
                black_box(monotone_apsp(black_box(&row), HopWeights::PAPER));
            }
        };
        let best = best_interleaved(ROUNDS, &mut [&mut floyd_warshall, &mut monotone_dp]);
        for (name, time) in ["floyd_warshall", "monotone_dp"].iter().zip(best) {
            println!(
                "{:<48} {:>12.2?}/call",
                format!("row_apsp/{name}/{n}"),
                time / CALLS
            );
        }
    }

    let objective = RowObjective::paper();
    for (n, c_limit) in [(8usize, 4usize), (16, 4), (16, 8)] {
        let row = random_row(n, c_limit, 7);
        let mut mean = || {
            for _ in 0..CALLS {
                black_box(objective.eval(black_box(&row)));
            }
        };
        let best = best_interleaved(ROUNDS, &mut [&mut mean]);
        let name = format!("row_objective/all_pairs_mean/n{n}_c{c_limit}");
        println!("{name:<48} {:>12.2?}/call", best[0] / CALLS);
    }
}
