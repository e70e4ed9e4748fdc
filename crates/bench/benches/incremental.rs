//! Per-move cost of the SA inner loop: full re-evaluation (decode the
//! connection matrix, run the monotone all-pairs DP from scratch) versus
//! the incremental evaluator (recount, by a bitset search, the hop sums of
//! only the sources a single bit flip can change). Both paths are
//! bit-identical, so the ratio printed here is pure speedup — it feeds
//! the "SA move cost" table in EXPERIMENTS.md.
//!
//! Each measured move is one flip and its undo, the same bit again, so
//! the evaluator state returns to the start position and successive
//! iterations are comparable. Bits cycle through the whole matrix to
//! average over flip positions (edge flips are cheaper than centre flips
//! for the incremental path).

use noc_bench::bench_timed;
use noc_placement::objective::{AllPairsObjective, Objective};
use noc_placement::{IncrementalAllPairs, MoveEvaluator};
use noc_rng::rngs::SmallRng;
use noc_rng::{Rng, SeedableRng};
use noc_topology::ConnectionMatrix;

fn random_matrix(n: usize, c_limit: usize, seed: u64) -> ConnectionMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut m = ConnectionMatrix::new(n, c_limit);
    for i in 0..m.bit_count() {
        if rng.gen::<bool>() {
            m.flip_flat(i);
        }
    }
    m
}

fn main() {
    let objective = AllPairsObjective::paper();
    println!(
        "{:<48} {:>12}",
        "per-move candidate evaluation", "time/move"
    );
    for (n, c_limit) in [(8usize, 4usize), (16, 4), (16, 8), (32, 8), (64, 8)] {
        let matrix = random_matrix(n, c_limit, 42);
        let nbits = matrix.bit_count();

        // Full path: what the annealer does for an objective without an
        // incremental evaluator — flip, decode, evaluate from scratch,
        // flip back, decode, evaluate.
        let mut full_m = matrix.clone();
        let mut bit = 0usize;
        let full = bench_timed(&format!("move_eval/full/n{n}_c{c_limit}"), || {
            full_m.flip_flat(bit);
            std::hint::black_box(objective.eval(&full_m.decode()));
            full_m.flip_flat(bit);
            std::hint::black_box(objective.eval(&full_m.decode()));
            bit = (bit + 1) % nbits;
        });

        // Incremental path: flip and revert through the evaluator.
        let mut inc = IncrementalAllPairs::try_new(&matrix, objective.weights()).unwrap();
        let mut bit = 0usize;
        let fast = bench_timed(&format!("move_eval/incremental/n{n}_c{c_limit}"), || {
            std::hint::black_box(inc.flip(bit));
            std::hint::black_box(inc.flip(bit));
            bit = (bit + 1) % nbits;
        });

        let speedup = full.as_secs_f64() / fast.as_secs_f64().max(1e-12);
        println!(
            "{:<48} {speedup:>11.1}x",
            format!("move_eval/speedup/n{n}_c{c_limit}")
        );
    }
}
