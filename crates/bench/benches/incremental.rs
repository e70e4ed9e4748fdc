//! Per-move cost of the SA inner loop: full re-evaluation (decode the
//! connection matrix, run the monotone all-pairs DP from scratch) versus
//! what the annealer runs on the objective's link evaluator (the flip
//! tracker reports the express links a single bit flip changes, and the
//! evaluator applies them in one call, recomputing only the hop-count
//! rows they reach). Both paths are bit-identical, so the ratio printed
//! here is pure speedup — it feeds the "SA move cost" table in
//! EXPERIMENTS.md.
//!
//! Each measured move is one flip and its undo, the same bit again, so
//! the evaluator state returns to the start position and every sample
//! does the same work. A sample walks every bit of the matrix in turn,
//! as many times as it takes to reach about 4,000 moves, to average over
//! flip positions (edge flips are cheaper than centre flips for the
//! incremental path). An instance's full and incremental samples
//! interleave (`noc_bench::best_interleaved`), and each keeps its
//! fastest.
//!
//! The run fails if the incremental path is less than 5x faster than the
//! full one on any instance: moves that silently fell back to full
//! evaluation would show as such a ratio on any host.

use noc_bench::best_interleaved;
use noc_placement::objective::{AllPairsObjective, Objective};
use noc_placement::FlipLinks;
use noc_rng::rngs::SmallRng;
use noc_rng::{Rng, SeedableRng};
use noc_topology::ConnectionMatrix;
use std::hint::black_box;

/// Interleaved rounds; each path keeps its fastest sample.
const ROUNDS: usize = 15;
/// Moves per sample, rounded up to whole walks over the matrix bits.
const SAMPLE_MOVES: usize = 4_000;
/// Lowest full-over-incremental time ratio the run accepts.
const MIN_SPEEDUP: f64 = 5.0;
/// `P(n, C)` rows: the sizes `place` requests anneal, and longer ones.
const INSTANCES: [(usize, usize); 6] = [(8, 4), (12, 4), (16, 4), (16, 8), (32, 8), (64, 8)];

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
        "{:<10} {:>12} {:>18} {:>9}",
        "instance", "full/move", "incremental/move", "speedup"
    );
    let mut too_slow = Vec::new();
    for (n, c_limit) in INSTANCES {
        let matrix = random_matrix(n, c_limit, 42);
        let bits = matrix.bit_count();
        let walks = SAMPLE_MOVES.div_ceil(bits);

        // Full path: what the annealer does for an objective without a
        // link evaluator — flip, decode, evaluate from scratch, flip back,
        // decode, evaluate.
        let mut full_m = matrix.clone();
        let mut full = || {
            for _ in 0..walks {
                for bit in 0..bits {
                    full_m.flip_flat(bit);
                    black_box(objective.eval(&full_m.decode()));
                    full_m.flip_flat(bit);
                    black_box(objective.eval(&full_m.decode()));
                }
            }
        };
        // Incremental path: flip and revert through the tracker, applying
        // each flip's link changes to the evaluator.
        let mut links = FlipLinks::try_new(&matrix).unwrap();
        let mut rows = objective.link_evaluator(&matrix.decode()).unwrap();
        let mut incremental = || {
            for _ in 0..walks {
                for bit in 0..bits {
                    rows.apply(links.flip(bit).as_slice());
                    black_box(rows.objective());
                    rows.apply(links.flip(bit).as_slice());
                    black_box(rows.objective());
                }
            }
        };
        let best = best_interleaved(ROUNDS, &mut [&mut full, &mut incremental]);
        let moves = (walks * bits) as u32;
        let (full, fast) = (best[0] / moves, best[1] / moves);
        let speedup = full.as_secs_f64() / fast.as_secs_f64().max(1e-12);
        let instance = format!("P({n},{c_limit})");
        println!("{instance:<10} {full:>12.2?} {fast:>18.2?} {speedup:>8.1}x");
        if speedup < MIN_SPEEDUP {
            too_slow.push(format!("{instance} {speedup:.1}x"));
        }
    }
    if !too_slow.is_empty() {
        eprintln!(
            "incremental evaluation is under {MIN_SPEEDUP}x faster than full evaluation on {}",
            too_slow.join(", ")
        );
        std::process::exit(1);
    }
}
