//! Optimizer benchmarks: the link searches — greedy insertion, the D&C
//! initial solution `I(n, C)` and the exhaustive branch-and-bound — with
//! candidates scored on the hop-count rows against full evaluation of every
//! candidate, and SA move batches. The machine-level counterpart of
//! Fig. 12's runtime ratio (exhaustive vs D&C_SA) and Fig. 7's runtime
//! normalisation unit.
//!
//! Each search runs on the paper's objective, which scores candidate links
//! on its link evaluator, and on a wrapper without one, which evaluates
//! every candidate placement in full. Both return the same placement,
//! objective bits and counts (property-tested in
//! `crates/placement/tests/proptest_placement.rs`), so the ratio printed
//! here is pure speedup; it feeds EXPERIMENTS.md's "Construction cost"
//! paragraph. An instance's two paths interleave
//! (`noc_bench::best_interleaved`), and each keeps its fastest sample.
//!
//! The run fails if the rows are less than [`MIN_SPEEDUP`] times faster
//! than full evaluation on any instance: a search that silently fell back
//! to full evaluation would show as a ratio near 1 on any host.

use noc_bench::best_interleaved;
use noc_placement::dnc::DivisibleObjective;
use noc_placement::objective::{AllPairsObjective, Objective};
use noc_placement::{anneal, exhaustive_optimal, greedy_solution, initial_solution, SaParams};
use noc_topology::RowPlacement;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Interleaved rounds; each path keeps its fastest sample.
const ROUNDS: usize = 9;
/// Calls per sample are sized so a full-path sample takes about this long.
const SAMPLE: Duration = Duration::from_millis(20);
/// Lowest full-over-rows time ratio the run accepts. The lowest measured
/// ratios, the branch-and-bound's (whose DFS both paths share), are 2x to
/// 3.5x.
const MIN_SPEEDUP: f64 = 1.3;

/// The paper's objective without its link evaluator: the searches score
/// every candidate of it by full evaluation.
struct FullOnly(AllPairsObjective);

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

/// `P(n, C)` instances per search, each under 0.1 s per full-path call.
const INSTANCES: [(&str, &[(usize, usize)]); 3] = [
    ("greedy", &[(8, 4), (16, 5), (16, 8), (24, 8)]),
    ("dnc", &[(8, 4), (16, 5), (16, 8), (32, 8), (64, 8)]),
    ("optimal", &[(8, 3), (8, 4), (10, 3), (16, 2)]),
];

/// Runs `search` on `P(n, C)` under `objective`; returns its evaluations.
fn run<O: DivisibleObjective>(search: &str, n: usize, c: usize, objective: &O) -> usize {
    match search {
        "greedy" => greedy_solution(n, c, objective).evaluations,
        "dnc" => initial_solution(n, c, objective).evaluations,
        _ => exhaustive_optimal(n, c, objective).evaluations,
    }
}

/// Times `rows` against `full` for one instance; prints the row and
/// returns the full/rows ratio.
fn compare(search: &str, (n, c): (usize, usize), rows: &dyn Fn(), full: &dyn Fn()) -> f64 {
    let start = Instant::now();
    full();
    let calls = (SAMPLE.as_secs_f64() / start.elapsed().as_secs_f64().max(1e-9)).ceil() as u32;
    let calls = calls.clamp(1, 10_000);
    let mut full_sample = || (0..calls).for_each(|_| full());
    let mut rows_sample = || (0..calls).for_each(|_| rows());
    let best = best_interleaved(ROUNDS, &mut [&mut full_sample, &mut rows_sample]);
    let (full, rows) = (best[0] / calls, best[1] / calls);
    let speedup = full.as_secs_f64() / rows.as_secs_f64().max(1e-12);
    let instance = format!("P({n},{c})");
    println!("{search:<8} {instance:<9} {full:>12.2?} {rows:>12.2?} {speedup:>8.1}x");
    speedup
}

fn main() {
    let objective = AllPairsObjective::paper();
    let full_only = FullOnly(objective);
    println!(
        "{:<8} {:<9} {:>12} {:>12} {:>9}",
        "search", "instance", "full/call", "rows/call", "speedup"
    );
    let mut too_slow = Vec::new();
    for (search, instances) in INSTANCES {
        for &(n, c) in instances {
            let speedup = compare(
                search,
                (n, c),
                &|| {
                    black_box(run(search, black_box(n), c, &objective));
                },
                &|| {
                    black_box(run(search, black_box(n), c, &full_only));
                },
            );
            if speedup < MIN_SPEEDUP {
                too_slow.push(format!("{search} P({n},{c}) {speedup:.1}x"));
            }
        }
    }

    // SA move batches: 1000 moves per call.
    for (n, c) in [(8usize, 4usize), (16, 4)] {
        let params = SaParams::paper().with_moves(1_000);
        let initial = RowPlacement::new(n);
        let mut run = || {
            black_box(anneal(c, &initial, &objective, &params, 42, 0));
        };
        let best = best_interleaved(ROUNDS, &mut [&mut run]);
        println!("anneal   P({n},{c})   {:>12.2?} per 1k moves", best[0]);
    }

    if !too_slow.is_empty() {
        eprintln!(
            "scoring on the hop-count rows is under {MIN_SPEEDUP}x faster than full evaluation on {}",
            too_slow.join(", ")
        );
        std::process::exit(1);
    }
}
