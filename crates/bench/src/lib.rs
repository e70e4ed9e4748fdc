//! Shared fixtures for the Criterion benchmarks.

use noc_rng::rngs::SmallRng;
use noc_rng::{Rng, SeedableRng};
use noc_topology::{ConnectionMatrix, RowPlacement};

/// A deterministic pseudo-random valid placement for `P̂(n, C)`.
pub fn random_row(n: usize, c_limit: usize, seed: u64) -> RowPlacement {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut m = ConnectionMatrix::new(n, c_limit);
    for i in 0..m.bit_count() {
        if rng.gen::<bool>() {
            m.flip_flat(i);
        }
    }
    m.decode()
}

/// Minimal wall-clock micro-benchmark harness (criterion replacement for
/// offline builds): runs `f` until ~200 ms of samples accumulate, prints
/// the per-iteration time and returns it. Statistics are intentionally
/// simple; cases compared with each other should be timed with
/// [`best_interleaved`] instead.
pub fn bench_timed<F: FnMut()>(name: &str, mut f: F) -> std::time::Duration {
    // Warm up and estimate a single-iteration cost.
    let start = std::time::Instant::now();
    f();
    let first = start.elapsed();
    let target = std::time::Duration::from_millis(200);
    let iters = (target.as_nanos() / first.as_nanos().max(1)).clamp(1, 100_000) as u32;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_iter = start.elapsed() / iters;
    println!("{name:<48} {per_iter:>12.2?}/iter  ({iters} iters)");
    per_iter
}

/// The fair timing protocol for cases that are compared with each other:
/// `rounds` rounds, each running every case once, and each case's fastest
/// round. Cases run interleaved, so all of them sample the same
/// neighbour-load windows on a shared host, and each round rotates the
/// in-round order, so no case always runs first (turbo budget) or last
/// (warmed caches). On shared hosts single timings scatter badly; the
/// minimum is the stable estimator of achievable throughput and is what
/// speedup ratios should be computed from.
pub fn best_interleaved(rounds: usize, cases: &mut [&mut dyn FnMut()]) -> Vec<std::time::Duration> {
    let mut best = vec![std::time::Duration::MAX; cases.len()];
    for round in 0..rounds {
        for pos in 0..cases.len() {
            let case = (round + pos) % cases.len();
            let start = std::time::Instant::now();
            (cases[case])();
            best[case] = best[case].min(start.elapsed());
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_deterministic_and_valid() {
        let a = random_row(8, 4, 1);
        let b = random_row(8, 4, 1);
        assert_eq!(a, b);
        assert!(a.is_within_limit(4));
    }
}
