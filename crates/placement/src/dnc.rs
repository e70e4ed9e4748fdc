//! Divide-and-conquer initial solution — Procedure `I(n, C)` (§4.4.1).
//!
//! `P̂(n, C)` is split into `P̂(⌊n/2⌋, C−1)` on the left half and
//! `P̂(⌈n/2⌉, C−1)` on the right half; the halves are then joined by trying
//! every single express link between them and keeping the best. Recursing
//! with `C−1` reserves one cross-section layer for the joining link, so the
//! combined placement always satisfies `C`. Small sub-problems (`n ≤ 4`) are
//! solved exactly by branch and bound.
//!
//! The paper analyses this at `O(n⁵)` total via the master theorem (an
//! `O(n²)`-pair combination step, each pair evaluated by the `O(n³)` routing
//! solve). Here the hop-count rows of the assembled halves are built once
//! per step, and a cross link costs only the rows it reaches
//! ([`Objective::link_evaluator`]); objectives without a link evaluator
//! evaluate each candidate in full, with identical results.

use crate::bb::exhaustive_optimal;
use crate::objective::{current, with_link, AllPairsObjective, Objective, WeightedObjective};
use noc_topology::RowPlacement;

/// Sub-problem size at which the exact solver takes over ("if n is small
/// enough", Procedure `I` line 2 — the paper suggests `n ≤ 4`).
pub const BASE_CASE: usize = 4;

/// Result of the initial-solution procedure.
#[derive(Debug, Clone)]
pub struct DncOutcome {
    /// The constructed placement.
    pub placement: RowPlacement,
    /// Its objective value (cycles).
    pub objective: f64,
    /// Objective evaluations spent — the "normalized runtime" unit of
    /// Fig. 7 is one run of this procedure.
    pub evaluations: usize,
}

/// Objectives that can be restricted to a sub-row, as the D&C recursion
/// requires.
pub trait DivisibleObjective: Objective + Sized {
    /// The objective induced on routers `lo..hi` of the row, relabelled from
    /// zero.
    fn restrict(&self, lo: usize, hi: usize) -> Self;
}

impl DivisibleObjective for AllPairsObjective {
    fn restrict(&self, _lo: usize, _hi: usize) -> Self {
        // The all-pairs objective is size-agnostic.
        *self
    }
}

impl DivisibleObjective for WeightedObjective {
    fn restrict(&self, lo: usize, hi: usize) -> Self {
        let n = self.len();
        assert!(lo < hi && hi <= n);
        let m = hi - lo;
        let gamma = self.gamma();
        let sub: Vec<f64> = (0..m * m)
            .map(|idx| {
                let (a, b) = (idx / m, idx % m);
                gamma[(lo + a) * n + (lo + b)]
            })
            .collect();
        WeightedObjective::new(m, sub, self.weights())
    }
}

/// Runs Procedure `I(n, C)`: the divide-and-conquer initial solution.
pub fn initial_solution<O: DivisibleObjective>(
    n: usize,
    c_limit: usize,
    objective: &O,
) -> DncOutcome {
    assert!(n >= 2 && c_limit >= 1);
    // Base cases: exact solve for tiny rows, and C = 1 admits no express
    // links at all.
    if n <= BASE_CASE || c_limit == 1 {
        let out = exhaustive_optimal(n, c_limit, objective);
        return DncOutcome {
            placement: out.best,
            objective: out.best_objective,
            evaluations: out.evaluations,
        };
    }

    let left_n = n / 2;
    let right_n = n - left_n;
    let left = initial_solution(left_n, c_limit - 1, &objective.restrict(0, left_n));
    // When the halves are equal-sized and the objective is translation
    // invariant this re-solves the same sub-problem; the paper notes the
    // previous result can be reused. We keep the general form — the
    // restricted objective may differ per half in the weighted case.
    let right = initial_solution(right_n, c_limit - 1, &objective.restrict(left_n, n));

    let mut evaluations = left.evaluations + right.evaluations;

    // Assemble the two halves on the full row.
    let mut base = RowPlacement::new(n);
    base.embed(&left.placement, 0)
        .expect("left half links stay in range");
    base.embed(&right.placement, left_n)
        .expect("right half links stay in range");

    // Combination step: add the best single express link between the halves
    // (lines 8–11 of Procedure I). The no-link assembly is kept as a
    // fallback candidate so the result can never be worse than the parts.
    // Each cross link is scored on the objective's link evaluator when it
    // has one (add, read, remove), else on an extended copy in full.
    let mut rows = objective.link_evaluator(&base);
    let mut best_obj = current(objective, rows.as_deref(), &base);
    let mut best_link = None;
    evaluations += 1;
    for i in 0..left_n {
        for j in left_n..n {
            if j - i < 2 {
                continue; // (left_n - 1, left_n) is the local seam link
            }
            let obj = with_link(objective, rows.as_mut(), &base, (i, j));
            evaluations += 1;
            if obj < best_obj {
                best_obj = obj;
                best_link = Some((i, j));
            }
        }
    }
    let mut best = base;
    if let Some((i, j)) = best_link {
        best.add_link(i, j).expect("cross link is valid");
    }

    debug_assert!(best.is_within_limit(c_limit));
    DncOutcome {
        placement: best,
        objective: best_obj,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_routing::HopWeights;

    #[test]
    fn respects_link_limit() {
        let obj = AllPairsObjective::paper();
        for (n, c) in [(8usize, 2usize), (8, 4), (16, 2), (16, 4), (16, 8)] {
            let out = initial_solution(n, c, &obj);
            assert!(
                out.placement.validate(c).is_ok(),
                "I({n},{c}) violated the limit: {:?}",
                out.placement
            );
        }
    }

    #[test]
    fn base_case_is_exact() {
        let obj = AllPairsObjective::paper();
        let dnc = initial_solution(4, 2, &obj);
        let exact = exhaustive_optimal(4, 2, &obj);
        assert!((dnc.objective - exact.best_objective).abs() < 1e-12);
    }

    #[test]
    fn beats_the_mesh_row() {
        let obj = AllPairsObjective::paper();
        for (n, c) in [(8usize, 2usize), (8, 4), (16, 4)] {
            let out = initial_solution(n, c, &obj);
            let mesh = obj.eval(&RowPlacement::new(n));
            assert!(
                out.objective < mesh,
                "I({n},{c}) = {} not better than mesh {mesh}",
                out.objective
            );
        }
    }

    #[test]
    fn close_to_optimal_on_small_instances() {
        // The initial solution alone is a good estimate (§4.4.1); within a
        // modest factor of optimal before SA refinement.
        let obj = AllPairsObjective::paper();
        for (n, c) in [(8usize, 2usize), (8, 3), (8, 4)] {
            let dnc = initial_solution(n, c, &obj);
            let opt = exhaustive_optimal(n, c, &obj);
            assert!(
                dnc.objective <= opt.best_objective * 1.25 + 1e-9,
                "I({n},{c}) = {} vs optimal {}",
                dnc.objective,
                opt.best_objective
            );
        }
    }

    #[test]
    fn evaluation_count_is_reported() {
        let obj = AllPairsObjective::paper();
        let out = initial_solution(8, 4, &obj);
        // Combination: 15 cross pairs + 1 assembly + two exact base cases.
        assert!(out.evaluations >= 16, "evals = {}", out.evaluations);
    }

    #[test]
    fn weighted_objective_recursion_compiles_and_solves() {
        // Hot pair (0, 7): the initial solution should include a long link
        // crossing the seam.
        let n = 8;
        let mut gamma = vec![0.01; 64];
        gamma[7] = 10.0;
        gamma[7 * 8] = 10.0;
        let obj = WeightedObjective::new(n, gamma, HopWeights::PAPER);
        let out = initial_solution(n, 4, &obj);
        assert!(out.placement.is_within_limit(4));
        // Weighted distance 0 -> 7 must beat the 28-cycle mesh path.
        let apsp = noc_routing::monotone_apsp(&out.placement, HopWeights::PAPER);
        assert!(apsp.dist(0, 7) < 28);
    }
}
