//! Exhaustive search with branch-and-bound pruning (§5.6.3).
//!
//! Enumerates feasible express-link sets by depth-first search over the
//! candidate links, pruning branches that would violate a cross-section
//! limit. Two structural facts keep the search tractable:
//!
//! 1. **Monotonicity** — adding an express link can only shorten monotone
//!    shortest paths, so the all-pairs objective is non-increasing in the
//!    link set. Only *maximal* feasible sets can be optimal, and the search
//!    evaluates exactly those.
//! 2. **Feasibility pruning** — cross-section counts are maintained
//!    incrementally, with a mask of the cuts that have no layer left, so
//!    infeasible subtrees are cut without decoding.
//!
//! A maximal leaf is scored on the objective's [link evaluator] when it
//! has one: its hop-count rows are rebuilt from the chosen links in one
//! right-to-left pass, and no placement is built unless the leaf improves
//! on the best. Stepping the rows with every link the DFS takes and drops
//! measured about 3x slower (P(10,5) and P(12,4)): the DFS reaches far
//! more leaves than are maximal. Objectives without a link evaluator
//! evaluate each maximal leaf's placement in full, with identical results.
//!
//! This solver is the base case of the divide-and-conquer procedure
//! `I(n, C)` (where `n ≤ 4` makes it trivial) and the optimality reference
//! for Fig. 12 (`P(4,2)`, `P(8,2)`, `P(8,3)`, `P(8,4)`, `P(16,2)`).
//!
//! [link evaluator]: crate::objective::Objective::link_evaluator

use crate::incremental::LinkEvaluator;
use crate::objective::{current, Objective};
use noc_topology::{Link, RowPlacement};

/// Result of an exhaustive solve.
#[derive(Debug, Clone)]
pub struct BbOutcome {
    /// An optimal placement.
    pub best: RowPlacement,
    /// Its objective value (cycles).
    pub best_objective: f64,
    /// Number of objective evaluations (maximal feasible sets visited) —
    /// the runtime proxy used for Fig. 12's runtime ratio.
    pub evaluations: usize,
    /// Number of DFS nodes explored (both branches).
    pub nodes: usize,
}

struct Search<'a, O: Objective + ?Sized> {
    n: usize,
    c_limit: usize,
    candidates: Vec<Link>,
    objective: &'a O,
    /// The objective's link evaluator, set to the chosen links at each
    /// maximal leaf.
    rows: Option<Box<dyn LinkEvaluator>>,
    /// Express-link count per cut for the current prefix.
    sections: Vec<usize>,
    /// Cuts with no express layer left: their count is `C − 1` (one layer
    /// is local).
    full: u64,
    /// The cuts each candidate crosses, as a mask.
    crosses: Vec<u64>,
    /// Whether each candidate is in the current prefix.
    taken: Vec<bool>,
    chosen: Vec<Link>,
    best: RowPlacement,
    best_objective: f64,
    evaluations: usize,
    nodes: usize,
}

impl<O: Objective + ?Sized> Search<'_, O> {
    fn fits(&self, index: usize) -> bool {
        self.crosses[index] & self.full == 0
    }

    /// Takes candidate `index` into the prefix, or drops it again.
    fn take(&mut self, index: usize, taken: bool) {
        let link = self.candidates[index];
        for cut in link.a..link.b {
            if taken {
                self.sections[cut] += 1;
            } else {
                self.sections[cut] -= 1;
            }
            if self.sections[cut] + 1 == self.c_limit {
                self.full |= 1 << cut;
            } else {
                self.full &= !(1 << cut);
            }
        }
        self.taken[index] = taken;
        if taken {
            self.chosen.push(link);
        } else {
            self.chosen.pop();
        }
    }

    fn chosen_row(&self) -> RowPlacement {
        RowPlacement::with_links(self.n, self.chosen.iter().map(|l| (l.a, l.b)))
            .expect("chosen links are valid by construction")
    }

    fn dfs(&mut self, index: usize) {
        self.nodes += 1;
        if index == self.candidates.len() {
            // Evaluate only maximal sets: if any candidate could still be
            // added, a superset (visited elsewhere) dominates this leaf.
            let maximal = !(0..self.candidates.len()).any(|i| !self.taken[i] && self.fits(i));
            if maximal {
                let (obj, row) = match self.rows.as_mut() {
                    Some(rows) => {
                        rows.set_links(&self.chosen);
                        (rows.objective(), None)
                    }
                    None => {
                        let row = self.chosen_row();
                        (self.objective.eval(&row), Some(row))
                    }
                };
                self.evaluations += 1;
                if obj < self.best_objective {
                    self.best_objective = obj;
                    self.best = row.unwrap_or_else(|| self.chosen_row());
                }
            }
            return;
        }
        // Branch 1: include the link when feasible.
        if self.fits(index) {
            self.take(index, true);
            self.dfs(index + 1);
            self.take(index, false);
        }
        // Branch 2: exclude it.
        self.dfs(index + 1);
    }
}

/// Exhaustively solves `P̂(n, C)`, returning an optimal placement.
///
/// Complexity is exponential in the `L = (n-1)(n-2)/2` candidate links.
/// Once `C` lets every link fit, the search visits all `2^(L+1) − 1` DFS
/// nodes: 4.2M at `n = 8` (tens of milliseconds), 2^29 − 1 at `n = 9`
/// (seconds), 2^37 − 1 at `n = 10`. Longer rows finish only for small `C`:
/// in seconds up to P(10,6), P(11,5), P(12,4) and P(16,3), the instances
/// of Fig. 12 among them (measured times are in the `optimal` request's
/// refusal table, `crates/service/src/spec.rs`).
///
/// # Panics
/// Panics if `n < 2`, `C < 1`, or `n > 65` with `C > 1` (the cut masks
/// hold 64 cuts; such a search could not finish anyway).
pub fn exhaustive_optimal<O: Objective + ?Sized>(
    n: usize,
    c_limit: usize,
    objective: &O,
) -> BbOutcome {
    assert!(n >= 2, "a row needs at least 2 routers");
    assert!(c_limit >= 1, "link limit C must be >= 1");
    let mesh = RowPlacement::new(n);
    if c_limit == 1 || n <= 2 {
        let best_objective = objective.eval(&mesh);
        return BbOutcome {
            best: mesh,
            best_objective,
            evaluations: 1,
            nodes: 1,
        };
    }
    // Candidates ordered longest-span first: long links constrain the most
    // cuts, so infeasibility surfaces early in the DFS.
    let mut candidates: Vec<Link> = (0..n)
        .flat_map(|a| (a + 2..n).map(move |b| Link { a, b }))
        .collect();
    candidates.sort_by_key(|l| std::cmp::Reverse(l.span()));

    assert!(
        n <= 65,
        "the cut masks hold the 64 cuts of at most 65 routers"
    );
    let rows = objective.link_evaluator(&mesh);
    let best_objective = current(objective, rows.as_deref(), &mesh);
    let mut search = Search {
        n,
        c_limit,
        crosses: candidates
            .iter()
            .map(|l| (u64::MAX >> (64 - l.span())) << l.a)
            .collect(),
        taken: vec![false; candidates.len()],
        candidates,
        objective,
        rows,
        sections: vec![0; n - 1],
        full: 0,
        chosen: Vec::new(),
        best: mesh,
        best_objective,
        evaluations: 1,
        nodes: 0,
    };
    search.dfs(0);
    BbOutcome {
        best: search.best,
        best_objective: search.best_objective,
        evaluations: search.evaluations,
        nodes: search.nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::AllPairsObjective;

    #[test]
    fn c1_returns_mesh() {
        let obj = AllPairsObjective::paper();
        let out = exhaustive_optimal(8, 1, &obj);
        assert_eq!(out.best, RowPlacement::new(8));
        assert!((out.best_objective - 10.5).abs() < 1e-9);
    }

    #[test]
    fn p42_optimum() {
        // P̂(4,2): one express layer on 4 routers. Candidates (0,2), (0,3),
        // (1,3); feasible single layers: {(0,2),(2,3)?}... enumerate by hand:
        // any set of pairwise cut-disjoint links: {(0,2)}, {(1,3)}, {(0,3)},
        // and nothing combines (all overlap cut 1)... except (0,2)+(2,... no.
        // The optimum is the symmetric-latency minimiser among those.
        let obj = AllPairsObjective::paper();
        let out = exhaustive_optimal(4, 2, &obj);
        assert!(out.best.is_within_limit(2));
        // Brute-force reference over all 2^3 subsets.
        let mut best = f64::INFINITY;
        for mask in 0..8u32 {
            let links: Vec<(usize, usize)> = [(0, 2), (0, 3), (1, 3)]
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &l)| l)
                .collect();
            let row = RowPlacement::with_links(4, links).unwrap();
            if row.is_within_limit(2) {
                best = best.min(obj.eval(&row));
            }
        }
        assert!((out.best_objective - best).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_p62() {
        // Full cross-check against naive enumeration for n = 6, C = 2.
        let obj = AllPairsObjective::paper();
        let out = exhaustive_optimal(6, 2, &obj);
        let candidates: Vec<(usize, usize)> = (0..6)
            .flat_map(|a| (a + 2..6).map(move |b| (a, b)))
            .collect();
        let mut best = f64::INFINITY;
        for mask in 0..(1u32 << candidates.len()) {
            let links: Vec<(usize, usize)> = candidates
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &l)| l)
                .collect();
            let row = RowPlacement::with_links(6, links).unwrap();
            if row.is_within_limit(2) {
                best = best.min(obj.eval(&row));
            }
        }
        assert!(
            (out.best_objective - best).abs() < 1e-12,
            "bb {} vs brute {}",
            out.best_objective,
            best
        );
    }

    #[test]
    fn optimum_is_no_worse_with_larger_c() {
        let obj = AllPairsObjective::paper();
        let mut prev = f64::INFINITY;
        for c in [1usize, 2, 3, 4] {
            let out = exhaustive_optimal(8, c, &obj);
            assert!(
                out.best_objective <= prev + 1e-12,
                "C={c} worse than C-1: {} > {}",
                out.best_objective,
                prev
            );
            prev = out.best_objective;
        }
    }

    #[test]
    fn full_connectivity_when_unconstrained() {
        // With C = C_full the flattened butterfly (all links) is feasible and
        // optimal by monotonicity.
        let obj = AllPairsObjective::paper();
        let out = exhaustive_optimal(6, 9, &obj);
        let fb = noc_topology::flattened_butterfly_row(6);
        assert!((out.best_objective - obj.eval(&fb)).abs() < 1e-12);
    }

    #[test]
    fn evaluates_only_maximal_sets() {
        let obj = AllPairsObjective::paper();
        let out = exhaustive_optimal(6, 2, &obj);
        // Far fewer evaluations than the 2^10 naive subsets.
        assert!(out.evaluations < 64, "evaluations = {}", out.evaluations);
    }
}
