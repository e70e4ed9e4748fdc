//! Placement objectives: what the optimizer minimises.

use crate::fingerprint;
use crate::incremental::{IncrementalAllPairs, MoveEvaluator};
use noc_model::RowObjective;
use noc_routing::HopWeights;
use noc_topology::{ConnectionMatrix, RowPlacement};

/// An objective function over row placements. Implementations must be cheap
/// to evaluate — they sit in the simulated-annealing inner loop — and `Sync`
/// so sweeps can parallelise across link limits.
pub trait Objective: Sync {
    /// Cost of a placement (lower is better), in cycles.
    fn eval(&self, row: &RowPlacement) -> f64;

    /// An optional incremental evaluator tracking single-bit flips of
    /// `matrix`, for the annealing inner loop. Implementations returning
    /// `Some` must guarantee the incremental values are **bit-identical**
    /// to [`eval`](Objective::eval) on the decoded placement — the
    /// annealer relies on this to keep accept/reject decisions, and thus
    /// its RNG stream, independent of the evaluation mode. The default
    /// returns `None`, which makes [`anneal`](crate::sa::anneal) fall back
    /// to full per-move evaluation.
    fn incremental_evaluator(&self, matrix: &ConnectionMatrix) -> Option<Box<dyn MoveEvaluator>> {
        let _ = matrix;
        None
    }
}

impl<F: Fn(&RowPlacement) -> f64 + Sync> Objective for F {
    fn eval(&self, row: &RowPlacement) -> f64 {
        self(row)
    }
}

/// The general-purpose objective of Eq. (2): mean segment latency over all
/// `n²` ordered pairs of the row, giving every source–destination pair equal
/// weight ("to avoid unfairness during the optimization process", §3).
#[derive(Debug, Clone, Copy)]
pub struct AllPairsObjective {
    inner: RowObjective,
}

impl AllPairsObjective {
    /// Paper weights (`T_r = 3`, `T_l = 1`).
    pub fn paper() -> Self {
        AllPairsObjective {
            inner: RowObjective::paper(),
        }
    }

    /// Custom hop weights.
    pub fn with_weights(weights: HopWeights) -> Self {
        AllPairsObjective {
            inner: RowObjective { weights },
        }
    }

    /// The hop weights this objective evaluates with.
    pub fn weights(&self) -> HopWeights {
        self.inner.weights
    }

    /// A stable 64-bit fingerprint of everything the objective value
    /// depends on. Two objectives with equal fingerprints evaluate every
    /// placement identically, so results keyed by the fingerprint (e.g.
    /// the service result cache) can be shared between them.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fingerprint::Fnv1a::with_tag("all-pairs");
        h.write_u32(self.inner.weights.router_cycles);
        h.write_u32(self.inner.weights.unit_link_cycles);
        h.finish()
    }
}

impl Objective for AllPairsObjective {
    fn eval(&self, row: &RowPlacement) -> f64 {
        self.inner.eval(row)
    }

    /// All-pairs latency supports exact incremental evaluation on rows of
    /// up to 64 routers: both paths reach the same `u64` distance sum
    /// before a single `f64` division, so the values agree bit-for-bit
    /// (property-tested in `tests/proptest_placement.rs`). Longer rows, and
    /// weights whose distances overflow `u32`, get `None`.
    fn incremental_evaluator(&self, matrix: &ConnectionMatrix) -> Option<Box<dyn MoveEvaluator>> {
        IncrementalAllPairs::try_new(matrix, self.weights())
            .map(|eval| Box::new(eval) as Box<dyn MoveEvaluator>)
    }
}

/// The application-specific objective of §5.6.4: `Σγ_ij·L_D(i,j)/Σγ_ij`,
/// weighting pairs by an observed communication rate matrix.
///
/// This objective keeps the default (full) evaluation path in the
/// annealer: its value is a sum of `f64` products whose result depends on
/// summation order, so an incremental update could not stay bit-identical
/// to the full evaluator.
#[derive(Debug, Clone)]
pub struct WeightedObjective {
    inner: RowObjective,
    gamma: Vec<f64>,
    n: usize,
}

impl WeightedObjective {
    /// Builds a weighted objective for rows of `n` routers from a row-major
    /// `n × n` rate matrix.
    ///
    /// # Panics
    /// Panics if `gamma.len() != n * n` or any rate is negative.
    pub fn new(n: usize, gamma: Vec<f64>, weights: HopWeights) -> Self {
        assert_eq!(gamma.len(), n * n, "gamma must be n x n");
        assert!(
            gamma.iter().all(|&g| g >= 0.0),
            "communication rates must be non-negative"
        );
        WeightedObjective {
            inner: RowObjective { weights },
            gamma,
            n,
        }
    }

    /// Row length this objective applies to.
    pub fn len(&self) -> usize {
        self.n
    }

    /// The row-major `n × n` rate matrix.
    pub fn gamma(&self) -> &[f64] {
        &self.gamma
    }

    /// The hop weights this objective evaluates with.
    pub fn weights(&self) -> HopWeights {
        self.inner.weights
    }

    /// Whether the objective covers no routers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Stable fingerprint over the weights, dimensions, and the full rate
    /// matrix (bit-exact: `f64`s are hashed by their IEEE-754 encoding).
    pub fn fingerprint(&self) -> u64 {
        let mut h = fingerprint::Fnv1a::with_tag("weighted");
        h.write_u32(self.inner.weights.router_cycles);
        h.write_u32(self.inner.weights.unit_link_cycles);
        h.write_u64(self.n as u64);
        for &g in &self.gamma {
            h.write_u64(g.to_bits());
        }
        h.finish()
    }
}

impl Objective for WeightedObjective {
    fn eval(&self, row: &RowPlacement) -> f64 {
        assert_eq!(row.len(), self.n, "placement size mismatch");
        self.inner.eval_weighted(row, &self.gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_objectives_work() {
        let obj = |row: &RowPlacement| row.express_count() as f64;
        let mut row = RowPlacement::new(8);
        assert_eq!(Objective::eval(&obj, &row), 0.0);
        row.add_link(0, 2).unwrap();
        assert_eq!(Objective::eval(&obj, &row), 1.0);
    }

    #[test]
    fn all_pairs_matches_model() {
        let obj = AllPairsObjective::paper();
        let row = RowPlacement::new(8);
        assert!((obj.eval(&row) - 10.5).abs() < 1e-9);
    }

    #[test]
    fn weighted_prefers_hot_pair_links() {
        // All traffic flows 0 -> 7: a placement with the direct link is far
        // better under the weighted objective.
        let n = 8;
        let mut gamma = vec![0.0; 64];
        gamma[7] = 1.0;
        let obj = WeightedObjective::new(n, gamma, HopWeights::PAPER);
        let mesh = RowPlacement::new(n);
        let direct = RowPlacement::with_links(n, [(0, 7)]).unwrap();
        assert!(obj.eval(&direct) < obj.eval(&mesh));
        assert!((obj.eval(&direct) - 10.0).abs() < 1e-9); // 3 + 7
        assert!((obj.eval(&mesh) - 28.0).abs() < 1e-9); // 7 hops · 4
    }

    #[test]
    #[should_panic(expected = "gamma must be n x n")]
    fn weighted_rejects_bad_dimensions() {
        let _ = WeightedObjective::new(8, vec![0.0; 10], HopWeights::PAPER);
    }
}
