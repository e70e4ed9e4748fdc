//! Weighted scalarization of latency and static power.
//!
//! One frontier scalarization is an ordinary single-objective SA solve of
//! `w_latency · L(row) + w_power · P(row)`, so the whole existing solver
//! stack — D&C initial solutions, multi-chain annealing, incremental
//! evaluation — is reused unchanged. The two bit-identity facts the
//! frontier's determinism contract rests on:
//!
//! * **Extremes degenerate exactly.** IEEE-754 gives `1.0·x + 0.0·y == x`
//!   bit-for-bit for the finite, non-negative objective values both terms
//!   produce, so at `(1, 0)` every candidate value the annealer sees —
//!   full or incremental — equals the plain [`AllPairsObjective`] value.
//!   Identical values mean identical accept/reject branches, an identical
//!   RNG stream, and an identical result to a single-objective solve with
//!   the same seed (property-tested in `tests/frontier_properties.rs`).
//!   `(0, 1)` degenerates to a pure power-min solve the same way.
//! * **Incremental equals full.** Both component evaluators are
//!   bit-identical to their full counterparts, and both paths combine the
//!   components through the same `w_l·L + w_p·P` expression.

use crate::power_proxy::{IncrementalStaticPower, StaticPowerModel};
use noc_placement::dnc::DivisibleObjective;
use noc_placement::{AllPairsObjective, IncrementalAllPairs, MoveEvaluator, Objective};
use noc_topology::{ConnectionMatrix, RowPlacement};

/// The weighted-sum objective `w_latency · L(row) + w_power · P(row)`.
#[derive(Debug, Clone, Copy)]
pub struct ScalarizedObjective {
    latency: AllPairsObjective,
    power: StaticPowerModel,
    w_latency: f64,
    w_power: f64,
}

impl ScalarizedObjective {
    /// Builds the scalarization. Weights must be finite and non-negative.
    pub fn new(
        latency: AllPairsObjective,
        power: StaticPowerModel,
        w_latency: f64,
        w_power: f64,
    ) -> Self {
        assert!(
            w_latency.is_finite() && w_power.is_finite() && w_latency >= 0.0 && w_power >= 0.0,
            "weights must be finite and non-negative"
        );
        ScalarizedObjective {
            latency,
            power,
            w_latency,
            w_power,
        }
    }

    /// The latency component.
    pub fn latency(&self) -> &AllPairsObjective {
        &self.latency
    }

    /// The power component.
    pub fn power(&self) -> &StaticPowerModel {
        &self.power
    }

    /// The `(w_latency, w_power)` weight pair.
    pub fn weights(&self) -> (f64, f64) {
        (self.w_latency, self.w_power)
    }

    /// Stable fingerprint over both components and the weight pair.
    pub fn fingerprint(&self) -> u64 {
        let mut h = noc_model::fingerprint::Fnv1a::with_tag("scalarized");
        h.write_u64(self.latency.fingerprint());
        h.write_u64(self.power.fingerprint());
        h.write_f64(self.w_latency);
        h.write_f64(self.w_power);
        h.finish()
    }
}

impl Objective for ScalarizedObjective {
    fn eval(&self, row: &RowPlacement) -> f64 {
        self.w_latency * self.latency.eval(row) + self.w_power * self.power.eval_row(row)
    }

    /// Incremental on the rows the latency kernel takes (see
    /// [`IncrementalAllPairs::try_new`]); `None` beyond them.
    fn incremental_evaluator(&self, matrix: &ConnectionMatrix) -> Option<Box<dyn MoveEvaluator>> {
        let latency = IncrementalAllPairs::try_new(matrix, self.latency.weights())?;
        Some(Box::new(ScalarizedEvaluator {
            latency,
            power: IncrementalStaticPower::new(&matrix.decode(), self.power),
            w_latency: self.w_latency,
            w_power: self.w_power,
        }))
    }
}

impl DivisibleObjective for ScalarizedObjective {
    fn restrict(&self, lo: usize, hi: usize) -> Self {
        ScalarizedObjective {
            latency: self.latency.restrict(lo, hi),
            power: self.power.with_n(hi - lo),
            w_latency: self.w_latency,
            w_power: self.w_power,
        }
    }
}

/// Incremental evaluator pairing the latency kernel with the `O(1)`
/// power-moment patch. The kernel walks the flipped layer's spans once
/// and hands the link changes to the power tracker, so per-move cost
/// stays within the latency kernel's envelope (benchmarked in
/// `benches/frontier.rs`).
#[derive(Debug, Clone)]
pub struct ScalarizedEvaluator {
    latency: IncrementalAllPairs,
    power: IncrementalStaticPower,
    w_latency: f64,
    w_power: f64,
}

impl MoveEvaluator for ScalarizedEvaluator {
    fn objective(&self) -> f64 {
        self.w_latency * self.latency.objective() + self.w_power * self.power.objective()
    }

    fn flip(&mut self, bit: usize) -> f64 {
        let changes = self.latency.flip_links(bit);
        self.power.apply(&changes);
        self.objective()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_power::PowerConfig;
    use noc_rng::rngs::SmallRng;
    use noc_rng::{Rng, SeedableRng};

    fn scalarized(n: usize, w_latency: f64, w_power: f64) -> ScalarizedObjective {
        ScalarizedObjective::new(
            AllPairsObjective::paper(),
            StaticPowerModel::new(n, 256, 10_240, &PowerConfig::dsent_32nm()),
            w_latency,
            w_power,
        )
    }

    #[test]
    fn incremental_matches_full_on_random_walks() {
        let mut rng = SmallRng::seed_from_u64(0xCAFE);
        for (w_l, w_p) in [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.75, 0.25)] {
            let obj = scalarized(10, w_l, w_p);
            let mut matrix = ConnectionMatrix::new(10, 4);
            let mut inc = obj.incremental_evaluator(&matrix).unwrap();
            let bits = matrix.bit_count();
            for step in 0..200 {
                let bit = rng.gen_range(0..bits);
                matrix.flip_flat(bit);
                let fast = inc.flip(bit);
                let slow = obj.eval(&matrix.decode());
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "w=({w_l},{w_p}) step {step}: flip {bit}"
                );
            }
        }
    }

    #[test]
    fn latency_extreme_is_bitwise_all_pairs() {
        let obj = scalarized(8, 1.0, 0.0);
        let plain = AllPairsObjective::paper();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut matrix = ConnectionMatrix::new(8, 4);
        for _ in 0..100 {
            matrix.flip_flat(rng.gen_range(0..matrix.bit_count()));
            let row = matrix.decode();
            assert_eq!(obj.eval(&row).to_bits(), plain.eval(&row).to_bits());
        }
    }

    #[test]
    fn power_extreme_is_bitwise_power() {
        let obj = scalarized(8, 0.0, 1.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut matrix = ConnectionMatrix::new(8, 4);
        for _ in 0..100 {
            matrix.flip_flat(rng.gen_range(0..matrix.bit_count()));
            let row = matrix.decode();
            assert_eq!(
                obj.eval(&row).to_bits(),
                obj.power().eval_row(&row).to_bits()
            );
        }
    }

    #[test]
    fn restriction_prices_sub_rows() {
        let obj = scalarized(8, 0.5, 0.5);
        let sub = obj.restrict(2, 6);
        let row = RowPlacement::new(4);
        // The restricted objective evaluates 4-router rows without panicking
        // and still blends both components.
        assert!(sub.eval(&row) > 0.0);
    }

    #[test]
    fn fingerprint_covers_weights() {
        let a = scalarized(8, 0.5, 0.5);
        let b = scalarized(8, 0.25, 0.75);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), scalarized(8, 0.5, 0.5).fingerprint());
    }
}
