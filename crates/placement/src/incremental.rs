//! Incremental objective evaluation for the SA inner loop.
//!
//! Every annealing move flips one bit of the connection matrix, yet the
//! full evaluator decodes the matrix and re-solves all `n²` pairs. This
//! module scores a flip from hop counts instead, over one `u64` mask of
//! outgoing links per router.
//!
//! **Hop counts carry the objective.** A U-turn-free path from `i` to
//! `j > i` visits strictly increasing routers (see
//! [`noc_routing::monotone`]), so its links tile `[i, j]` and it crosses
//! exactly `j − i` unit link segments, whatever its route. Its cost is
//! `T_r·hops + T_l·(j − i)`, so the shortest distance is
//! `d(i, j) = T_r·H(i, j) + T_l·(j − i)` with `H` the fewest hops, and the
//! forward pairs sum to `T_r·ΣH + T_l·n(n²−1)/6`. That is the same `u64`
//! the monotone DP sums ([`noc_routing::monotone::monotone_all_pairs_sum`])
//! whenever no distance overflows the DP's `u32` cycles (which
//! [`IncrementalAllPairs::try_new`] checks), and the objective divides it
//! by `n²` in the same single `f64` division. The incremental objective is
//! therefore **bit-identical** to the full evaluator: the annealer takes
//! the same accept/reject branches, consumes the same RNG stream, and
//! lands on the same result in either mode. [`anneal`] keeps a
//! `debug_assertions` cross-check of this invariant on every move.
//!
//! **Which links change.** Flipping the connection point of layer `l` at
//! interior router `r` merges the two spans of that layer meeting at `r`
//! into one, or splits one back into two. With `a` and `b` the span
//! boundaries next to `r` in that layer, only the links `(a, r)`, `(r, b)`
//! and `(a, b)` can appear or vanish, and only when no other layer
//! encodes the same span.
//!
//! **Which sources change.** A forward path from `i` only uses links whose
//! left endpoint is at least `i`. A changed link's left endpoint is `a` or
//! `r`, so only the sources `i ≤ r` — precisely, up to the largest left
//! endpoint of a changed link — can change their hop sum `Σ_j H(i, j)`.
//! Each of them is recomputed by a breadth-first search over the masks.
//! The annealer undoes a rejected move by flipping the same bit again,
//! which searches those sources once more.
//!
//! Rows of more than [`MAX_ROUTERS`] routers do not fit the masks;
//! [`IncrementalAllPairs::try_new`] and so
//! [`Objective::incremental_evaluator`] return `None` for them, and the
//! annealer evaluates their moves in full.
//!
//! [`anneal`]: crate::sa::anneal
//! [`Objective::incremental_evaluator`]: crate::objective::Objective::incremental_evaluator
//!
//! # Example
//!
//! ```
//! use noc_placement::incremental::{IncrementalAllPairs, MoveEvaluator};
//! use noc_placement::objective::{AllPairsObjective, Objective};
//! use noc_routing::HopWeights;
//! use noc_topology::ConnectionMatrix;
//!
//! let full = AllPairsObjective::paper();
//! let mut matrix = ConnectionMatrix::new(8, 4);
//! let mut inc = IncrementalAllPairs::try_new(&matrix, HopWeights::PAPER).unwrap();
//! assert_eq!(inc.objective(), full.eval(&matrix.decode())); // mesh row: 10.5
//!
//! // Flip a few bits; the incremental value tracks the full evaluator.
//! for bit in [0usize, 5, 11, 5] {
//!     matrix.flip_flat(bit);
//!     let fast = inc.flip(bit);
//!     assert_eq!(fast.to_bits(), full.eval(&matrix.decode()).to_bits());
//! }
//! ```

use noc_routing::HopWeights;
use noc_topology::ConnectionMatrix;

/// A stateful evaluator that tracks the objective of the connection matrix
/// under single-bit flips, without re-solving the whole row each move.
///
/// The annealer obtains one through
/// [`Objective::incremental_evaluator`](crate::objective::Objective::incremental_evaluator)
/// and drives it in lock-step with its own copy of the matrix. Flipping the
/// same bit twice restores the previous state exactly (a flip is an
/// involution), which is how rejected moves are undone.
pub trait MoveEvaluator {
    /// Objective value of the placement the tracked matrix decodes to.
    /// Must be bit-identical to the owning [`Objective`]'s `eval` of that
    /// placement.
    ///
    /// [`Objective`]: crate::objective::Objective
    fn objective(&self) -> f64;

    /// Applies one bit flip (flat index as in
    /// [`ConnectionMatrix::flip_flat`]) and returns the new objective.
    fn flip(&mut self, bit: usize) -> f64;
}

/// Longest row [`IncrementalAllPairs`] takes: one `u64` mask per router.
pub const MAX_ROUTERS: usize = 64;

/// One distinct express link a flip added or removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkChange {
    /// Left endpoint.
    pub a: usize,
    /// Right endpoint.
    pub b: usize,
    /// Whether the link appeared (otherwise it vanished).
    pub added: bool,
}

/// The distinct express links one flip added or removed: at most
/// `(a, r)`, `(r, b)` and `(a, b)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkChanges {
    list: [LinkChange; 3],
    len: usize,
}

impl LinkChanges {
    /// The changes, in the order the flip made them.
    pub fn as_slice(&self) -> &[LinkChange] {
        &self.list[..self.len]
    }

    fn note(&mut self, a: usize, b: usize, added: bool, changed: bool) {
        if changed {
            self.list[self.len] = LinkChange { a, b, added };
            self.len += 1;
        }
    }
}

/// Incremental all-pairs mean segment latency — the fast path behind
/// [`AllPairsObjective`](crate::objective::AllPairsObjective).
///
/// Holds the connection points of each layer as a mask, the multiplicity
/// of every span across layers, the distinct links as one out-mask per
/// router, and the hop sum of every source. [`flip`](MoveEvaluator::flip)
/// finds the span boundaries with two bit scans and searches again from
/// at most `r + 1` sources.
#[derive(Debug, Clone)]
pub struct IncrementalAllPairs {
    n: usize,
    points: usize,
    weights: HopWeights,
    /// Routers `0..n` as a mask.
    row: u64,
    /// `Σ_{i<j} (j − i)`: unit link segments over the forward pairs.
    segments: u64,
    /// `layers[l]`: bit `r` set when interior router `r` is a connection
    /// point of layer `l`.
    layers: Vec<u64>,
    /// Layers encoding span `(a, b)`, `b − a ≥ 2`, at `a·n + b`. A link
    /// exists while its count is non-zero.
    spans: Vec<u32>,
    /// `out[k]`: bit `j` set when the row has a link `k → j`, local or
    /// express.
    out: [u64; MAX_ROUTERS],
    /// `hops[i]`: `Σ_{j>i} H(i, j)`.
    hops: [u32; MAX_ROUTERS],
    /// `Σ_i hops[i]`.
    total_hops: u64,
}

impl IncrementalAllPairs {
    /// Builds the evaluator for the placement `matrix` currently decodes
    /// to, or `None` where it would not reproduce the full evaluator bit
    /// for bit: rows of more than [`MAX_ROUTERS`] routers, and weights
    /// under which a path's cost, at most `(n − 1)·(T_r + T_l)`, overflows
    /// the `u32` cycles the full evaluator sums.
    pub fn try_new(matrix: &ConnectionMatrix, weights: HopWeights) -> Option<Self> {
        let n = matrix.routers();
        let per_segment = weights.router_cycles as u64 + weights.unit_link_cycles as u64;
        if n > MAX_ROUTERS || (n as u64 - 1) * per_segment > u32::MAX as u64 {
            return None;
        }
        let points = matrix.points();
        let mut out = [0u64; MAX_ROUTERS];
        for (k, mask) in out.iter_mut().enumerate().take(n - 1) {
            *mask = 1 << (k + 1);
        }
        let n64 = n as u64;
        let mut eval = IncrementalAllPairs {
            n,
            points,
            weights,
            row: u64::MAX >> (MAX_ROUTERS - n),
            segments: n64 * (n64 * n64 - 1) / 6,
            layers: vec![0; matrix.layers()],
            spans: vec![0; n * n],
            out,
            hops: [0; MAX_ROUTERS],
            total_hops: 0,
        };
        for layer in 0..matrix.layers() {
            let mut span_start = 0;
            for point in 0..points {
                let router = point + 1;
                if matrix.get(layer, point) {
                    eval.layers[layer] |= 1 << router;
                } else {
                    eval.add_span(span_start, router);
                    span_start = router;
                }
            }
            eval.add_span(span_start, n - 1);
        }
        for i in 0..n {
            eval.hops[i] = eval.hop_sum(i);
            eval.total_hops += eval.hops[i] as u64;
        }
        Some(eval)
    }

    /// Applies one bit flip like [`MoveEvaluator::flip`] and returns the
    /// distinct express links it added or removed, for trackers of other
    /// functions of the link set.
    pub fn flip_links(&mut self, bit: usize) -> LinkChanges {
        let layer = bit / self.points;
        let r = bit % self.points + 1;
        let connected = self.layers[layer];

        // Span boundaries of this layer: the row ends and every interior
        // router that is not a connection point. `r ≤ n − 2 ≤ 62`, so
        // neither shift reaches 64.
        let bounds = !connected & self.row;
        let a = 63 - (bounds & ((1 << r) - 1)).leading_zeros() as usize;
        let b = (bounds & (u64::MAX << (r + 1))).trailing_zeros() as usize;

        self.layers[layer] = connected ^ (1 << r);
        let mut changes = LinkChanges::default();
        if connected & (1 << r) == 0 {
            // Spans [a, r] and [r, b] merge into [a, b].
            changes.note(a, r, false, self.remove_span(a, r));
            changes.note(r, b, false, self.remove_span(r, b));
            changes.note(a, b, true, self.add_span(a, b));
        } else {
            // Span [a, b] splits into [a, r] and [r, b].
            changes.note(a, b, false, self.remove_span(a, b));
            changes.note(a, r, true, self.add_span(a, r));
            changes.note(r, b, true, self.add_span(r, b));
        }
        self.rescore(&changes);
        changes
    }

    /// Brings the hop sums up to date after a flip changed the links
    /// `changes`.
    fn rescore(&mut self, changes: &LinkChanges) {
        // Source i searches only links with left endpoint ≥ i.
        let sources = changes.as_slice().iter().map(|c| c.a + 1).max();
        let sources = sources.unwrap_or(0);
        for i in 0..sources {
            let sum = self.hop_sum(i);
            self.total_hops = self.total_hops - self.hops[i] as u64 + sum as u64;
            self.hops[i] = sum;
        }
    }

    /// `Σ_{j>i} H(i, j)`: a breadth-first search from `i` over the
    /// out-masks. Every router right of `i` is reached, through the local
    /// links if nothing shorter; the search also stops if a level finds
    /// nothing new, so no mask state can make it loop.
    fn hop_sum(&self, i: usize) -> u32 {
        let right = self.row & (u64::MAX << i);
        let mut reached = 1u64 << i;
        let mut frontier = reached;
        let mut level = 0;
        let mut sum = 0;
        while reached != right && frontier != 0 {
            let mut next = 0;
            let mut pending = frontier;
            while pending != 0 {
                next |= self.out[(pending.trailing_zeros() as usize) % MAX_ROUTERS];
                pending &= pending - 1;
            }
            frontier = next & !reached;
            reached |= frontier;
            level += 1;
            sum += level * frontier.count_ones();
        }
        sum
    }

    /// Counts one layer's span `(a, b)`; returns whether its express link
    /// appeared. Unit spans only duplicate the local link and are dropped,
    /// as [`ConnectionMatrix::decode`] drops them.
    fn add_span(&mut self, a: usize, b: usize) -> bool {
        if b - a < 2 {
            return false;
        }
        let count = &mut self.spans[a * self.n + b];
        *count += 1;
        if *count == 1 {
            self.out[a] |= 1 << b;
        }
        *count == 1
    }

    /// Uncounts one layer's span `(a, b)`; returns whether its express link
    /// vanished (no other layer encodes it).
    fn remove_span(&mut self, a: usize, b: usize) -> bool {
        if b - a < 2 {
            return false;
        }
        let count = &mut self.spans[a * self.n + b];
        debug_assert!(*count > 0, "removed span ({a}, {b}) was present");
        *count -= 1;
        if *count == 0 {
            self.out[a] &= !(1 << b);
        }
        *count == 0
    }
}

impl MoveEvaluator for IncrementalAllPairs {
    fn objective(&self) -> f64 {
        // `monotone_all_pairs_sum` doubles the forward triangle
        // (d(i→j) == d(j→i) on bidirectional links) into one u64 before the
        // single f64 division; d(i, j) = T_r·H(i, j) + T_l·(j − i).
        let forward = self.weights.router_cycles as u64 * self.total_hops
            + self.weights.unit_link_cycles as u64 * self.segments;
        (2 * forward) as f64 / (self.n * self.n) as f64
    }

    fn flip(&mut self, bit: usize) -> f64 {
        self.flip_links(bit);
        self.objective()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{AllPairsObjective, Objective};
    use noc_rng::rngs::SmallRng;
    use noc_rng::{Rng, SeedableRng};

    fn assert_tracks_full(matrix: &mut ConnectionMatrix, flips: &[usize]) {
        let full = AllPairsObjective::paper();
        let mut inc = IncrementalAllPairs::try_new(matrix, HopWeights::PAPER).unwrap();
        assert_eq!(
            inc.objective().to_bits(),
            full.eval(&matrix.decode()).to_bits(),
            "initial state"
        );
        for (step, &bit) in flips.iter().enumerate() {
            matrix.flip_flat(bit);
            let fast = inc.flip(bit);
            let slow = full.eval(&matrix.decode());
            assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "step {step}: flip {bit} gave {fast}, full evaluator {slow}"
            );
        }
    }

    #[test]
    fn matches_full_on_systematic_single_flips() {
        for (n, c) in [(4usize, 2usize), (6, 3), (8, 4), (8, 2)] {
            let mut matrix = ConnectionMatrix::new(n, c);
            let flips: Vec<usize> = (0..matrix.bit_count()).collect();
            assert_tracks_full(&mut matrix, &flips);
        }
    }

    #[test]
    fn matches_full_on_long_random_walks() {
        let mut rng = SmallRng::seed_from_u64(0xF11F);
        for (n, c) in [(8usize, 4usize), (12, 3), (16, 8)] {
            let mut matrix = ConnectionMatrix::new(n, c);
            let bits = matrix.bit_count();
            let flips: Vec<usize> = (0..200).map(|_| rng.gen_range(0..bits)).collect();
            assert_tracks_full(&mut matrix, &flips);
        }
    }

    #[test]
    fn flip_is_an_involution() {
        let mut matrix = ConnectionMatrix::new(8, 4);
        // Scramble, then check flip/unflip restores the objective bits.
        let mut inc = IncrementalAllPairs::try_new(&matrix, HopWeights::PAPER).unwrap();
        for bit in [0usize, 7, 3, 12] {
            matrix.flip_flat(bit);
            inc.flip(bit);
        }
        let before = inc.objective().to_bits();
        for bit in 0..matrix.bit_count() {
            inc.flip(bit);
            let restored = inc.flip(bit);
            assert_eq!(restored.to_bits(), before, "bit {bit}");
        }
    }

    #[test]
    fn custom_weights_are_respected() {
        let weights = HopWeights {
            router_cycles: 5,
            unit_link_cycles: 2,
        };
        let full = AllPairsObjective::with_weights(weights);
        let mut matrix = ConnectionMatrix::new(8, 3);
        let mut inc = IncrementalAllPairs::try_new(&matrix, weights).unwrap();
        for bit in 0..matrix.bit_count() {
            matrix.flip_flat(bit);
            assert_eq!(
                inc.flip(bit).to_bits(),
                full.eval(&matrix.decode()).to_bits()
            );
        }
    }

    #[test]
    fn flips_report_the_distinct_links_they_change() {
        // Connecting router 3 in layer 0 of P(8, 3) joins the unit spans
        // [2, 3] and [3, 4] into the express link (2, 4). Connecting it in
        // layer 1 too encodes the same span again: no distinct link changes.
        let mut matrix = ConnectionMatrix::new(8, 3);
        let mut inc = IncrementalAllPairs::try_new(&matrix, HopWeights::PAPER).unwrap();
        let points = matrix.points();
        let merge = inc.flip_links(2);
        matrix.flip_flat(2);
        assert_eq!(
            merge.as_slice(),
            &[LinkChange {
                a: 2,
                b: 4,
                added: true
            }]
        );
        let duplicate = inc.flip_links(points + 2);
        matrix.flip_flat(points + 2);
        assert!(duplicate.as_slice().is_empty());
        assert_eq!(
            inc.objective().to_bits(),
            AllPairsObjective::paper().eval(&matrix.decode()).to_bits()
        );
    }

    #[test]
    fn takes_rows_up_to_the_mask_width_and_the_u32_distances() {
        let takes = |n, weights| {
            IncrementalAllPairs::try_new(&ConnectionMatrix::new(n, 2), weights).is_some()
        };
        assert!(takes(64, HopWeights::PAPER));
        assert!(!takes(65, HopWeights::PAPER));
        let huge = HopWeights {
            router_cycles: u32::MAX / 2,
            unit_link_cycles: 1,
        };
        assert!(takes(2, huge));
        assert!(!takes(3, huge));
    }
}
