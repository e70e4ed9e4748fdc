//! Incremental objective evaluation for the SA inner loop and the link
//! searches.
//!
//! Every annealing move flips one bit of the connection matrix, and every
//! candidate of greedy insertion, the D&C combination step and the
//! branch-and-bound differs from a link set by links, yet the full
//! evaluator decodes a placement and re-solves all `n²` pairs. This module
//! scores them from hop counts instead, kept as one row of `u8` hop counts
//! per router ([`HopRows`]), and recomputes only the rows a change
//! reaches.
//!
//! **Hop counts carry the objective.** A U-turn-free path from `i` to
//! `j > i` visits strictly increasing routers (see
//! [`noc_routing::monotone`]), so its links tile `[i, j]` and it crosses
//! exactly `j − i` unit link segments, whatever its route. Its cost is
//! `T_r·hops + T_l·(j − i)`, so the shortest distance is
//! `d(i, j) = T_r·H(i, j) + T_l·(j − i)` with `H` the fewest hops, and the
//! forward pairs sum to `T_r·ΣH + T_l·n(n²−1)/6`. That is the same `u64`
//! the monotone DP sums ([`noc_routing::monotone::monotone_all_pairs_sum`])
//! whenever no distance reaches past the DP's "no path" cap
//! [`noc_routing::INF`] (which [`HopRows::try_new`] checks), and the
//! objective divides it
//! by `n²` in the same single `f64` division. The incremental objective is
//! therefore **bit-identical** to the full evaluator: the annealer takes
//! the same accept/reject branches, consumes the same RNG stream, and
//! lands on the same result either way. [`anneal`] keeps a
//! `debug_assertions` cross-check of this invariant on every move.
//!
//! **One interface.** Every search drives the rows through
//! [`LinkEvaluator`] with the express links that appear or vanish, as
//! [`LinkChange`]s. An annealing flip is at most three of them, which
//! [`FlipLinks`] reports; a greedy or D&C candidate is one, added, read
//! and removed again; the branch-and-bound replaces the whole set.
//!
//! **Which links change.** Flipping the connection point of layer `l` at
//! interior router `r` merges the two spans of that layer meeting at `r`
//! into one, or splits one back into two. With `a` and `b` the span
//! boundaries next to `r` in that layer, only the links `(a, r)`, `(r, b)`
//! and `(a, b)` can appear or vanish, and only when no other layer
//! encodes the same span.
//!
//! **Which rows change.** Row `i` holds `H(i, j)` for every `j`: `0` at
//! `j = i`, and `u8::MAX` where `j` is unreachable (left of `i`, and the
//! padding). A forward path leaves `i` by one of its out-links, so
//! `H(i, ·) = min` over out-links `i → k` of `1 + H(k, ·)`, the add
//! saturating at `u8::MAX`. A row can change only if one of its own
//! out-links changed, which makes it the left endpoint of a changed link,
//! or if a row it links into changed. [`LinkEvaluator::apply`] sets or
//! clears the mask bits of every change, then walks right to left once:
//! it recomputes the left endpoints of the changed links, then every row
//! with an out-link into a row that came out different. Every out-link
//! points right, so each row is recomputed at most once, after all the
//! rows it reads. A row that comes out equal to its old value changes
//! nothing left of it. The annealer undoes a rejected move by flipping
//! the same bit again, which recomputes the same rows once more.
//!
//! **Row width.** A row is `n` rounded up to 32 or 64 entries, a width
//! [`HopRows::try_new`] picks from `n` and the compiler sees as a
//! constant, so recomputing a row is a few vector `min`s. Each row is
//! aligned to its width, so no row load crosses a 64-byte line. A
//! 16-entry width for rows of up to 16 routers measured slower than 32:
//! the compiler splits its rows into 8- and 4-byte pieces.
//! Rows of more than [`MAX_ROUTERS`] routers do not fit the widest row
//! or the `u64` link masks; [`HopRows::try_new`] and so
//! [`Objective::link_evaluator`] return `None` for them, and the annealer
//! and the searches evaluate their candidates in full.
//!
//! [`anneal`]: crate::sa::anneal
//! [`Objective::link_evaluator`]: crate::objective::Objective::link_evaluator
//!
//! # Example
//!
//! ```
//! use noc_placement::incremental::FlipLinks;
//! use noc_placement::objective::{AllPairsObjective, Objective};
//! use noc_topology::ConnectionMatrix;
//!
//! let full = AllPairsObjective::paper();
//! let mut matrix = ConnectionMatrix::new(8, 4);
//! let mut links = FlipLinks::try_new(&matrix).unwrap();
//! let mut rows = full.link_evaluator(&matrix.decode()).unwrap();
//! assert_eq!(rows.objective(), full.eval(&matrix.decode())); // mesh row: 10.5
//!
//! // Flip a few bits; the rows track the full evaluator.
//! for bit in [0usize, 5, 11, 5] {
//!     matrix.flip_flat(bit);
//!     rows.apply(links.flip(bit).as_slice());
//!     assert_eq!(rows.objective().to_bits(), full.eval(&matrix.decode()).to_bits());
//! }
//! ```

use noc_routing::{HopWeights, INF};
use noc_topology::{ConnectionMatrix, Link, RowPlacement};

/// A stateful evaluator that tracks the objective of an express-link set
/// under changes to that set.
///
/// The annealer and the searches obtain one through
/// [`Objective::link_evaluator`](crate::objective::Objective::link_evaluator).
/// The annealer applies the links each bit flip changes, as [`FlipLinks`]
/// reports them, and undoes a rejected flip by applying the same bit's
/// changes again. The searches score a candidate link by adding it,
/// reading the objective and removing it again, and keep the evaluator in
/// step with the links they commit.
pub trait LinkEvaluator: Send {
    /// Objective value of the tracked link set. Must be bit-identical to
    /// the owning [`Objective`]'s `eval` of that placement.
    ///
    /// [`Objective`]: crate::objective::Objective
    fn objective(&self) -> f64;

    /// Adds every link of `changes` marked added, absent from the tracked
    /// set, and removes every other one, present in it.
    fn apply(&mut self, changes: &[LinkChange]);

    /// Replaces the tracked set by the distinct express links `links`.
    fn set_links(&mut self, links: &[Link]);
}

/// Longest row [`HopRows`] and [`FlipLinks`] take: one `u64` mask per
/// router and one hop-count row of at most 64 entries.
pub const MAX_ROUTERS: usize = 64;

/// One distinct express link that appears or vanishes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkChange {
    /// Left endpoint.
    pub a: usize,
    /// Right endpoint.
    pub b: usize,
    /// Whether the link appears (otherwise it vanishes).
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

/// A hop-count row `W` entries wide, aligned like its marker `A` to its
/// own width, so no vector load of a row straddles a 64-byte line. A
/// plain `[u8; W]` has alignment 1 and lands wherever the allocator puts
/// the buffer, which differed for every evaluator built (DESIGN.md §9).
#[derive(Debug, Clone, Copy)]
struct Row<const W: usize, A> {
    hops: [u8; W],
    _align: [A; 0],
}

/// Aligns a 32-entry row to 32 bytes.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct Align32;

/// Aligns a 64-entry row to a 64-byte line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Align64;

/// The hop-count rows `H(i, ·)`, one per router: 32 entries wide for
/// rows of up to 32 routers, 64 for longer ones.
#[derive(Debug, Clone)]
enum Rows {
    W32(Vec<Row<32, Align32>>),
    W64(Vec<Row<64, Align64>>),
}

/// `LONE[64 - i..][..W]` is the row in which router `i` reaches only
/// itself. A recomputed row takes its own `0` from it by a vector `min`;
/// a byte store at the variable index `i` compiled to byte-by-byte code.
static LONE: [u8; 2 * MAX_ROUTERS] = {
    let mut row = [u8::MAX; 2 * MAX_ROUTERS];
    row[MAX_ROUTERS] = 0;
    row
};

/// The row, `W` entries wide, in which router `i` reaches only itself.
fn lone<const W: usize>(i: usize) -> [u8; W] {
    LONE[MAX_ROUTERS - i..][..W]
        .try_into()
        .expect("a row is W entries")
}

/// The lone rows of routers `0..n`.
fn lone_rows<const W: usize, A>(n: usize) -> Vec<Row<W, A>> {
    let row = |i| Row {
        hops: lone(i),
        _align: [],
    };
    (0..n).map(row).collect()
}

/// Recomputes the rows in `dirty`, and every row with an out-link into a
/// row that changed, right to left; moves `total` by each changed row's
/// new sum minus its old.
fn rescore<const W: usize, A: Copy>(
    rows: &mut [Row<W, A>],
    out: &[u64; MAX_ROUTERS],
    inbound: &[u64; MAX_ROUTERS],
    mut dirty: u64,
    total: &mut u64,
) {
    while dirty != 0 {
        let i = 63 - dirty.leading_zeros() as usize;
        dirty ^= 1 << i;
        let old = rows[i].hops;
        // The row is built in place: an accumulator carried through the
        // link loop in a local compiles to byte-by-byte code. Every row
        // but the last links to the next router.
        rows[i].hops = rows[i + 1].hops;
        let mut links = out[i] & (out[i] - 1);
        while links != 0 {
            let via = rows[links.trailing_zeros() as usize].hops;
            links &= links - 1;
            for (h, v) in rows[i].hops.iter_mut().zip(via) {
                *h = (*h).min(v);
            }
        }
        for (h, own) in rows[i].hops.iter_mut().zip(lone::<W>(i)) {
            *h = h.saturating_add(1).min(own);
        }
        if rows[i].hops != old {
            // The unreachable entries are the same in both rows.
            *total = *total + row_sum(&rows[i].hops) - row_sum(&old);
            dirty |= inbound[i];
        }
    }
}

/// The sum of a row's entries, unreachable ones included.
fn row_sum<const W: usize>(row: &[u8; W]) -> u64 {
    row.iter().map(|&h| u32::from(h)).sum::<u32>() as u64
}

/// The hop-count rows of one link set: `H(i, ·)` per router, the links as
/// out- and in-masks per router, and `ΣH` over the forward pairs.
///
/// This is the one kernel behind the all-pairs objective's
/// [`LinkEvaluator`], for the annealer ([`anneal`]) and for the searches
/// that score link sets ([`greedy_solution`], [`initial_solution`],
/// [`exhaustive_optimal`]). Applying link changes sets or clears their
/// mask bits and recomputes their left endpoints' rows, then every row
/// that reaches a row that changed.
///
/// [`anneal`]: crate::sa::anneal
/// [`greedy_solution`]: crate::greedy::greedy_solution
/// [`initial_solution`]: crate::dnc::initial_solution
/// [`exhaustive_optimal`]: crate::bb::exhaustive_optimal
#[derive(Debug, Clone)]
pub struct HopRows {
    n: usize,
    weights: HopWeights,
    /// Routers `0..n` as a mask.
    row: u64,
    /// `Σ_{i<j} (j − i)`: unit link segments over the forward pairs.
    segments: u64,
    /// `out[k]`: bit `j` set when the row has a link `k → j`, local or
    /// express.
    out: [u64; MAX_ROUTERS],
    /// `inbound[j]`: bit `k` set when the row has a link `k → j`.
    inbound: [u64; MAX_ROUTERS],
    /// `H(i, j)` at `rows[i][j]`.
    rows: Rows,
    /// `Σ_{i<j} H(i, j)`.
    total_hops: u64,
}

impl HopRows {
    /// The rows of `placement`'s link set, built in one right-to-left
    /// pass, or `None` where they would not reproduce the full evaluator
    /// bit for bit: rows of more than [`MAX_ROUTERS`] routers, and weights
    /// under which a path's cost, at most `(n − 1)·(T_r + T_l)`, exceeds
    /// [`INF`], the "no path" value at which the full evaluator's DP caps
    /// its `u32` distances.
    pub fn try_new(placement: &RowPlacement, weights: HopWeights) -> Option<Self> {
        let n = placement.len();
        let per_segment = weights.router_cycles as u64 + weights.unit_link_cycles as u64;
        if n > MAX_ROUTERS || (n as u64 - 1) * per_segment > INF as u64 {
            return None;
        }
        let n64 = n as u64;
        let mut hops = HopRows {
            n,
            weights,
            row: u64::MAX >> (MAX_ROUTERS - n),
            segments: n64 * (n64 * n64 - 1) / 6,
            out: [0; MAX_ROUTERS],
            inbound: [0; MAX_ROUTERS],
            // Every row reaches only its own router until the first
            // rescore.
            rows: if n <= 32 {
                Rows::W32(lone_rows(n))
            } else {
                Rows::W64(lone_rows(n))
            },
            total_hops: u8::MAX as u64 * n64 * (n64 - 1) / 2,
        };
        hops.set_links(placement.express_links());
        Some(hops)
    }

    /// Replaces the link set by the distinct express links `links`, and
    /// recomputes every row in one right-to-left pass. The last row has
    /// no out-link: it stays as it is.
    pub fn set_links(&mut self, links: impl IntoIterator<Item = Link>) {
        self.out = [0; MAX_ROUTERS];
        self.inbound = [0; MAX_ROUTERS];
        for k in 0..self.n - 1 {
            self.toggle(k, k + 1);
        }
        for link in links {
            self.toggle(link.a, link.b);
        }
        self.rescore(self.row >> 1);
    }

    /// Sets or clears the mask bits of link `(a, b)`; the rows are stale
    /// until [`rescore`](Self::rescore) of row `a`.
    fn toggle(&mut self, a: usize, b: usize) {
        self.out[a] ^= 1 << b;
        self.inbound[b] ^= 1 << a;
    }

    /// Brings the rows up to date after the out-links of the rows in
    /// `dirty` changed.
    fn rescore(&mut self, dirty: u64) {
        let (out, inbound, total) = (&self.out, &self.inbound, &mut self.total_hops);
        match &mut self.rows {
            Rows::W32(rows) => rescore(rows, out, inbound, dirty, total),
            Rows::W64(rows) => rescore(rows, out, inbound, dirty, total),
        }
    }
}

impl LinkEvaluator for HopRows {
    /// Mean segment latency over all `n²` ordered pairs, bit-identical to
    /// [`AllPairsObjective`](crate::objective::AllPairsObjective)'s `eval`
    /// of the link set.
    fn objective(&self) -> f64 {
        // `monotone_all_pairs_sum` doubles the forward triangle
        // (d(i→j) == d(j→i) on bidirectional links) into one u64 before the
        // single f64 division; d(i, j) = T_r·H(i, j) + T_l·(j − i).
        let forward = self.weights.router_cycles as u64 * self.total_hops
            + self.weights.unit_link_cycles as u64 * self.segments;
        (2 * forward) as f64 / (self.n * self.n) as f64
    }

    /// Sets or clears every change's mask bits, then recomputes once from
    /// all their left endpoints: one right-to-left pass per flip.
    fn apply(&mut self, changes: &[LinkChange]) {
        let mut dirty = 0;
        for change in changes {
            let (a, b) = (change.a, change.b);
            debug_assert_eq!(
                self.out[a] & (1 << b) == 0,
                change.added,
                "link ({a}, {b}) added while present or removed while absent"
            );
            self.toggle(a, b);
            dirty |= 1 << a;
        }
        self.rescore(dirty);
    }

    fn set_links(&mut self, links: &[Link]) {
        HopRows::set_links(self, links.iter().copied());
    }
}

/// The distinct express links a connection matrix encodes, tracked under
/// single-bit flips: what the annealer feeds its [`LinkEvaluator`].
///
/// Holds the connection points of each layer as a mask and the
/// multiplicity of every span across layers. [`flip`](Self::flip) finds
/// the span boundaries next to the flipped point with two bit scans and
/// reports the distinct links that appeared or vanished, which is none
/// when every span it touched is a unit span or another layer encodes it
/// too.
#[derive(Debug, Clone)]
pub struct FlipLinks {
    n: usize,
    points: usize,
    /// Routers `0..n` as a mask.
    row: u64,
    /// `layers[l]`: bit `r` set when interior router `r` is a connection
    /// point of layer `l`.
    layers: Vec<u64>,
    /// Layers encoding span `(a, b)`, `b − a ≥ 2`, at `a·n + b`. A link
    /// exists while its count is non-zero.
    spans: Vec<u32>,
}

impl FlipLinks {
    /// Tracks the links `matrix` encodes, or `None` for rows of more than
    /// [`MAX_ROUTERS`] routers, whose layers do not fit a `u64` mask.
    pub fn try_new(matrix: &ConnectionMatrix) -> Option<Self> {
        let n = matrix.routers();
        if n > MAX_ROUTERS {
            return None;
        }
        let points = matrix.points();
        let mut links = FlipLinks {
            n,
            points,
            row: u64::MAX >> (MAX_ROUTERS - n),
            layers: vec![0; matrix.layers()],
            spans: vec![0; n * n],
        };
        for layer in 0..matrix.layers() {
            let mut span_start = 0;
            for point in 0..points {
                let router = point + 1;
                if matrix.get(layer, point) {
                    links.layers[layer] |= 1 << router;
                } else {
                    links.add_span(span_start, router);
                    span_start = router;
                }
            }
            links.add_span(span_start, n - 1);
        }
        Some(links)
    }

    /// Applies one bit flip (flat index as in
    /// [`ConnectionMatrix::flip_flat`]) and returns the distinct express
    /// links it added or removed. Flipping the same bit again restores
    /// the previous state and reports the opposite changes.
    pub fn flip(&mut self, bit: usize) -> LinkChanges {
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
        changes
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
        *count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{AllPairsObjective, Objective};
    use noc_rng::rngs::SmallRng;
    use noc_rng::{Rng, SeedableRng};

    /// The flip tracker of `matrix` and the rows it drives, as the
    /// annealer holds them.
    fn tracked(matrix: &ConnectionMatrix, weights: HopWeights) -> (FlipLinks, HopRows) {
        let links = FlipLinks::try_new(matrix).unwrap();
        (links, HopRows::try_new(&matrix.decode(), weights).unwrap())
    }

    /// Flips `bit` in the tracker, applies its changes to the rows in one
    /// call, and returns the new objective.
    fn flip(links: &mut FlipLinks, rows: &mut HopRows, bit: usize) -> f64 {
        rows.apply(links.flip(bit).as_slice());
        rows.objective()
    }

    fn assert_tracks_full(matrix: &mut ConnectionMatrix, flips: &[usize]) {
        let full = AllPairsObjective::paper();
        let (mut links, mut rows) = tracked(matrix, HopWeights::PAPER);
        assert_eq!(
            rows.objective().to_bits(),
            full.eval(&matrix.decode()).to_bits(),
            "initial state"
        );
        for (step, &bit) in flips.iter().enumerate() {
            matrix.flip_flat(bit);
            let fast = flip(&mut links, &mut rows, bit);
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
        let (mut links, mut rows) = tracked(&matrix, HopWeights::PAPER);
        for bit in [0usize, 7, 3, 12] {
            matrix.flip_flat(bit);
            flip(&mut links, &mut rows, bit);
        }
        let before = rows.objective().to_bits();
        for bit in 0..matrix.bit_count() {
            flip(&mut links, &mut rows, bit);
            let restored = flip(&mut links, &mut rows, bit);
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
        let (mut links, mut rows) = tracked(&matrix, weights);
        for bit in 0..matrix.bit_count() {
            matrix.flip_flat(bit);
            assert_eq!(
                flip(&mut links, &mut rows, bit).to_bits(),
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
        let (mut links, mut rows) = tracked(&matrix, HopWeights::PAPER);
        let points = matrix.points();
        let merge = links.flip(2);
        rows.apply(merge.as_slice());
        matrix.flip_flat(2);
        assert_eq!(
            merge.as_slice(),
            &[LinkChange {
                a: 2,
                b: 4,
                added: true
            }]
        );
        let duplicate = links.flip(points + 2);
        matrix.flip_flat(points + 2);
        assert!(duplicate.as_slice().is_empty());
        assert_eq!(
            rows.objective().to_bits(),
            AllPairsObjective::paper().eval(&matrix.decode()).to_bits()
        );
    }

    #[test]
    fn takes_rows_up_to_the_mask_width_and_the_dp_distance_cap() {
        let takes = |n, weights| HopRows::try_new(&RowPlacement::new(n), weights).is_some();
        assert!(takes(64, HopWeights::PAPER));
        assert!(!takes(65, HopWeights::PAPER));
        assert!(FlipLinks::try_new(&ConnectionMatrix::new(64, 2)).is_some());
        assert!(FlipLinks::try_new(&ConnectionMatrix::new(65, 2)).is_none());
        // The full evaluator's DP caps a distance at `INF`, not at
        // `u32::MAX`: a path cost of `INF` still reads the same on both
        // paths, one cycle more does not.
        let per_segment = |cycles: u32| HopWeights {
            router_cycles: cycles - 1,
            unit_link_cycles: 1,
        };
        let full =
            |n, weights| AllPairsObjective::with_weights(weights).eval(&RowPlacement::new(n));
        for (n, cap) in [(2usize, INF), (3, INF / 2)] {
            assert!(takes(n, per_segment(cap)), "n = {n}");
            let rows = HopRows::try_new(&RowPlacement::new(n), per_segment(cap));
            assert_eq!(
                rows.unwrap().objective().to_bits(),
                full(n, per_segment(cap)).to_bits(),
                "n = {n}"
            );
            assert!(!takes(n, per_segment(cap + 1)), "n = {n}");
        }
        // Past the cap the DP reads `INF`, where the rows' exact sum would
        // read one cycle more.
        assert_eq!(
            full(2, per_segment(INF + 1)).to_bits(),
            full(2, per_segment(INF)).to_bits()
        );
    }

    /// `H(i, j)` as the rows hold it.
    fn hops(rows: &HopRows, i: usize, j: usize) -> u8 {
        match &rows.rows {
            Rows::W32(rows) => rows[i].hops[j],
            Rows::W64(rows) => rows[i].hops[j],
        }
    }

    /// Every forward `H(i, j)` of `rows` against the monotone DP's hop
    /// counts on `placement`, and the objective against the full
    /// evaluator's, bit for bit.
    fn assert_link_rows_match(rows: &HopRows, placement: &RowPlacement, what: &str) {
        let n = placement.len();
        let apsp = noc_routing::monotone::monotone_apsp(placement, HopWeights::PAPER);
        for i in 0..n {
            for j in i..n {
                assert_eq!(
                    u32::from(hops(rows, i, j)),
                    apsp.hops(i, j),
                    "{what}: H({i}, {j}), n = {n}"
                );
            }
        }
        assert_eq!(
            rows.objective().to_bits(),
            AllPairsObjective::paper().eval(placement).to_bits(),
            "{what}: objective, n = {n}"
        );
    }

    #[test]
    fn link_additions_and_removals_track_the_full_evaluator() {
        // Toggle random express links one at a time, so every step adds or
        // removes one, on rows of both widths; every few steps, rebuild
        // from the whole set.
        let mut rng = SmallRng::seed_from_u64(0x11A4);
        for n in [3usize, 4, 12, 32, 33, 64] {
            let mut placement = RowPlacement::new(n);
            let mut rows = HopRows::try_new(&placement, HopWeights::PAPER).unwrap();
            assert_link_rows_match(&rows, &placement, "mesh");
            for step in 0..150 {
                let a = rng.gen_range(0..n - 2);
                let b = rng.gen_range(a + 2..n);
                let added = !placement.remove_link(a, b);
                if added {
                    placement.add_link(a, b).unwrap();
                }
                rows.apply(&[LinkChange { a, b, added }]);
                assert_link_rows_match(&rows, &placement, &format!("step {step}, ({a}, {b})"));
                if step % 10 == 9 {
                    let mut rebuilt =
                        HopRows::try_new(&RowPlacement::new(n), HopWeights::PAPER).unwrap();
                    rebuilt.set_links(placement.express_links());
                    assert_link_rows_match(&rebuilt, &placement, &format!("rebuilt at {step}"));
                }
            }
        }
    }

    #[test]
    fn removing_a_link_restores_every_row() {
        // Removing (2, 4) from the P(8, ·) row must lengthen rows 1 and 0
        // again, not only row 2.
        let mut rows = HopRows::try_new(&RowPlacement::new(8), HopWeights::PAPER).unwrap();
        let mesh = rows.clone();
        let link = |added| [LinkChange { a: 2, b: 4, added }];
        rows.apply(&link(true));
        rows.apply(&link(false));
        for i in 0..8 {
            for j in i..8 {
                assert_eq!(hops(&rows, i, j), hops(&mesh, i, j), "H({i}, {j})");
            }
        }
        assert_eq!(rows.objective().to_bits(), mesh.objective().to_bits());
    }

    /// Checks every forward entry of every row against the hop counts of
    /// the monotone DP's shortest paths.
    fn assert_rows_match_dp(rows: &HopRows, matrix: &ConnectionMatrix, what: &str) {
        let n = matrix.routers();
        let apsp = noc_routing::monotone::monotone_apsp(&matrix.decode(), HopWeights::PAPER);
        for i in 0..n {
            for j in i..n {
                assert_eq!(
                    u32::from(hops(rows, i, j)),
                    apsp.hops(i, j),
                    "{what}: H({i}, {j}) of P({n}, {})",
                    matrix.link_limit()
                );
            }
        }
    }

    #[test]
    fn a_flip_recomputes_every_row_that_reaches_a_changed_row() {
        // Connecting router 3 in layer 0 of the P(8, 3) mesh adds the one
        // link (2, 4). Only row 2 has a new out-link, but rows 1 and 0
        // reach router 4 through router 2, so they shorten too.
        let mut matrix = ConnectionMatrix::new(8, 3);
        let (mut links, mut rows) = tracked(&matrix, HopWeights::PAPER);
        assert_eq!([0, 1, 2].map(|i| hops(&rows, i, 4)), [4, 3, 2]);
        matrix.flip_flat(2);
        flip(&mut links, &mut rows, 2);
        assert_eq!([0, 1, 2].map(|i| hops(&rows, i, 4)), [3, 2, 1]);
        assert_rows_match_dp(&rows, &matrix, "after the flip");
        matrix.flip_flat(2);
        flip(&mut links, &mut rows, 2);
        assert_eq!([0, 1, 2].map(|i| hops(&rows, i, 4)), [4, 3, 2]);
        assert_rows_match_dp(&rows, &matrix, "after the undo");
    }

    #[test]
    fn one_apply_takes_a_flips_changes_at_different_left_endpoints() {
        // One layer of P(8, 2) with routers 2 and 5 unconnected encodes
        // the spans [0, 2], [2, 5] and [5, 7]. Connecting router 2 merges
        // the first two: (0, 2) and (2, 5) vanish and (0, 5) appears, so
        // rows 0 and 2 both lose an out-link. The undo splits them again.
        let mut matrix = ConnectionMatrix::new(8, 2);
        for router in [1, 3, 4, 6] {
            matrix.flip_flat(router - 1);
        }
        let express: Vec<_> = matrix
            .decode()
            .express_links()
            .map(|l| (l.a, l.b))
            .collect();
        assert_eq!(express, [(0, 2), (2, 5), (5, 7)]);
        let (mut links, mut rows) = tracked(&matrix, HopWeights::PAPER);
        let merge = [(0, 2, false), (2, 5, false), (0, 5, true)];
        let split = [(0, 5, false), (0, 2, true), (2, 5, true)];
        for (what, expected) in [("merge", merge), ("split", split)] {
            let changes = links.flip(1);
            matrix.flip_flat(1);
            let reported: Vec<_> = changes
                .as_slice()
                .iter()
                .map(|c| (c.a, c.b, c.added))
                .collect();
            assert_eq!(reported, expected, "{what}");
            rows.apply(changes.as_slice());
            assert_rows_match_dp(&rows, &matrix, what);
            assert_eq!(
                rows.objective().to_bits(),
                AllPairsObjective::paper().eval(&matrix.decode()).to_bits(),
                "{what}"
            );
        }
    }

    #[test]
    fn rows_match_the_dp_at_every_row_width() {
        // Both widths' shortest and longest rows, and a row of the
        // annealer's usual size.
        let mut rng = SmallRng::seed_from_u64(0x0517);
        for (n, c) in [(2usize, 2usize), (12, 4), (32, 8), (33, 8), (64, 8)] {
            let mut matrix = ConnectionMatrix::new(n, c);
            let (mut links, mut rows) = tracked(&matrix, HopWeights::PAPER);
            assert_rows_match_dp(&rows, &matrix, "fresh");
            let bits = matrix.bit_count();
            for step in 0..if bits == 0 { 0 } else { 120 } {
                let bit = rng.gen_range(0..bits);
                matrix.flip_flat(bit);
                flip(&mut links, &mut rows, bit);
                assert_rows_match_dp(&rows, &matrix, &format!("step {step}, flip {bit}"));
            }
        }
    }

    #[test]
    fn rows_are_aligned_to_their_width() {
        assert_eq!(std::mem::size_of::<Row<32, Align32>>(), 32);
        assert_eq!(std::mem::align_of::<Row<32, Align32>>(), 32);
        assert_eq!(std::mem::size_of::<Row<64, Align64>>(), 64);
        assert_eq!(std::mem::align_of::<Row<64, Align64>>(), 64);
        for n in [2usize, 8, 32, 33, 64] {
            let rows = HopRows::try_new(&RowPlacement::new(n), HopWeights::PAPER).unwrap();
            let (start, width) = match &rows.rows {
                Rows::W32(rows) => (rows.as_ptr() as usize, 32),
                Rows::W64(rows) => (rows.as_ptr() as usize, 64),
            };
            assert_eq!(start % width, 0, "n = {n}");
        }
    }
}
