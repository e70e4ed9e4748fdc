//! The connection-matrix solution space (§4.4.2 of the paper).
//!
//! For the one-dimensional problem `P̂(n, C)` the paper defines a binary
//! matrix `M` of size `(n-2) × (C-1)`: one row of *connection points* per
//! express-link layer (one of the `C` layers is reserved for the implicit
//! local links). The connection point of layer `l` at interior router `r`
//! says whether the wire segments on both sides of router `r` in that layer
//! are joined into one longer link.
//!
//! Decoding a layer walks its connection points: maximal runs of connected
//! interior points delimit *spans* between boundary routers; every span of
//! length ≥ 2 becomes an express link, while unit spans are dropped (they
//! would merely duplicate the local link — this is why the paper's optimal
//! `P̂(8,4)` uses only 3 of the 4 allowed links at the edge cross-sections,
//! §5.4).
//!
//! Two properties make this encoding the right SA search space:
//!
//! 1. **Validity by construction** — every matrix decodes to a placement that
//!    contains all local links and respects every cross-section limit,
//!    because a layer contributes at most one wire to any cut.
//! 2. **Completeness** — every valid placement is the decoding of at least
//!    one matrix ([`ConnectionMatrix::encode`] exhibits one via greedy
//!    interval colouring), so single-bit flips keep the whole valid space
//!    probabilistically reachable.

use crate::error::TopologyError;
use crate::row::RowPlacement;

/// Largest link limit `C` that service requests and scenario manifests may
/// ask for: ⌊64²/4⌋, the widest cross-section a row of 64 routers (the
/// largest row either accepts) can have, so no placement is out of reach.
/// [`ConnectionMatrix::new`] allocates `(C-1)·(n-2)` bits, so an unbounded
/// `C` from outside the program could exhaust memory.
pub const MAX_C: usize = 1024;

/// Binary connection matrix for `P̂(n, C)`: `(C-1)` layers × `(n-2)` interior
/// connection points.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConnectionMatrix {
    n: usize,
    c_limit: usize,
    /// Row-major bits: `bits[layer * points + point]`, where `point` `p`
    /// refers to interior router `p + 1`.
    bits: Vec<bool>,
}

impl ConnectionMatrix {
    /// All-disconnected matrix for a row of `n` routers with link limit `C`
    /// (decodes to the plain mesh row).
    ///
    /// # Panics
    /// Panics if `n < 2` or `c_limit < 1`.
    pub fn new(n: usize, c_limit: usize) -> Self {
        assert!(n >= 2, "a row needs at least 2 routers");
        assert!(c_limit >= 1, "link limit C must be >= 1");
        let layers = c_limit - 1;
        let points = n.saturating_sub(2);
        ConnectionMatrix {
            n,
            c_limit,
            bits: vec![false; layers * points],
        }
    }

    /// Builds a matrix from explicit bits (row-major, `(C-1) × (n-2)`).
    pub fn from_bits(n: usize, c_limit: usize, bits: Vec<bool>) -> Result<Self, TopologyError> {
        if n < 2 {
            return Err(TopologyError::RowTooSmall { n });
        }
        if c_limit < 1 {
            return Err(TopologyError::InvalidLinkLimit { limit: c_limit });
        }
        let expected = (c_limit - 1) * n.saturating_sub(2);
        if bits.len() != expected {
            return Err(TopologyError::MismatchedRowLength {
                expected,
                got: bits.len(),
            });
        }
        Ok(ConnectionMatrix { n, c_limit, bits })
    }

    /// Number of routers on the row.
    pub fn routers(&self) -> usize {
        self.n
    }

    /// Link limit `C` this matrix was built for.
    pub fn link_limit(&self) -> usize {
        self.c_limit
    }

    /// Row length `n` the matrix encodes placements for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of express-link layers (`C - 1`).
    pub fn layers(&self) -> usize {
        self.c_limit - 1
    }

    /// Number of interior connection points per layer (`n - 2`).
    pub fn points(&self) -> usize {
        self.n.saturating_sub(2)
    }

    /// Total number of connection-point bits — the SA move space size.
    pub fn bit_count(&self) -> usize {
        self.bits.len()
    }

    /// Reads the connection point of `layer` at interior point `point`
    /// (interior router `point + 1`).
    pub fn get(&self, layer: usize, point: usize) -> bool {
        self.bits[self.index(layer, point)]
    }

    /// Sets the connection point of `layer` at `point`.
    pub fn set(&mut self, layer: usize, point: usize, connected: bool) {
        let idx = self.index(layer, point);
        self.bits[idx] = connected;
    }

    /// Flips one connection point — the paper's SA candidate move — and
    /// returns the new value.
    pub fn flip(&mut self, layer: usize, point: usize) -> bool {
        let idx = self.index(layer, point);
        self.bits[idx] = !self.bits[idx];
        self.bits[idx]
    }

    /// Flips the bit at a flat index in `0..bit_count()`.
    pub fn flip_flat(&mut self, index: usize) -> bool {
        assert!(index < self.bits.len(), "flat index out of range");
        self.bits[index] = !self.bits[index];
        self.bits[index]
    }

    fn index(&self, layer: usize, point: usize) -> usize {
        assert!(layer < self.layers(), "layer {layer} out of range");
        assert!(point < self.points(), "point {point} out of range");
        layer * self.points() + point
    }

    /// Decodes the matrix into the express-link placement it represents.
    ///
    /// The result always contains all local links (implicitly) and satisfies
    /// `max_cross_section() <= C`.
    pub fn decode(&self) -> RowPlacement {
        let mut row = RowPlacement::new(self.n);
        let points = self.points();
        for layer in 0..self.layers() {
            // Walk boundary routers: 0, every disconnected interior router,
            // and n-1. Consecutive boundaries delimit one span.
            let mut span_start = 0usize;
            for point in 0..points {
                let router = point + 1;
                if !self.bits[layer * points + point] {
                    if router - span_start >= 2 {
                        row.add_link(span_start, router)
                            .expect("decoded span is a valid express link");
                    }
                    span_start = router;
                }
            }
            if (self.n - 1) - span_start >= 2 {
                row.add_link(span_start, self.n - 1)
                    .expect("decoded span is a valid express link");
            }
        }
        row
    }

    /// Encodes a placement into a connection matrix with the given link
    /// limit, assigning express links to layers by greedy interval colouring.
    ///
    /// Returns `None` if the placement violates the cross-section limit `C`
    /// (more than `C - 1` express links over some cut), since no matrix of
    /// `C - 1` layers can represent it.
    pub fn encode(placement: &RowPlacement, c_limit: usize) -> Option<Self> {
        if c_limit < 1 || !placement.is_within_limit(c_limit) {
            return None;
        }
        let n = placement.len();
        let mut matrix = ConnectionMatrix::new(n, c_limit);
        if matrix.layers() == 0 {
            return if placement.express_count() == 0 {
                Some(matrix)
            } else {
                None
            };
        }
        // Greedy interval colouring: process links sorted by left endpoint
        // (RowPlacement iterates in sorted order); a link fits a layer iff it
        // starts at or after the layer's furthest right endpoint so far.
        // Interval graphs are perfect, so this needs exactly max-overlap
        // layers, which the cross-section check bounds by C - 1.
        let mut layer_end = vec![0usize; matrix.layers()];
        for link in placement.express_links() {
            let layer = (0..layer_end.len()).find(|&l| layer_end[l] <= link.a)?;
            layer_end[layer] = link.b;
            for router in link.a + 1..link.b {
                matrix.set(layer, router - 1, true);
            }
        }
        Some(matrix)
    }

    /// Iterates over the raw bits (row-major).
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_decodes_to_mesh_row() {
        let m = ConnectionMatrix::new(8, 4);
        assert_eq!(m.layers(), 3);
        assert_eq!(m.points(), 6);
        assert_eq!(m.bit_count(), 18);
        assert_eq!(m.decode(), RowPlacement::new(8));
    }

    #[test]
    fn c_equal_one_has_no_layers() {
        let m = ConnectionMatrix::new(8, 1);
        assert_eq!(m.layers(), 0);
        assert_eq!(m.bit_count(), 0);
        assert_eq!(m.decode(), RowPlacement::new(8));
    }

    #[test]
    fn decode_paper_figure_2_top_layer() {
        // Fig. 2(a) top layer: connection point at router 3 (1-indexed)
        // connected -> express link routers 2..4; points at 5, 6, 7
        // connected -> express link routers 4..8. 0-indexed: points at
        // routers 2, 4, 5, 6 => interior point indices 1, 3, 4, 5.
        let mut m = ConnectionMatrix::new(8, 2);
        m.set(0, 1, true);
        m.set(0, 3, true);
        m.set(0, 4, true);
        m.set(0, 5, true);
        let decoded = m.decode();
        let expected = RowPlacement::with_links(8, [(1, 3), (3, 7)]).unwrap();
        assert_eq!(decoded, expected);
    }

    #[test]
    fn unit_spans_are_dropped() {
        // Layer with all points disconnected: spans are all unit length,
        // so the layer contributes nothing.
        let m = ConnectionMatrix::new(8, 3);
        assert_eq!(m.decode().express_count(), 0);

        // A single connected point in the middle creates exactly one
        // length-2 link; the surrounding unit spans disappear.
        let mut m = ConnectionMatrix::new(8, 2);
        m.set(0, 2, true); // interior router 3 -> link (2, 4)
        let decoded = m.decode();
        assert_eq!(decoded.express_count(), 1);
        assert!(decoded.has_express(2, 4));
    }

    #[test]
    fn all_connected_layer_spans_whole_row() {
        let mut m = ConnectionMatrix::new(6, 2);
        for p in 0..m.points() {
            m.set(0, p, true);
        }
        let decoded = m.decode();
        assert_eq!(decoded.express_count(), 1);
        assert!(decoded.has_express(0, 5));
    }

    #[test]
    fn decode_always_within_limit() {
        // Exhaustive over every matrix for a small instance.
        let n = 6;
        let c = 3;
        let nbits = (c - 1) * (n - 2);
        for word in 0..(1usize << nbits) {
            let bits: Vec<bool> = (0..nbits).map(|i| word >> i & 1 == 1).collect();
            let m = ConnectionMatrix::from_bits(n, c, bits).unwrap();
            let row = m.decode();
            assert!(
                row.is_within_limit(c),
                "matrix {word:#b} decoded out of limit: {row:?}"
            );
        }
    }

    #[test]
    fn encode_round_trips() {
        let row =
            RowPlacement::with_links(8, [(1, 3), (3, 7), (0, 3), (3, 6), (0, 2), (4, 7)]).unwrap();
        let m = ConnectionMatrix::encode(&row, 4).expect("placement fits C = 4");
        assert_eq!(m.decode(), row);
    }

    #[test]
    fn encode_rejects_overfull_placements() {
        let row = RowPlacement::with_links(6, [(0, 2), (0, 3), (0, 4)]).unwrap();
        // Cut 1 has 4 links but C = 3 allows only 3.
        assert!(ConnectionMatrix::encode(&row, 3).is_none());
        assert!(ConnectionMatrix::encode(&row, 4).is_some());
    }

    #[test]
    fn encode_adjacent_links_share_a_layer() {
        // (0,2) and (2,4) touch at router 2 but do not overlap any cut, so
        // one layer suffices.
        let row = RowPlacement::with_links(5, [(0, 2), (2, 4)]).unwrap();
        let m = ConnectionMatrix::encode(&row, 2).expect("C = 2 is enough");
        assert_eq!(m.decode(), row);
    }

    #[test]
    fn flip_round_trips() {
        let mut m = ConnectionMatrix::new(8, 4);
        assert!(m.flip(1, 2));
        assert!(m.get(1, 2));
        assert!(!m.flip(1, 2));
        assert_eq!(m, ConnectionMatrix::new(8, 4));
    }

    #[test]
    fn from_bits_validates_dimensions() {
        assert!(ConnectionMatrix::from_bits(8, 4, vec![false; 18]).is_ok());
        assert!(matches!(
            ConnectionMatrix::from_bits(8, 4, vec![false; 17]),
            Err(TopologyError::MismatchedRowLength { .. })
        ));
        assert!(matches!(
            ConnectionMatrix::from_bits(8, 0, vec![]),
            Err(TopologyError::InvalidLinkLimit { .. })
        ));
    }
}
