//! Two-dimensional mesh topologies with per-row / per-column express links.
//!
//! The paper's 2D→1D lemma (§4.2) shows that, under dimension-order routing,
//! the optimal 2D placement is obtained by solving the one-dimensional
//! problem once and replicating the resulting [`RowPlacement`] across all `n`
//! rows and all `n` columns. [`MeshTopology`] stores one placement per row
//! and per column so that both the replicated (general-purpose) case and the
//! application-specific case (§5.6.4, distinct placements per row/column) are
//! representable.

use crate::error::TopologyError;
use crate::row::{Link, RowPlacement};

/// A router coordinate on the mesh: `x` is the column, `y` the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column index (0-based, left to right).
    pub x: usize,
    /// Row index (0-based, top to bottom).
    pub y: usize,
}

/// Whether a physical link runs along a row (X dimension) or a column (Y).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// A link within a row, traversed by the X phase of DOR.
    Horizontal,
    /// A link within a column, traversed by the Y phase of DOR.
    Vertical,
}

/// A physical bidirectional link on the 2D mesh, between routers `a` and `b`
/// (flat ids, `a < b`), of Manhattan length `length` unit hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshLink {
    /// Smaller flat router id.
    pub a: usize,
    /// Larger flat router id.
    pub b: usize,
    /// Manhattan length in unit hops (1 for local links).
    pub length: usize,
    /// Row or column link.
    pub orientation: Orientation,
}

/// An `n × n` mesh where every row and every column carries an express-link
/// placement. Routers are numbered row-major: `id = y * n + x`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MeshTopology {
    n: usize,
    rows: Vec<RowPlacement>,
    cols: Vec<RowPlacement>,
}

impl MeshTopology {
    /// Builds a mesh replicating one row placement across all rows and all
    /// columns — the general-purpose construction of the paper's lemma.
    ///
    /// # Panics
    /// Panics if the placement length differs from `n`.
    pub fn uniform(n: usize, placement: &RowPlacement) -> Self {
        assert_eq!(placement.len(), n, "placement length must equal mesh size");
        MeshTopology {
            n,
            rows: vec![placement.clone(); n],
            cols: vec![placement.clone(); n],
        }
    }

    /// A plain `n × n` mesh (local links only).
    pub fn mesh(n: usize) -> Self {
        Self::uniform(n, &RowPlacement::new(n))
    }

    /// Builds a mesh from explicit per-row and per-column placements
    /// (application-specific designs use distinct placements, §5.6.4).
    pub fn from_placements(
        rows: Vec<RowPlacement>,
        cols: Vec<RowPlacement>,
    ) -> Result<Self, TopologyError> {
        let n = rows.len();
        if cols.len() != n || n < 2 {
            return Err(TopologyError::WrongPlacementCount {
                expected: n,
                rows: rows.len(),
                cols: cols.len(),
            });
        }
        for p in rows.iter().chain(cols.iter()) {
            if p.len() != n {
                return Err(TopologyError::MismatchedRowLength {
                    expected: n,
                    got: p.len(),
                });
            }
        }
        Ok(MeshTopology { n, rows, cols })
    }

    /// Mesh side length `n`.
    pub fn side(&self) -> usize {
        self.n
    }

    /// Total number of routers `N = n²`.
    pub fn routers(&self) -> usize {
        self.n * self.n
    }

    /// Flat router id for a coordinate, the inverse of [`Self::coord`]
    /// that tests check.
    #[cfg(test)]
    fn router_id(&self, coord: Coord) -> usize {
        debug_assert!(coord.x < self.n && coord.y < self.n);
        coord.y * self.n + coord.x
    }

    /// Coordinate of a flat router id.
    pub fn coord(&self, id: usize) -> Coord {
        debug_assert!(id < self.routers());
        Coord {
            x: id % self.n,
            y: id / self.n,
        }
    }

    /// The placement on row `y`.
    pub fn row_placement(&self, y: usize) -> &RowPlacement {
        &self.rows[y]
    }

    /// The placement on column `x`.
    pub fn col_placement(&self, x: usize) -> &RowPlacement {
        &self.cols[x]
    }

    /// Iterates over every physical link of the mesh (local + express, rows
    /// then columns) as flat-id [`MeshLink`]s.
    pub fn links(&self) -> impl Iterator<Item = MeshLink> + '_ {
        let horizontal = self.rows.iter().enumerate().flat_map(move |(y, row)| {
            row.all_links().map(move |Link { a, b }| MeshLink {
                a: y * self.n + a,
                b: y * self.n + b,
                length: b - a,
                orientation: Orientation::Horizontal,
            })
        });
        let vertical = self.cols.iter().enumerate().flat_map(move |(x, col)| {
            col.all_links().map(move |Link { a, b }| MeshLink {
                a: a * self.n + x,
                b: b * self.n + x,
                length: b - a,
                orientation: Orientation::Vertical,
            })
        });
        horizontal.chain(vertical)
    }

    /// Total number of physical links.
    pub fn link_count(&self) -> usize {
        self.rows
            .iter()
            .map(RowPlacement::link_count)
            .sum::<usize>()
            + self
                .cols
                .iter()
                .map(RowPlacement::link_count)
                .sum::<usize>()
    }

    /// Number of network ports of router `id` (row degree + column degree,
    /// excluding the local injection/ejection port). Feeds the crossbar power
    /// model (`P ∝ b·k²`, §4.6).
    pub fn degree(&self, id: usize) -> usize {
        let c = self.coord(id);
        self.rows[c.y].degree(c.x) + self.cols[c.x].degree(c.y)
    }

    /// Mean network degree over all routers — the paper's `k_e` (§4.6 notes
    /// `k_e = 3.5` per dimension for the optimal `P̂(8,4)`).
    pub fn mean_degree(&self) -> f64 {
        let total: usize = (0..self.routers()).map(|id| self.degree(id)).sum();
        total as f64 / self.routers() as f64
    }

    /// Maximum cross-section over every cut of every row and column.
    pub fn max_cross_section(&self) -> usize {
        self.rows
            .iter()
            .chain(self.cols.iter())
            .map(RowPlacement::max_cross_section)
            .max()
            .unwrap_or(1)
    }

    /// Validates every row and column against the link limit `C`.
    pub fn validate(&self, c_limit: usize) -> Result<(), TopologyError> {
        for p in self.rows.iter().chain(self.cols.iter()) {
            p.validate(c_limit)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_mesh_counts() {
        let m = MeshTopology::mesh(4);
        assert_eq!(m.routers(), 16);
        // 2 * n * (n-1) local links.
        assert_eq!(m.link_count(), 24);
        assert_eq!(m.max_cross_section(), 1);
        assert!(m.validate(1).is_ok());
        // Corner router: 1 row + 1 col neighbour.
        assert_eq!(m.degree(0), 2);
        // Centre-ish router: 2 + 2.
        assert_eq!(m.degree(m.router_id(Coord { x: 1, y: 1 })), 4);
    }

    #[test]
    fn router_id_round_trips() {
        let m = MeshTopology::mesh(8);
        for id in 0..m.routers() {
            assert_eq!(m.router_id(m.coord(id)), id);
        }
        // Paper Fig. 3: router below the top-left router is id 8 (0-indexed)
        // for an 8-wide mesh (the paper numbers it 9, 1-indexed).
        assert_eq!(m.router_id(Coord { x: 0, y: 1 }), 8);
    }

    #[test]
    fn uniform_replication_applies_to_rows_and_columns() {
        let row = RowPlacement::with_links(4, [(0, 2), (1, 3)]).unwrap();
        let m = MeshTopology::uniform(4, &row);
        // Cut 1 carries the local link plus both express links.
        assert_eq!(m.max_cross_section(), 3);
        // Each of 4 rows and 4 cols has 3 local + 2 express links.
        assert_eq!(m.link_count(), 8 * 5);
        // Horizontal express link on row 2: routers (2*4+0, 2*4+2).
        assert!(m.links().any(|l| l.a == 8
            && l.b == 10
            && l.length == 2
            && l.orientation == Orientation::Horizontal));
        // Vertical express link on column 1: routers (0*4+1, 2*4+1).
        assert!(m.links().any(|l| l.a == 1
            && l.b == 9
            && l.length == 2
            && l.orientation == Orientation::Vertical));
    }

    #[test]
    fn degree_combines_row_and_column() {
        let row = RowPlacement::with_links(4, [(0, 2)]).unwrap();
        let m = MeshTopology::uniform(4, &row);
        // Router (0,0): row degree 2 (local + express), col degree 2.
        assert_eq!(m.degree(0), 4);
        // Router (2,2): row degree 3, col degree 3.
        assert_eq!(m.degree(m.router_id(Coord { x: 2, y: 2 })), 6);
    }

    #[test]
    fn from_placements_validates_shape() {
        let p4 = RowPlacement::new(4);
        let p5 = RowPlacement::new(5);
        assert!(MeshTopology::from_placements(vec![p4.clone(); 4], vec![p4.clone(); 4]).is_ok());
        assert!(matches!(
            MeshTopology::from_placements(vec![p4.clone(); 4], vec![p4.clone(); 3]),
            Err(TopologyError::WrongPlacementCount { .. })
        ));
        assert!(matches!(
            MeshTopology::from_placements(vec![p4.clone(); 4], vec![p5; 4]),
            Err(TopologyError::MismatchedRowLength { .. })
        ));
    }

    #[test]
    fn link_count_matches_iterator() {
        let row = RowPlacement::with_links(8, [(0, 3), (3, 7)]).unwrap();
        let m = MeshTopology::uniform(8, &row);
        assert_eq!(m.link_count(), m.links().count());
    }
}
