//! Two-dimensional route composition under dimension-order routing.
//!
//! A packet from `(sx, sy)` to `(dx, dy)` first travels along row `sy` to the
//! turning-point router `(dx, sy)` using that row's tables, then along column
//! `dx` to the destination (§4.2's proof structure, §4.5.2's router
//! implementation). [`DorRouter`] pre-solves every row and column of a
//! [`MeshTopology`] and answers route/path/latency queries for the simulator,
//! the latency model, and the deadlock checker.

use crate::floyd_warshall::RowApsp;
use crate::monotone::monotone_apsp;
use crate::weights::HopWeights;
use crate::Cycles;
use noc_topology::{Coord, MeshTopology, Orientation};

/// One hop of a 2D route: flat router ids and link geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteHop {
    /// Flat id of the router being left.
    pub from: usize,
    /// Flat id of the router being entered.
    pub to: usize,
    /// Manhattan length of the link.
    pub span: usize,
    /// Dimension the link belongs to.
    pub orientation: Orientation,
}

/// A complete route: the hop sequence from source to destination.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Route {
    /// Hops in traversal order; empty when source == destination.
    pub hops: Vec<RouteHop>,
}

impl Route {
    /// Number of links traversed (`H` in Eq. 1).
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Total Manhattan distance in unit links (`D_M` in Eq. 1).
    pub fn manhattan(&self) -> usize {
        self.hops.iter().map(|h| h.span).sum()
    }

    /// Head latency of this route without contention: `H·T_r + D_M·T_l`
    /// (the 1D segment convention — no terminal-router pipeline; see
    /// `noc-model` for the full packet-latency convention).
    pub fn segment_latency(&self, weights: HopWeights) -> Cycles {
        self.hops.iter().map(|h| weights.hop_cost(h.span)).sum()
    }
}

/// Pre-solved dimension-order router for a mesh topology.
#[derive(Debug, Clone)]
pub struct DorRouter {
    n: usize,
    weights: HopWeights,
    rows: Vec<RowApsp>,
    cols: Vec<RowApsp>,
}

impl DorRouter {
    /// Solves every row and column of the topology.
    pub fn new(topology: &MeshTopology, weights: HopWeights) -> Self {
        let n = topology.side();
        let rows = (0..n)
            .map(|y| monotone_apsp(topology.row_placement(y), weights))
            .collect();
        let cols = (0..n)
            .map(|x| monotone_apsp(topology.col_placement(x), weights))
            .collect();
        DorRouter {
            n,
            weights,
            rows,
            cols,
        }
    }

    /// Mesh side length.
    pub fn side(&self) -> usize {
        self.n
    }

    /// Hop weights this router was solved with.
    pub fn weights(&self) -> HopWeights {
        self.weights
    }

    /// APSP solve for row `y`.
    pub fn row_apsp(&self, y: usize) -> &RowApsp {
        &self.rows[y]
    }

    /// APSP solve for column `x`.
    pub fn col_apsp(&self, x: usize) -> &RowApsp {
        &self.cols[x]
    }

    fn coord(&self, id: usize) -> Coord {
        Coord {
            x: id % self.n,
            y: id / self.n,
        }
    }

    /// Computes the full DOR route from `src` to `dst` (flat ids).
    pub fn route(&self, src: usize, dst: usize) -> Route {
        let s = self.coord(src);
        let d = self.coord(dst);
        let mut hops = Vec::new();
        // X phase along row s.y to the turning point (d.x, s.y).
        let row = &self.rows[s.y];
        let x_path = if s.x == d.x {
            vec![s.x]
        } else {
            row.path(s.x, d.x)
        };
        for pair in x_path.windows(2) {
            hops.push(RouteHop {
                from: s.y * self.n + pair[0],
                to: s.y * self.n + pair[1],
                span: pair[0].abs_diff(pair[1]),
                orientation: Orientation::Horizontal,
            });
        }
        // Y phase along column d.x.
        let col = &self.cols[d.x];
        let y_path = if s.y == d.y {
            vec![s.y]
        } else {
            col.path(s.y, d.y)
        };
        for pair in y_path.windows(2) {
            hops.push(RouteHop {
                from: pair[0] * self.n + d.x,
                to: pair[1] * self.n + d.x,
                span: pair[0].abs_diff(pair[1]),
                orientation: Orientation::Vertical,
            });
        }
        Route { hops }
    }

    /// Head-latency distance `L_D(i, j)` under the 1D-segment convention:
    /// X-segment + Y-segment costs (no terminal router pipeline).
    pub fn segment_distance(&self, src: usize, dst: usize) -> Cycles {
        let s = self.coord(src);
        let d = self.coord(dst);
        self.rows[s.y].dist(s.x, d.x) + self.cols[d.x].dist(s.y, d.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::RowPlacement;

    const W: HopWeights = HopWeights::PAPER;

    #[test]
    fn mesh_route_is_xy() {
        let topo = MeshTopology::mesh(4);
        let dor = DorRouter::new(&topo, W);
        // (0,0) -> (2,3): X to column 2, then Y down to row 3.
        let route = dor.route(0, 3 * 4 + 2);
        assert_eq!(route.hop_count(), 5);
        assert_eq!(route.manhattan(), 5);
        let x_hops = route
            .hops
            .iter()
            .take_while(|h| h.orientation == Orientation::Horizontal)
            .count();
        assert_eq!(x_hops, 2);
        assert_eq!(route.segment_latency(W), 5 * 4);
        assert_eq!(dor.segment_distance(0, 14), 20);
    }

    #[test]
    fn self_route_is_empty() {
        let topo = MeshTopology::mesh(4);
        let dor = DorRouter::new(&topo, W);
        let route = dor.route(5, 5);
        assert_eq!(route.hop_count(), 0);
        assert_eq!(route.segment_latency(W), 0);
        assert_eq!(dor.segment_distance(5, 5), 0);
    }

    #[test]
    fn express_links_used_in_both_dimensions() {
        let row = RowPlacement::with_links(8, [(0, 7)]).unwrap();
        let topo = MeshTopology::uniform(8, &row);
        let dor = DorRouter::new(&topo, W);
        // (0,0) -> (7,7): one express hop in X, one in Y.
        let route = dor.route(0, 63);
        assert_eq!(route.hop_count(), 2);
        assert_eq!(route.manhattan(), 14);
        assert_eq!(route.segment_latency(W), 2 * 3 + 14);
    }

    #[test]
    fn segment_distance_matches_route_latency() {
        let row =
            RowPlacement::with_links(8, [(1, 3), (3, 7), (0, 3), (3, 6), (0, 2), (4, 7)]).unwrap();
        let topo = MeshTopology::uniform(8, &row);
        let dor = DorRouter::new(&topo, W);
        for src in 0..64 {
            for dst in 0..64 {
                let route = dor.route(src, dst);
                assert_eq!(
                    route.segment_latency(W),
                    dor.segment_distance(src, dst),
                    "({src},{dst})"
                );
            }
        }
    }

    #[test]
    fn route_is_contiguous_and_turns_once() {
        let row = RowPlacement::with_links(8, [(0, 3), (3, 7)]).unwrap();
        let topo = MeshTopology::uniform(8, &row);
        let dor = DorRouter::new(&topo, W);
        for (src, dst) in [(0, 63), (7, 56), (9, 62), (60, 5)] {
            let route = dor.route(src, dst);
            let mut cur = src;
            let mut seen_vertical = false;
            for hop in &route.hops {
                assert_eq!(hop.from, cur);
                cur = hop.to;
                match hop.orientation {
                    Orientation::Horizontal => {
                        assert!(!seen_vertical, "X hop after Y hop in {route:?}")
                    }
                    Orientation::Vertical => seen_vertical = true,
                }
            }
            assert_eq!(cur, dst);
        }
    }
}
