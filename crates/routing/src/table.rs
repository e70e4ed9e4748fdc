//! Per-router next-hop lookup tables (the paper's Fig. 3b).
//!
//! Each router keeps two tables, one per dimension; each table maps a
//! destination router on the same row/column to the output port leading to
//! the next-hop router. Tables have at most `2(n-1)` entries total, which is
//! where the paper's < 0.5 % area-overhead claim comes from (§4.5.2).

use crate::floyd_warshall::RowApsp;

/// Routing table of a single router for one dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    /// Index of this router within its row/column.
    pub router: usize,
    /// Neighbours reachable over one link, sorted ascending — the output
    /// ports, in Fig. 3's numbering (port `p` leads to `neighbours[p]`).
    pub neighbours: Vec<usize>,
    /// `entries[d]`: output-port index toward destination `d`, `None` for
    /// `d == router`.
    pub entries: Vec<Option<usize>>,
}

impl RoutingTable {
    /// Output port toward destination `dest`, or `None` if `dest` is this
    /// router.
    pub fn port_for(&self, dest: usize) -> Option<usize> {
        self.entries[dest]
    }

    /// Next-hop router toward `dest`, or `None` if `dest` is this router.
    pub fn next_hop(&self, dest: usize) -> Option<usize> {
        self.entries[dest].map(|p| self.neighbours[p])
    }

    /// Number of stored entries (destinations other than self), which
    /// tests bound.
    #[cfg(test)]
    fn entry_count(&self) -> usize {
        self.entries.iter().flatten().count()
    }
}

/// Routing tables for every router on one row/column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowRouting {
    tables: Vec<RoutingTable>,
}

impl RowRouting {
    /// Derives per-router tables from a directional APSP solve.
    pub fn from_apsp(apsp: &RowApsp) -> Self {
        let n = apsp.len();
        let tables = (0..n)
            .map(|r| {
                // Neighbours: every router that appears as a direct next hop
                // could be reached over a link; enumerate from next-hop data
                // of adjacent destinations. Simpler and exact: a router `m`
                // is a neighbour of `r` iff the chosen path r -> m is one hop.
                let neighbours: Vec<usize> =
                    (0..n).filter(|&m| m != r && apsp.hops(r, m) == 1).collect();
                let entries = (0..n)
                    .map(|dest| {
                        apsp.next_hop(r, dest).map(|hop| {
                            neighbours
                                .binary_search(&hop)
                                .expect("next hop must be a neighbour")
                        })
                    })
                    .collect();
                RoutingTable {
                    router: r,
                    neighbours,
                    entries,
                }
            })
            .collect();
        RowRouting { tables }
    }

    /// Table of router `r`.
    pub fn table(&self, r: usize) -> &RoutingTable {
        &self.tables[r]
    }

    /// Number of routers on the row.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the row holds no routers.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Follows tables hop by hop from `src` to `dest`, returning the router
    /// sequence. Used to validate that tables alone (as the hardware would
    /// use them) reproduce the APSP paths.
    pub fn walk(&self, src: usize, dest: usize) -> Vec<usize> {
        let mut path = vec![src];
        let mut cur = src;
        let mut guard = 0;
        while cur != dest {
            cur = self.tables[cur]
                .next_hop(dest)
                .expect("table must route every remote destination");
            path.push(cur);
            guard += 1;
            assert!(guard <= self.tables.len(), "routing loop detected");
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directional_apsp;
    use crate::weights::HopWeights;
    use noc_topology::RowPlacement;

    fn paper_row() -> RowPlacement {
        // Optimal P̂(8,4) of Fig. 2(b) (0-indexed).
        RowPlacement::with_links(8, [(1, 3), (3, 7), (0, 3), (3, 6), (0, 2), (4, 7)]).unwrap()
    }

    #[test]
    fn neighbours_match_links() {
        let row = paper_row();
        let apsp = directional_apsp(&row, HopWeights::PAPER);
        let routing = RowRouting::from_apsp(&apsp);
        // Router 0 links: local 0-1, express 0-2 and 0-3 (Fig. 3a shows
        // three X-dimension connections for Router 1).
        assert_eq!(routing.table(0).neighbours, vec![1, 2, 3]);
        // Router 3 is the hub: locals 2-3, 3-4 and express 0-3, 1-3, 3-6, 3-7.
        assert_eq!(routing.table(3).neighbours, vec![0, 1, 2, 4, 6, 7]);
    }

    #[test]
    fn table_walk_reproduces_apsp_paths() {
        let row = paper_row();
        let apsp = directional_apsp(&row, HopWeights::PAPER);
        let routing = RowRouting::from_apsp(&apsp);
        for i in 0..8 {
            for j in 0..8 {
                if i != j {
                    assert_eq!(routing.walk(i, j), apsp.path(i, j), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn entry_counts_bound_table_size() {
        let row = paper_row();
        let apsp = directional_apsp(&row, HopWeights::PAPER);
        let routing = RowRouting::from_apsp(&apsp);
        for r in 0..8 {
            // Per-dimension table has at most n-1 entries (§4.5.2's bound is
            // 2(n-1) across both dimensions).
            assert_eq!(routing.table(r).entry_count(), 7);
        }
    }

    #[test]
    fn figure_3b_example_next_hop() {
        // Paper: a packet at Router 1 (0-indexed 0) destined for the column
        // turning point Router 7 (0-indexed 6) exits via the port toward
        // Router 4 (0-indexed 3) — the sixth X-table entry routes via port #3.
        let row = paper_row();
        let apsp = directional_apsp(&row, HopWeights::PAPER);
        let routing = RowRouting::from_apsp(&apsp);
        assert_eq!(routing.table(0).next_hop(6), Some(3));
        // Port numbering: neighbours of router 0 are [1, 2, 3]; port index 2
        // is the paper's outport #3 (1-indexed).
        assert_eq!(routing.table(0).port_for(6), Some(2));
    }
}
