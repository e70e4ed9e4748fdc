//! Fast directional shortest paths via a monotone dynamic program.
//!
//! Because U-turn-free 1D paths visit strictly increasing (or decreasing)
//! router indices, the shortest-path structure is a DAG and Floyd–Warshall's
//! `O(n³)` is unnecessary: relaxing destinations in index order gives an
//! `O(n·(n + e))` solve. The optimizer evaluates hundreds of thousands of
//! candidate placements, so this is the hot path; `directional_apsp` remains
//! as the paper-faithful reference and the two are property-tested equal.

use crate::floyd_warshall::RowApsp;
use crate::weights::HopWeights;
use crate::{Cycles, INF};
use noc_topology::RowPlacement;

/// Adjacency of a row in a form optimised for repeated monotone solves:
/// for every router, the list of neighbours to its left and to its right.
#[derive(Debug, Clone)]
pub struct RowAdjacency {
    n: usize,
    /// `left[j]`: routers `k < j` directly linked to `j`, with hop cost.
    left: Vec<Vec<(usize, Cycles)>>,
    /// `right[j]`: routers `k > j` directly linked to `j`, with hop cost.
    right: Vec<Vec<(usize, Cycles)>>,
}

impl RowAdjacency {
    /// Builds the adjacency lists for a placement under the given weights.
    pub fn new(row: &RowPlacement, weights: HopWeights) -> Self {
        let n = row.len();
        let mut left = vec![Vec::new(); n];
        let mut right = vec![Vec::new(); n];
        for link in row.all_links() {
            let w = weights.hop_cost(link.span());
            left[link.b].push((link.a, w));
            right[link.a].push((link.b, w));
        }
        RowAdjacency { n, left, right }
    }

    /// Row length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the row is empty (never true for constructed rows).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Computes directional APSP with the monotone DP. Produces the same
/// distances as [`crate::directional_apsp`].
pub fn monotone_apsp(row: &RowPlacement, weights: HopWeights) -> RowApsp {
    let adj = RowAdjacency::new(row, weights);
    monotone_apsp_from_adjacency(&adj)
}

/// Monotone APSP over pre-built adjacency lists (lets the optimizer reuse
/// the allocation-heavy part across candidate evaluations where possible).
fn monotone_apsp_from_adjacency(adj: &RowAdjacency) -> RowApsp {
    let n = adj.n;
    let mut dist = vec![0 as Cycles; n * n];
    let mut next = vec![usize::MAX; n * n];
    let mut hops = vec![0u32; n * n];
    let mut pred = vec![usize::MAX; n];

    for i in 0..n {
        // Forward: destinations j > i in increasing order.
        for j in i + 1..n {
            let mut best = INF;
            let mut best_pred = usize::MAX;
            for &(k, w) in &adj.left[j] {
                if k < i {
                    continue;
                }
                let cand = dist[i * n + k].saturating_add(w);
                if cand < best {
                    best = cand;
                    best_pred = k;
                }
            }
            dist[i * n + j] = best;
            pred[j] = best_pred;
            hops[i * n + j] = hops[i * n + best_pred] + 1;
            next[i * n + j] = if best_pred == i {
                j
            } else {
                next[i * n + best_pred]
            };
        }
        // Backward: destinations j < i in decreasing order.
        for j in (0..i).rev() {
            let mut best = INF;
            let mut best_pred = usize::MAX;
            for &(k, w) in &adj.right[j] {
                if k > i {
                    continue;
                }
                let cand = dist[i * n + k].saturating_add(w);
                if cand < best {
                    best = cand;
                    best_pred = k;
                }
            }
            dist[i * n + j] = best;
            pred[j] = best_pred;
            hops[i * n + j] = hops[i * n + best_pred] + 1;
            next[i * n + j] = if best_pred == i {
                j
            } else {
                next[i * n + best_pred]
            };
        }
    }
    RowApsp::from_parts(n, dist, next, hops)
}

/// Sum of all-pairs distances only — the optimizer's innermost objective,
/// skipping next-hop/hop bookkeeping for speed. Writes scratch into `dist`,
/// which must have length `n` (one source's distances at a time).
pub fn monotone_all_pairs_sum(adj: &RowAdjacency, dist: &mut [Cycles]) -> u64 {
    let n = adj.n;
    debug_assert_eq!(dist.len(), n);
    let mut total = 0u64;
    for i in 0..n {
        dist[i] = 0;
        for j in i + 1..n {
            let mut best = INF;
            for &(k, w) in &adj.left[j] {
                if k < i {
                    continue;
                }
                let cand = dist[k].saturating_add(w);
                if cand < best {
                    best = cand;
                }
            }
            dist[j] = best;
            total += best as u64;
        }
        // The backward direction is symmetric on bidirectional links:
        // d(i -> j) == d(j -> i), so double the forward triangle instead of
        // solving it (verified against the full solver in tests).
        for &d in dist.iter().take(n).skip(i + 1) {
            total += d as u64;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directional_apsp;

    const W: HopWeights = HopWeights::PAPER;

    fn assert_same_distances(row: &RowPlacement) {
        let fw = directional_apsp(row, W);
        let dp = monotone_apsp(row, W);
        let n = row.len();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(fw.dist(i, j), dp.dist(i, j), "({i},{j}) on {row:?}");
            }
        }
    }

    #[test]
    fn matches_floyd_warshall_on_mesh() {
        assert_same_distances(&RowPlacement::new(8));
    }

    #[test]
    fn matches_floyd_warshall_on_paper_solution() {
        let row =
            RowPlacement::with_links(8, [(1, 3), (3, 7), (0, 3), (3, 6), (0, 2), (4, 7)]).unwrap();
        assert_same_distances(&row);
    }

    #[test]
    fn matches_floyd_warshall_on_long_links() {
        let row = RowPlacement::with_links(16, [(0, 15), (0, 8), (8, 15), (3, 12)]).unwrap();
        assert_same_distances(&row);
    }

    #[test]
    fn dp_paths_have_consistent_cost() {
        let row = RowPlacement::with_links(8, [(0, 4), (4, 7), (1, 5)]).unwrap();
        let dp = monotone_apsp(&row, W);
        for i in 0..8 {
            for j in 0..8 {
                if i == j {
                    continue;
                }
                let path = dp.path(i, j);
                let mut cost = 0;
                for pair in path.windows(2) {
                    cost += W.hop_cost(pair[0].abs_diff(pair[1]));
                }
                assert_eq!(cost, dp.dist(i, j), "path {path:?}");
                assert_eq!(path.len() as u32 - 1, dp.hops(i, j));
            }
        }
    }

    #[test]
    fn sum_fast_path_matches_full_solver() {
        for links in [
            vec![],
            vec![(0usize, 2usize)],
            vec![(1, 3), (3, 7), (0, 3), (3, 6), (0, 2), (4, 7)],
            vec![(0, 7)],
        ] {
            let row = RowPlacement::with_links(8, links).unwrap();
            let adj = RowAdjacency::new(&row, W);
            let mut scratch = vec![0; 8];
            let fast = monotone_all_pairs_sum(&adj, &mut scratch);
            let full = monotone_apsp(&row, W).sum_all_pairs();
            assert_eq!(fast, full, "row {row:?}");
        }
    }
}
