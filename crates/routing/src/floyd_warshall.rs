//! Directional all-pairs shortest paths on a row, the paper's offline routing
//! computation (§4.5.1).
//!
//! Two Floyd–Warshall passes are run per row: the first computes paths for
//! packets travelling left-to-right (all right-to-left edges set to infinite
//! weight), the second for right-to-left. This enforces unidirectional,
//! U-turn-free traversal within a dimension — the basis of the deadlock
//! freedom argument — at the paper's stated `O(n³)` complexity.

use crate::weights::HopWeights;
use crate::{Cycles, INF};
use noc_topology::RowPlacement;

/// Directional all-pairs shortest-path result for one row: distances,
/// next-hop matrix, and hop counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowApsp {
    n: usize,
    /// `dist[i * n + j]`: minimal head latency from router `i` to `j`.
    dist: Vec<Cycles>,
    /// `next[i * n + j]`: first router after `i` on the chosen path to `j`;
    /// `usize::MAX` when `i == j`.
    next: Vec<usize>,
    /// `hops[i * n + j]`: number of links on the chosen path.
    hops: Vec<u32>,
}

impl RowApsp {
    /// Row length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the row is empty (never true for constructed rows).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Minimal head latency (cycles) from `i` to `j`; 0 when `i == j`.
    pub fn dist(&self, i: usize, j: usize) -> Cycles {
        self.dist[i * self.n + j]
    }

    /// First router after `i` on the path to `j`, or `None` when `i == j`.
    pub fn next_hop(&self, i: usize, j: usize) -> Option<usize> {
        let v = self.next[i * self.n + j];
        (v != usize::MAX).then_some(v)
    }

    /// Number of links on the chosen path from `i` to `j`.
    pub fn hops(&self, i: usize, j: usize) -> u32 {
        self.hops[i * self.n + j]
    }

    /// Reconstructs the full router sequence `i, ..., j` of the chosen path.
    pub fn path(&self, i: usize, j: usize) -> Vec<usize> {
        let mut path = vec![i];
        let mut cur = i;
        while cur != j {
            cur = self.next[cur * self.n + j];
            debug_assert!(cur != usize::MAX, "path must terminate at {j}");
            path.push(cur);
        }
        path
    }

    /// Sum of distances over all `n²` ordered pairs (self-pairs are 0).
    pub fn sum_all_pairs(&self) -> u64 {
        self.dist.iter().map(|&d| d as u64).sum()
    }

    /// Traffic-weighted mean distance: `Σ γ_ij · d(i,j) / Σ γ_ij` for the
    /// application-specific objective (§5.6.4). `gamma` is row-major `n × n`.
    ///
    /// Returns 0 when all weights are 0.
    pub fn weighted_mean(&self, gamma: &[f64]) -> f64 {
        assert_eq!(gamma.len(), self.n * self.n, "gamma must be n x n");
        let mut num = 0.0;
        let mut den = 0.0;
        for (idx, &g) in gamma.iter().enumerate() {
            num += g * self.dist[idx] as f64;
            den += g;
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Assembles an APSP result from a pair of directional solves.
    pub(crate) fn from_parts(
        n: usize,
        dist: Vec<Cycles>,
        next: Vec<usize>,
        hops: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(dist.len(), n * n);
        RowApsp {
            n,
            dist,
            next,
            hops,
        }
    }
}

/// Computes directional all-pairs shortest paths for a row using two
/// Floyd–Warshall passes (the paper's reference algorithm).
pub fn directional_apsp(row: &RowPlacement, weights: HopWeights) -> RowApsp {
    let n = row.len();
    let mut dist = vec![INF; n * n];
    let mut next = vec![usize::MAX; n * n];
    let mut hops = vec![0u32; n * n];

    // One pass per direction. `forward` keeps edges (a -> b) with a < b.
    for forward in [true, false] {
        let mut d = vec![INF; n * n];
        let mut nx = vec![usize::MAX; n * n];
        let mut h = vec![0u32; n * n];
        for i in 0..n {
            d[i * n + i] = 0;
        }
        for link in row.all_links() {
            let (from, to) = if forward {
                (link.a, link.b)
            } else {
                (link.b, link.a)
            };
            let w = weights.hop_cost(link.span());
            if w < d[from * n + to] {
                d[from * n + to] = w;
                nx[from * n + to] = to;
                h[from * n + to] = 1;
            }
        }
        // Floyd–Warshall relaxation.
        for k in 0..n {
            for i in 0..n {
                let dik = d[i * n + k];
                if dik >= INF {
                    continue;
                }
                for j in 0..n {
                    let through = dik.saturating_add(d[k * n + j]);
                    if through < d[i * n + j] {
                        d[i * n + j] = through;
                        nx[i * n + j] = nx[i * n + k];
                        h[i * n + j] = h[i * n + k] + h[k * n + j];
                    }
                }
            }
        }
        // Merge this direction's triangle into the result.
        for i in 0..n {
            for j in 0..n {
                let relevant = if forward { i < j } else { i > j };
                if relevant {
                    dist[i * n + j] = d[i * n + j];
                    next[i * n + j] = nx[i * n + j];
                    hops[i * n + j] = h[i * n + j];
                } else if i == j {
                    dist[i * n + j] = 0;
                }
            }
        }
    }
    RowApsp::from_parts(n, dist, next, hops)
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: HopWeights = HopWeights::PAPER;

    #[test]
    fn mesh_row_distances_are_linear() {
        let row = RowPlacement::new(8);
        let apsp = directional_apsp(&row, W);
        for i in 0..8usize {
            for j in 0..8usize {
                let hops = i.abs_diff(j) as u32;
                assert_eq!(apsp.dist(i, j), hops * 4, "({i},{j})");
                assert_eq!(apsp.hops(i, j), hops);
            }
        }
    }

    #[test]
    fn express_link_shortens_path() {
        // Row of 8 with an express link 0–7: 0 -> 7 is one hop of span 7.
        let row = RowPlacement::with_links(8, [(0, 7)]).unwrap();
        let apsp = directional_apsp(&row, W);
        assert_eq!(apsp.dist(0, 7), 3 + 7); // Tr + 7·Tl = 10 < 28
        assert_eq!(apsp.hops(0, 7), 1);
        assert_eq!(apsp.path(0, 7), vec![0, 7]);
        // Both directions benefit (bidirectional link).
        assert_eq!(apsp.dist(7, 0), 10);
        // Intermediate destinations cannot use the long link (no U-turns):
        // 0 -> 6 must go hop-by-hop (6 hops) rather than 0 -> 7 -> 6.
        assert_eq!(apsp.dist(0, 6), 24);
        assert_eq!(apsp.hops(0, 6), 6);
    }

    #[test]
    fn chained_express_links_compose() {
        // Paper Fig. 2(b) top layer: links (1,3) and (3,7).
        let row = RowPlacement::with_links(8, [(1, 3), (3, 7)]).unwrap();
        let apsp = directional_apsp(&row, W);
        // 1 -> 7: two express hops, total span 6: 2·3 + 6 = 12.
        assert_eq!(apsp.dist(1, 7), 12);
        assert_eq!(apsp.path(1, 7), vec![1, 3, 7]);
        // 0 -> 7: local to 1, then express: 3·3 + 7·1 = 16.
        assert_eq!(apsp.dist(0, 7), 16);
        assert_eq!(apsp.path(0, 7), vec![0, 1, 3, 7]);
    }

    #[test]
    fn express_used_only_when_beneficial() {
        // Express (0, 2) on 4 routers: 0 -> 2 via express costs 3 + 2 = 5,
        // via two locals 2·4 = 8. Express wins.
        let row = RowPlacement::with_links(4, [(0, 2)]).unwrap();
        let apsp = directional_apsp(&row, W);
        assert_eq!(apsp.dist(0, 2), 5);
        assert_eq!(apsp.hops(0, 2), 1);
        // 0 -> 1 unaffected.
        assert_eq!(apsp.dist(0, 1), 4);
    }

    #[test]
    fn distances_are_direction_symmetric() {
        // Bidirectional links make d(i -> j) == d(j -> i) even though the
        // passes are separate.
        let row = RowPlacement::with_links(8, [(0, 3), (2, 6), (5, 7)]).unwrap();
        let apsp = directional_apsp(&row, W);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(apsp.dist(i, j), apsp.dist(j, i), "({i},{j})");
            }
        }
    }

    #[test]
    fn paths_are_monotone() {
        let row = RowPlacement::with_links(8, [(0, 4), (2, 7), (1, 3)]).unwrap();
        let apsp = directional_apsp(&row, W);
        for i in 0..8 {
            for j in 0..8 {
                if i == j {
                    continue;
                }
                let path = apsp.path(i, j);
                assert_eq!(*path.first().unwrap(), i);
                assert_eq!(*path.last().unwrap(), j);
                for pair in path.windows(2) {
                    if i < j {
                        assert!(pair[0] < pair[1], "non-monotone path {path:?}");
                    } else {
                        assert!(pair[0] > pair[1], "non-monotone path {path:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn sum_all_pairs_matches_manual_sum() {
        let row = RowPlacement::with_links(4, [(0, 2)]).unwrap();
        let apsp = directional_apsp(&row, W);
        let mut total = 0u64;
        for i in 0..4 {
            for j in 0..4 {
                total += apsp.dist(i, j) as u64;
            }
        }
        assert_eq!(apsp.sum_all_pairs(), total);
    }

    #[test]
    fn weighted_mean_focuses_on_hot_pairs() {
        let row = RowPlacement::with_links(4, [(0, 3)]).unwrap();
        let apsp = directional_apsp(&row, W);
        // All weight on the (0,3) pair: weighted mean = its distance.
        let mut gamma = vec![0.0; 16];
        gamma[3] = 5.0;
        assert!((apsp.weighted_mean(&gamma) - apsp.dist(0, 3) as f64).abs() < 1e-12);
        // Zero matrix degrades to 0.
        assert_eq!(apsp.weighted_mean(&[0.0; 16]), 0.0);
    }
}
