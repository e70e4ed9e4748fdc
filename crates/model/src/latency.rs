//! Head-latency objectives and zero-load metrics.
//!
//! Conventions (documented in DESIGN.md §5):
//!
//! * A **1D segment** costs `H·T_r + D_M·T_l` — each hop pays the pipeline of
//!   the router it leaves plus the (repeatered) link. This is the pure
//!   quantity the optimizer minimises per row; adding any per-pair constant
//!   cannot change the argmin.
//! * A **2D head latency** additionally pays the destination router's
//!   pipeline once (`+T_r` for `src != dst`): a packet traverses `H + 1`
//!   routers. With this convention the model reproduces the paper's Table 2
//!   zero-load numbers for the 4×4 and 8×8 meshes exactly
//!   (e.g. 8×8: `2·7·(3+1) + 3 + 1.2 = 60.2` cycles).
//! * Averages are over all `N·N` ordered pairs, self-pairs contributing 0,
//!   matching Eq. (2)'s denominator.

use crate::packets::PacketMix;
use noc_routing::monotone::{monotone_all_pairs_sum, RowAdjacency};
use noc_routing::{monotone_apsp, Cycles, DorRouter, HopWeights};
use noc_topology::RowPlacement;

/// The one-dimensional placement objective `L_D` of `P̂(n, C)`: mean segment
/// latency over all `n²` ordered router pairs of the row.
#[derive(Debug, Clone, Copy)]
pub struct RowObjective {
    /// Hop cost parameters.
    pub weights: HopWeights,
}

impl RowObjective {
    /// Objective with the paper's weights (`T_r = 3`, `T_l = 1`).
    pub fn paper() -> Self {
        RowObjective {
            weights: HopWeights::PAPER,
        }
    }

    /// Mean segment latency over all ordered pairs — the SA/D&C objective.
    pub fn eval(&self, row: &RowPlacement) -> f64 {
        let n = row.len();
        let adj = RowAdjacency::new(row, self.weights);
        let mut scratch = vec![0 as Cycles; n];
        monotone_all_pairs_sum(&adj, &mut scratch) as f64 / (n * n) as f64
    }

    /// Traffic-weighted mean segment latency `Σγ_ij·d(i,j)/Σγ_ij` for the
    /// application-specific variant (§5.6.4). `gamma` is row-major `n × n`.
    pub fn eval_weighted(&self, row: &RowPlacement, gamma: &[f64]) -> f64 {
        monotone_apsp(row, self.weights).weighted_mean(gamma)
    }
}

/// Zero-load statistics of a full 2D topology under its DOR routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZeroLoad {
    /// Mean head latency over all `N²` ordered pairs (cycles).
    pub avg_head: f64,
    /// Maximum head latency over all pairs (cycles).
    pub max_head: Cycles,
    /// Mean hop count over all ordered pairs (links traversed).
    pub avg_hops: f64,
}

/// Full-packet latency model: head latency from the routed topology plus
/// serialization latency from the packet mix and flit width.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Hop cost parameters.
    pub weights: HopWeights,
}

impl LatencyModel {
    /// Model with the paper's weights.
    pub fn paper() -> Self {
        LatencyModel {
            weights: HopWeights::PAPER,
        }
    }

    /// Head latency of the pair `(src, dst)`: X segment + Y segment + the
    /// destination router's pipeline (0 for `src == dst`).
    pub fn head_pair(&self, dor: &DorRouter, src: usize, dst: usize) -> Cycles {
        if src == dst {
            0
        } else {
            dor.segment_distance(src, dst) + self.weights.router_cycles
        }
    }

    /// Zero-load statistics over all ordered pairs of the network.
    pub fn zero_load(&self, dor: &DorRouter) -> ZeroLoad {
        let n = dor.side();
        let routers = n * n;
        let mut sum = 0u64;
        let mut max = 0;
        let mut hop_sum = 0u64;
        for src in 0..routers {
            for dst in 0..routers {
                if src == dst {
                    continue;
                }
                let (sx, sy) = (src % n, src / n);
                let (dx, dy) = (dst % n, dst / n);
                let d = dor.row_apsp(sy).dist(sx, dx)
                    + dor.col_apsp(dx).dist(sy, dy)
                    + self.weights.router_cycles;
                sum += d as u64;
                max = max.max(d);
                hop_sum += (dor.row_apsp(sy).hops(sx, dx) + dor.col_apsp(dx).hops(sy, dy)) as u64;
            }
        }
        let pairs = (routers * routers) as f64;
        ZeroLoad {
            avg_head: sum as f64 / pairs,
            max_head: max,
            avg_hops: hop_sum as f64 / pairs,
        }
    }

    /// Average packet latency `L_avg = L_D,avg + L_S,avg` (Eq. 2) at the
    /// given flit width.
    pub fn avg_packet_latency(&self, dor: &DorRouter, mix: &PacketMix, flit_bits: u32) -> f64 {
        self.zero_load(dor).avg_head + mix.serialization_latency(flit_bits)
    }

    /// Maximum zero-load packet latency (Table 2): worst pair head latency
    /// plus the mix's serialization latency.
    pub fn max_packet_latency(&self, dor: &DorRouter, mix: &PacketMix, flit_bits: u32) -> f64 {
        self.zero_load(dor).max_head as f64 + mix.serialization_latency(flit_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::{hfb_mesh, MeshTopology};

    fn dor(topo: &MeshTopology) -> DorRouter {
        DorRouter::new(topo, HopWeights::PAPER)
    }

    #[test]
    fn row_objective_mesh_closed_form() {
        // Mesh row: Σ|i-j| = n(n²-1)/3, each unit hop costs 4 cycles.
        for n in [4usize, 8, 16] {
            let obj = RowObjective::paper();
            let mean = obj.eval(&RowPlacement::new(n));
            let expected = (n * (n * n - 1) / 3) as f64 * 4.0 / (n * n) as f64;
            assert!((mean - expected).abs() < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn express_links_lower_the_objective() {
        let obj = RowObjective::paper();
        let mesh = obj.eval(&RowPlacement::new(8));
        let paper =
            RowPlacement::with_links(8, [(1, 3), (3, 7), (0, 3), (3, 6), (0, 2), (4, 7)]).unwrap();
        assert!(obj.eval(&paper) < mesh);
    }

    #[test]
    fn weighted_objective_degenerates_to_uniform() {
        let obj = RowObjective::paper();
        let row = RowPlacement::with_links(8, [(0, 4), (4, 7)]).unwrap();
        let uniform_gamma = vec![1.0; 64];
        // Weighted with all-ones gamma differs from eval only by the
        // self-pair denominator (eval divides by n², weighted by Σγ = n²).
        assert!((obj.eval_weighted(&row, &uniform_gamma) - obj.eval(&row)).abs() < 1e-9);
    }

    #[test]
    fn table2_mesh_values() {
        let model = LatencyModel::paper();
        let mix = PacketMix::paper();
        // 4×4 mesh: 2·3·4 + 3 + 1.2 = 28.2 (paper Table 2).
        let t4 = model.max_packet_latency(&dor(&MeshTopology::mesh(4)), &mix, 256);
        assert!((t4 - 28.2).abs() < 1e-9, "got {t4}");
        // 8×8 mesh: 2·7·4 + 3 + 1.2 = 60.2.
        let t8 = model.max_packet_latency(&dor(&MeshTopology::mesh(8)), &mix, 256);
        assert!((t8 - 60.2).abs() < 1e-9, "got {t8}");
    }

    #[test]
    fn zero_load_mesh_average() {
        // 8×8 mesh: mean row distance = 168·4/64 = 10.5 per dimension,
        // plus T_r on the 63/64 non-self pairs.
        let z = LatencyModel::paper().zero_load(&dor(&MeshTopology::mesh(8)));
        let expected = 2.0 * 10.5 + 3.0 * (64.0 * 63.0) / (64.0 * 64.0);
        assert!((z.avg_head - expected).abs() < 1e-9, "got {}", z.avg_head);
        assert_eq!(z.max_head, 59);
        // Mean hops: 2 · 168/64.
        assert!((z.avg_hops - 2.0 * 168.0 / 64.0).abs() < 1e-9);
    }

    #[test]
    fn hfb_beats_mesh_on_head_latency() {
        let model = LatencyModel::paper();
        let mesh = model.zero_load(&dor(&MeshTopology::mesh(8)));
        let hfb = model.zero_load(&dor(&hfb_mesh(8)));
        assert!(hfb.avg_head < mesh.avg_head);
        assert!(hfb.max_head < mesh.max_head);
        assert!(hfb.avg_hops < mesh.avg_hops);
    }

    #[test]
    fn head_pair_matches_zero_load_extremes() {
        let model = LatencyModel::paper();
        let topo = MeshTopology::mesh(4);
        let d = dor(&topo);
        let z = model.zero_load(&d);
        let mut max = 0;
        for s in 0..16 {
            for t in 0..16 {
                max = max.max(model.head_pair(&d, s, t));
            }
        }
        assert_eq!(max, z.max_head);
        assert_eq!(model.head_pair(&d, 3, 3), 0);
    }

    #[test]
    fn avg_packet_latency_adds_serialization() {
        let model = LatencyModel::paper();
        let topo = MeshTopology::mesh(4);
        let d = dor(&topo);
        let mix = PacketMix::paper();
        let head = model.zero_load(&d).avg_head;
        let total = model.avg_packet_latency(&d, &mix, 128);
        assert!((total - (head + 1.6)).abs() < 1e-12);
    }
}
