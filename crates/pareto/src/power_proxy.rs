//! Static-power pricing of a row placement, with `O(1)` incremental
//! updates under single-bit connection-matrix flips.
//!
//! The placement inner loop cannot afford the full
//! [`noc_power::network_power`] path (it wants a simulation's activity
//! counters); what it *can* afford is the placement-dependent part of the
//! static power of the replicated `n × n` network, which depends only on
//! router port counts. With `d_x` the row degree of column `x` (local mesh
//! links plus distinct express links) and the row replicated over both
//! axes, router `(x, y)` has `k = d_x + d_y + 1` ports (the `+1` is the
//! local inject/eject port), and per-router static power is the quadratic
//! `α·k² + β·k + γ` of [`noc_power::PowerConfig`]'s crossbar / per-port /
//! per-router terms. Summing the quadratic over all `n²` routers reduces
//! to the two integer degree moments `S₁ = Σ d_x` and `S₂ = Σ d_x²`:
//!
//! ```text
//! Σ k  = 2n·S₁ + n²
//! Σ k² = 2n·S₂ + 2·S₁² + 4n·S₁ + n²
//! ```
//!
//! Both the full evaluation (from a decoded [`RowPlacement`]) and the
//! incremental evaluation (tracking the links each flip changes)
//! compute the same moments as exact `u64`s and price them through the
//! same closed form, so the two paths are **bit-identical** — the same
//! contract the latency kernel keeps, and for the same reason: the
//! annealer's accept/reject branches (and hence its RNG stream) must not
//! depend on the evaluation mode.

use noc_placement::LinkChanges;
use noc_power::PowerConfig;
use noc_topology::RowPlacement;

/// Prices the placement-dependent static power of the `n × n` network a
/// row placement replicates to. Values are per-router milliwatts, a scale
/// comparable to the latency objective's cycles so mid-lattice weights
/// trade the two meaningfully.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticPowerModel {
    n: usize,
    /// W per `k²` per router (crossbar leakage at this flit width).
    alpha: f64,
    /// W per port (allocators/clocking).
    beta: f64,
    /// W per router (port-independent leakage + the fixed buffer budget).
    gamma: f64,
}

impl StaticPowerModel {
    /// Builds the model for rows of `n` routers at flit width `flit_bits`,
    /// with the paper's equalised per-router buffer budget (§4.6).
    pub fn new(
        n: usize,
        flit_bits: u32,
        buffer_bits_per_router: u64,
        config: &PowerConfig,
    ) -> Self {
        StaticPowerModel {
            n,
            alpha: config.p_xbar_static_uw_per_bit_port2 * flit_bits as f64 * 1e-6,
            beta: config.p_other_static_mw_per_port * 1e-3,
            gamma: config.p_other_static_mw_per_router * 1e-3
                + config.p_buffer_static_uw_per_bit * buffer_bits_per_router as f64 * 1e-6,
        }
    }

    /// Row length this model prices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The same coefficients restricted to a sub-row of `m` routers — the
    /// D&C recursion prices sub-placements as smaller replicated networks.
    pub fn with_n(&self, m: usize) -> Self {
        StaticPowerModel { n: m, ..*self }
    }

    /// Per-router static power (mW) from the exact degree moments. This is
    /// the single pricing expression both evaluation paths share; change it
    /// and both change together, keeping them bit-identical.
    pub fn power_mw_from_moments(&self, s1: u64, s2: u64) -> f64 {
        let n = self.n as f64;
        let s1 = s1 as f64;
        let s2 = s2 as f64;
        let sum_k = 2.0 * n * s1 + n * n;
        let sum_k2 = 2.0 * n * s2 + 2.0 * s1 * s1 + 4.0 * n * s1 + n * n;
        let total_w = self.alpha * sum_k2 + self.beta * sum_k + self.gamma * n * n;
        total_w * 1e3 / (n * n)
    }

    /// Per-router static power (mW) of the network `row` replicates to.
    ///
    /// # Panics
    /// Panics if `row.len() != self.n()`.
    pub fn eval_row(&self, row: &RowPlacement) -> f64 {
        assert_eq!(row.len(), self.n, "placement size mismatch");
        let (mut s1, mut s2) = (0u64, 0u64);
        for r in 0..self.n {
            let d = row.degree(r) as u64;
            s1 += d;
            s2 += d * d;
        }
        self.power_mw_from_moments(s1, s2)
    }

    /// Network-total static power (mW) from a per-router value.
    pub fn network_total_mw(&self, per_router_mw: f64) -> f64 {
        per_router_mw * (self.n * self.n) as f64
    }

    /// Stable fingerprint of everything the priced value depends on.
    pub fn fingerprint(&self) -> u64 {
        let mut h = noc_model::fingerprint::Fnv1a::with_tag("static-power");
        h.write_u64(self.n as u64);
        h.write_f64(self.alpha);
        h.write_f64(self.beta);
        h.write_f64(self.gamma);
        h.finish()
    }
}

/// Tracks [`StaticPowerModel::eval_row`] of a placement under the link
/// changes of single-bit flips, with an `O(1)` moment update per change.
///
/// The latency kernel ([`IncrementalAllPairs::flip_links`]) already walks
/// the flipped layer's spans and counts each span's multiplicity across
/// layers, so it reports exactly the *distinct* express links a flip adds
/// or removes. Degrees count distinct links (matching
/// [`ConnectionMatrix::decode`], which deduplicates spans encoded by
/// several layers), so each reported change bumps its two endpoints.
///
/// [`IncrementalAllPairs::flip_links`]: noc_placement::IncrementalAllPairs::flip_links
/// [`ConnectionMatrix::decode`]: noc_topology::ConnectionMatrix::decode
#[derive(Debug, Clone)]
pub struct IncrementalStaticPower {
    model: StaticPowerModel,
    /// Current total degree (mesh locals + distinct express) per router.
    degree: Vec<u64>,
    s1: u64,
    s2: u64,
}

impl IncrementalStaticPower {
    /// Builds the tracker for the placement `row`.
    ///
    /// # Panics
    /// Panics if `model.n()` differs from the row's length.
    pub fn new(row: &RowPlacement, model: StaticPowerModel) -> Self {
        assert_eq!(
            model.n(),
            row.len(),
            "power model sized for a different row"
        );
        let degree: Vec<u64> = (0..row.len()).map(|r| row.degree(r) as u64).collect();
        IncrementalStaticPower {
            model,
            s1: degree.iter().sum(),
            s2: degree.iter().map(|d| d * d).sum(),
            degree,
        }
    }

    /// Per-router static power (mW) of the tracked placement, bit-identical
    /// to [`StaticPowerModel::eval_row`] of it.
    pub fn objective(&self) -> f64 {
        self.model.power_mw_from_moments(self.s1, self.s2)
    }

    /// Applies the link changes of one flip.
    pub fn apply(&mut self, changes: &LinkChanges) {
        for change in changes.as_slice() {
            for r in [change.a, change.b] {
                let old = self.degree[r];
                let new = if change.added { old + 1 } else { old - 1 };
                self.degree[r] = new;
                self.s1 = self.s1 - old + new;
                self.s2 = self.s2 - old * old + new * new;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_placement::IncrementalAllPairs;
    use noc_rng::rngs::SmallRng;
    use noc_rng::{Rng, SeedableRng};
    use noc_routing::HopWeights;
    use noc_topology::ConnectionMatrix;

    fn model(n: usize) -> StaticPowerModel {
        StaticPowerModel::new(n, 256, 10_240, &PowerConfig::dsent_32nm())
    }

    #[test]
    fn matches_network_power_static_total() {
        // The closed form must agree (to float tolerance; summation order
        // differs) with summing noc_power's per-router static terms over
        // the replicated topology.
        use noc_sim::{ActivityCounters, SimStats};
        let n = 8;
        let row = noc_topology::hfb_row(n);
        let topo = noc_topology::MeshTopology::uniform(n, &row);
        let stats = SimStats {
            cycles: 1,
            measure_cycles: 1,
            nodes: n * n,
            measured_packets: 0,
            completed_packets: 0,
            avg_packet_latency: 0.0,
            avg_head_latency: 0.0,
            max_packet_latency: 0,
            p50_latency: 0.0,
            p95_latency: 0.0,
            p99_latency: 0.0,
            accepted_throughput: 0.0,
            offered_rate: 0.0,
            avg_flits_per_packet: 0.0,
            activity: vec![ActivityCounters::default(); n * n],
            drained: true,
        };
        let cfg = PowerConfig::dsent_32nm();
        let full = noc_power::network_power(&topo, 64, 10_240, &stats, &cfg);
        let m = StaticPowerModel::new(n, 64, 10_240, &cfg);
        let proxy_total_w = m.network_total_mw(m.eval_row(&row)) * 1e-3;
        let rel = (proxy_total_w - full.total.static_total()).abs() / full.total.static_total();
        assert!(
            rel < 1e-9,
            "proxy {proxy_total_w} vs {}",
            full.total.static_total()
        );
    }

    /// Drives the tracker from the latency kernel's link changes, as the
    /// scalarized evaluator does.
    fn tracked(
        matrix: &ConnectionMatrix,
        m: StaticPowerModel,
    ) -> (IncrementalAllPairs, IncrementalStaticPower) {
        let kernel = IncrementalAllPairs::try_new(matrix, HopWeights::PAPER).unwrap();
        (kernel, IncrementalStaticPower::new(&matrix.decode(), m))
    }

    #[test]
    fn incremental_matches_full_on_random_walks() {
        let mut rng = SmallRng::seed_from_u64(0xBEEF);
        for (n, c) in [(8usize, 4usize), (12, 3), (16, 8)] {
            let m = model(n);
            let mut matrix = ConnectionMatrix::new(n, c);
            let (mut kernel, mut inc) = tracked(&matrix, m);
            assert_eq!(
                inc.objective().to_bits(),
                m.eval_row(&matrix.decode()).to_bits(),
                "initial state n={n}"
            );
            let bits = matrix.bit_count();
            for step in 0..300 {
                let bit = rng.gen_range(0..bits);
                matrix.flip_flat(bit);
                inc.apply(&kernel.flip_links(bit));
                let fast = inc.objective();
                let slow = m.eval_row(&matrix.decode());
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "step {step}: flip {bit} gave {fast}, full {slow}"
                );
            }
        }
    }

    #[test]
    fn flip_is_an_involution() {
        let m = model(8);
        let mut matrix = ConnectionMatrix::new(8, 4);
        let (mut kernel, mut inc) = tracked(&matrix, m);
        for bit in [0usize, 7, 3, 12] {
            matrix.flip_flat(bit);
            inc.apply(&kernel.flip_links(bit));
        }
        let before = inc.objective().to_bits();
        for bit in 0..matrix.bit_count() {
            inc.apply(&kernel.flip_links(bit));
            inc.apply(&kernel.flip_links(bit));
            assert_eq!(inc.objective().to_bits(), before, "bit {bit}");
        }
    }

    #[test]
    fn more_links_cost_more_power() {
        let m = model(8);
        let mesh = RowPlacement::new(8);
        let hfb = noc_topology::hfb_row(8);
        assert!(m.eval_row(&hfb) > m.eval_row(&mesh));
    }

    #[test]
    fn narrower_flits_cut_crossbar_leakage() {
        let row = noc_topology::hfb_row(8);
        let cfg = PowerConfig::dsent_32nm();
        let wide = StaticPowerModel::new(8, 256, 10_240, &cfg);
        let narrow = StaticPowerModel::new(8, 64, 10_240, &cfg);
        assert!(narrow.eval_row(&row) < wide.eval_row(&row));
        assert_ne!(wide.fingerprint(), narrow.fingerprint());
    }
}
