//! Analytic contention model — an extension beyond the paper's zero-load
//! objective.
//!
//! The paper optimizes zero-load head latency and notes that contention is
//! low at realistic loads (`T_c` < 1 cycle/hop, §4.2). This module models
//! *how* latency departs from zero load as the injection rate grows, so the
//! latency/throughput trade-off of Fig. 8 can be reasoned about without
//! simulation:
//!
//! * Every directed channel is treated as a queueing station with
//!   deterministic service (one packet of `F` flits occupies a channel for
//!   `F` cycles) and Poisson-ish arrivals — the M/D/1 mean-wait formula
//!   `W = ρ·F / (2(1 − ρ))`.
//! * Channel loads `ρ` follow from the deterministic routes: every
//!   source–destination flow contributes its flit rate to every channel on
//!   its path.
//! * The network saturates when its most-loaded channel reaches unit
//!   utilisation, giving a closed-form saturation-throughput estimate.
//!
//! The model is validated against the cycle-level simulator in the
//! integration tests: predictions are exact at zero load, track the sim at
//! moderate loads, and rank topologies' saturation points correctly.

use crate::latency::LatencyModel;
use noc_routing::{DorRouter, HopWeights};
use std::collections::HashMap;

/// Load analysis of a topology under a traffic distribution.
#[derive(Debug, Clone)]
pub struct LoadAnalysis {
    /// Utilisation (flits per cycle) per directed channel `(from, to)`.
    pub channel_load: HashMap<(usize, usize), f64>,
    /// The highest channel utilisation.
    pub max_utilization: f64,
    /// Estimated saturation injection rate (packets/node/cycle): the offered
    /// rate at which the most-loaded channel reaches `ρ = 1`.
    pub saturation_rate: f64,
    /// Traffic-weighted mean packet latency prediction (cycles), including
    /// queueing waits and serialization.
    pub predicted_latency: f64,
}

/// Analytic contention model over a routed topology.
#[derive(Debug, Clone, Copy)]
pub struct ContentionModel {
    /// Hop cost parameters (for the zero-load component).
    pub weights: HopWeights,
}

impl ContentionModel {
    /// Model with the paper's weights.
    pub fn paper() -> Self {
        ContentionModel {
            weights: HopWeights::PAPER,
        }
    }

    /// Analyses a traffic distribution on a routed topology.
    ///
    /// * `gamma` — row-major `N × N` destination distribution (each row a
    ///   probability distribution over destinations, as
    ///   `noc-traffic`'s `TrafficMatrix::as_slice` provides).
    /// * `injection_rate` — offered packets per node per cycle.
    /// * `mean_flits` — mean flits per packet at the design's link width.
    /// * `serialization` — mean serialization latency `L_S` in cycles.
    pub fn analyze(
        &self,
        dor: &DorRouter,
        gamma: &[f64],
        injection_rate: f64,
        mean_flits: f64,
        serialization: f64,
    ) -> LoadAnalysis {
        let n = dor.side();
        let routers = n * n;
        assert_eq!(gamma.len(), routers * routers, "gamma must be N x N");
        assert!(injection_rate >= 0.0 && mean_flits >= 1.0);

        // Accumulate per-channel flit rates and remember each pair's route.
        let mut channel_load: HashMap<(usize, usize), f64> = HashMap::new();
        let mut routes: Vec<(usize, usize, f64)> = Vec::new(); // (src, dst, weight)
        for src in 0..routers {
            for dst in 0..routers {
                let w = gamma[src * routers + dst];
                if w <= 0.0 || src == dst {
                    continue;
                }
                let flit_rate = injection_rate * w * mean_flits;
                for hop in dor.route(src, dst).hops {
                    *channel_load.entry((hop.from, hop.to)).or_insert(0.0) += flit_rate;
                }
                routes.push((src, dst, w));
            }
        }
        let max_utilization = channel_load.values().copied().fold(0.0f64, f64::max);

        // Per-pair predicted latency: zero-load head + M/D/1 waits on each
        // traversed channel + serialization.
        let latency_model = LatencyModel {
            weights: self.weights,
        };
        let mut num = 0.0;
        let mut den = 0.0;
        for &(src, dst, w) in &routes {
            let mut wait = 0.0;
            for hop in dor.route(src, dst).hops {
                let rho = channel_load[&(hop.from, hop.to)];
                // Beyond saturation the wait is unbounded; clamp so callers
                // see a large-but-finite signal.
                let rho = rho.min(0.999);
                wait += rho * mean_flits / (2.0 * (1.0 - rho));
            }
            let head = latency_model.head_pair(dor, src, dst) as f64;
            num += w * (head + wait + serialization);
            den += w;
        }
        LoadAnalysis {
            channel_load,
            max_utilization,
            saturation_rate: if max_utilization > 0.0 {
                injection_rate / max_utilization
            } else {
                f64::INFINITY
            },
            predicted_latency: if den == 0.0 { 0.0 } else { num / den },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::{MeshTopology, RowPlacement};

    /// Uniform-random gamma over an n×n mesh (row-normalised).
    fn ur_gamma(n: usize) -> Vec<f64> {
        let routers = n * n;
        let mut g = vec![0.0; routers * routers];
        for s in 0..routers {
            for d in 0..routers {
                if s != d {
                    g[s * routers + d] = 1.0 / (routers - 1) as f64;
                }
            }
        }
        g
    }

    #[test]
    fn zero_load_prediction_matches_latency_model() {
        let topo = MeshTopology::mesh(4);
        let dor = DorRouter::new(&topo, HopWeights::PAPER);
        let model = ContentionModel::paper();
        let gamma = ur_gamma(4);
        let a = model.analyze(&dor, &gamma, 0.0, 1.0, 1.2);
        // No load, no waits: prediction = mean head over UR pairs + L_S.
        let lm = LatencyModel::paper();
        let mut head = 0.0;
        for s in 0..16 {
            for d in 0..16 {
                if s != d {
                    head += lm.head_pair(&dor, s, d) as f64;
                }
            }
        }
        let expected = head / 240.0 + 1.2;
        assert!((a.predicted_latency - expected).abs() < 1e-9);
        assert_eq!(a.max_utilization, 0.0);
    }

    #[test]
    fn latency_grows_with_load_and_diverges_near_saturation() {
        let topo = MeshTopology::mesh(4);
        let dor = DorRouter::new(&topo, HopWeights::PAPER);
        let model = ContentionModel::paper();
        let gamma = ur_gamma(4);
        let mut prev = 0.0;
        for rate in [0.01, 0.05, 0.1, 0.2] {
            let a = model.analyze(&dor, &gamma, rate, 1.6, 1.2);
            assert!(a.predicted_latency > prev, "not monotone at {rate}");
            prev = a.predicted_latency;
        }
        // Near the saturation estimate the predicted latency blows up.
        let sat = model.analyze(&dor, &gamma, 0.01, 1.6, 1.2).saturation_rate;
        let near = model.analyze(&dor, &gamma, sat * 0.98, 1.6, 1.2);
        assert!(near.predicted_latency > prev * 3.0);
    }

    #[test]
    fn saturation_estimate_is_rate_invariant() {
        // Loads scale linearly with rate, so the estimate must not depend on
        // the probe rate.
        let topo = MeshTopology::mesh(8);
        let dor = DorRouter::new(&topo, HopWeights::PAPER);
        let model = ContentionModel::paper();
        let gamma = ur_gamma(8);
        let a = model.analyze(&dor, &gamma, 0.01, 1.6, 1.2);
        let b = model.analyze(&dor, &gamma, 0.05, 1.6, 1.2);
        assert!((a.saturation_rate - b.saturation_rate).abs() < 1e-9);
        // UR on a 2n-wide bisection: per-direction channel load bounds the
        // rate; the classic mesh UR limit is ~ 4·b / (N·F) in this unit —
        // just require a plausible range.
        assert!(a.saturation_rate > 0.05 && a.saturation_rate < 1.0);
    }

    #[test]
    fn flit_hop_conservation() {
        let topo = MeshTopology::mesh(4);
        let dor = DorRouter::new(&topo, HopWeights::PAPER);
        let model = ContentionModel::paper();
        let gamma = ur_gamma(4);
        let rate = 0.02;
        let flits = 1.6;
        let a = model.analyze(&dor, &gamma, rate, flits, 1.2);
        // Total flit·hops/cycle = Σ_pairs rate·γ·F·hops(pair).
        let mut expected = 0.0;
        for s in 0..16 {
            for d in 0..16 {
                if s != d {
                    let hops = dor.route(s, d).hop_count() as f64;
                    expected += rate * gamma[s * 16 + d] * flits * hops;
                }
            }
        }
        let total: f64 = a.channel_load.values().sum();
        assert!((total - expected).abs() < 1e-9);
    }

    #[test]
    fn express_links_raise_saturation_over_hfb_style_bottlenecks() {
        // A topology with a seam bottleneck (HFB-like) saturates earlier
        // than the mesh under UR: all cross traffic squeezes through the
        // single seam link pair.
        let n = 8;
        let mesh = MeshTopology::mesh(n);
        let hfb = noc_topology::hfb_mesh(n);
        let model = ContentionModel::paper();
        let gamma = ur_gamma(n);
        let mesh_sat = model
            .analyze(
                &DorRouter::new(&mesh, HopWeights::PAPER),
                &gamma,
                0.01,
                1.6,
                1.2,
            )
            .saturation_rate;
        // HFB at C = 4 runs 4x narrower links -> 4x the flits per packet.
        let hfb_sat = model
            .analyze(
                &DorRouter::new(&hfb, HopWeights::PAPER),
                &gamma,
                0.01,
                6.4,
                3.2,
            )
            .saturation_rate;
        assert!(
            hfb_sat < mesh_sat / 2.0,
            "hfb {hfb_sat} not < half of mesh {mesh_sat} (paper Fig. 8b)"
        );
        let _ = RowPlacement::new(n);
    }
}
