//! Saturation-throughput measurement (Fig. 8b's metric).
//!
//! The accepted throughput of a topology under a traffic pattern is swept by
//! raising the offered injection rate until the network stops accepting it:
//! below saturation accepted ≈ offered; beyond it the accepted rate
//! plateaus (and latencies diverge). We report the plateau — the classic
//! saturation throughput in packets per node per cycle.

use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::network::NetTables;
use crate::stats::SimStats;
use noc_routing::DorRouter;
use noc_topology::MeshTopology;
use noc_traffic::Workload;
use std::sync::Arc;

/// One sample of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepSample {
    /// Offered rate (packets per node per cycle).
    pub offered: f64,
    /// Accepted rate measured over the window.
    pub accepted: f64,
    /// Mean packet latency of delivered measured packets (cycles).
    pub avg_latency: f64,
}

/// Result of a saturation sweep.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// All samples, in increasing offered rate.
    pub samples: Vec<SweepSample>,
    /// Saturation throughput: the highest accepted rate observed.
    pub saturation: f64,
}

/// Sweeps offered load geometrically from `start_rate` until the network
/// saturates (accepted < 90% of offered) or the rate reaches 1.0, then
/// refines once between the last two rates.
pub fn saturation_sweep(
    topology: &MeshTopology,
    workload: &Workload,
    config: &SimConfig,
    start_rate: f64,
) -> ThroughputResult {
    SweepRunner::sequential().saturation_sweep(topology, workload, config, start_rate)
}

/// The smallest `start_rate` a sweep takes. The ladder grows the rate
/// by 1.3 a point, so from here it reaches 1.0 within 28 points; from a
/// start small enough that `rate · 1.3` rounds back to `rate`, it would
/// never end.
pub const MIN_START_RATE: f64 = 0.001;

/// The geometric rate ladder `saturation_sweep` walks: `start`, then
/// `rate · 1.3` capped at `1.0`, ending with the capped point.
fn rate_ladder(start_rate: f64) -> Vec<f64> {
    let growth = 1.3;
    let mut rates = vec![start_rate];
    let mut rate = start_rate;
    while rate < 1.0 {
        rate = (rate * growth).min(1.0);
        rates.push(rate);
    }
    rates
}

fn sample_of(stats: &SimStats) -> SweepSample {
    // Offered load is what the sources actually injected, not the nominal
    // Bernoulli rate: permutation patterns silence their fixed points (e.g.
    // the transpose diagonal), which must not read as saturation.
    let offered =
        stats.measured_packets as f64 / (stats.measure_cycles.max(1) as f64 * stats.nodes as f64);
    SweepSample {
        offered,
        accepted: stats.accepted_throughput,
        avg_latency: stats.avg_packet_latency,
    }
}

/// Fans the load points of a saturation sweep across `noc-par` workers.
/// Samples are **bit-identical** for any worker count, including the
/// sequential reference: each point is its own one-lane simulation over
/// network tables shared read-only, and the worker count only changes
/// *which thread* runs a point, never its inputs.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    workers: usize,
}

impl SweepRunner {
    /// A runner with an explicit worker count (`0` = one per core).
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            noc_par::default_workers()
        } else {
            workers
        };
        SweepRunner { workers }
    }

    /// The single-threaded reference runner.
    pub fn sequential() -> Self {
        SweepRunner { workers: 1 }
    }

    /// Worker threads this runner fans out across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sweeps offered load geometrically from `start_rate` until the
    /// network saturates (accepted < 90% of offered) or the rate reaches
    /// 1.0, then refines once between the last two rates. Samples are
    /// bit-identical to the sequential [`saturation_sweep`] for any worker
    /// count.
    ///
    /// The ladder is walked in waves of `workers` points, one thread per
    /// point, and the stopping rule is applied after each wave. So one
    /// worker simulates exactly the points it reports, and `W` workers
    /// discard at most `W − 1` points past the first saturated one.
    ///
    /// # Panics
    /// Panics unless `start_rate` lies in `[MIN_START_RATE, 1]`.
    pub fn saturation_sweep(
        &self,
        topology: &MeshTopology,
        workload: &Workload,
        config: &SimConfig,
        start_rate: f64,
    ) -> ThroughputResult {
        assert!(
            (MIN_START_RATE..=1.0).contains(&start_rate),
            "start_rate {start_rate} outside [{MIN_START_RATE}, 1]"
        );
        let dor = DorRouter::new(topology, config.weights);
        let tables = Arc::new(NetTables::build(topology, &dor, config.vcs_per_port));
        let point = |rate: f64| {
            let workload = workload.at_rate(rate);
            sample_of(&Simulator::with_tables(Arc::clone(&tables), workload, *config).run())
        };
        let ladder = rate_ladder(start_rate);

        // Every sample up to and including the first saturated point is
        // exactly what the sequential walk produces; later points of the
        // same wave are discarded. The ladder ends at 1.0, so running out
        // of it stops the walk too.
        let mut samples: Vec<SweepSample> = Vec::new();
        'waves: for wave in ladder.chunks(self.workers) {
            let wave = noc_par::par_map_with(wave.to_vec(), self.workers, || (), |(), r| point(r));
            for sample in wave {
                samples.push(sample);
                if sample.accepted < 0.9 * sample.offered {
                    break 'waves;
                }
            }
        }

        // One refinement step between the last sub-saturation and the first
        // saturated rate sharpens the knee estimate.
        let stop = samples.len() - 1;
        if stop > 0 {
            samples.push(point((ladder[stop - 1] + ladder[stop]) / 2.0));
            samples.sort_by(|a, b| a.offered.total_cmp(&b.offered));
        }

        let saturation = samples.iter().map(|s| s.accepted).fold(0.0f64, f64::max);
        ThroughputResult {
            samples,
            saturation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::PacketMix;
    use noc_traffic::{SyntheticPattern, TrafficMatrix};

    fn ur_workload(n: usize) -> Workload {
        Workload::new(
            TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, n),
            0.01,
            PacketMix::paper(),
        )
    }

    #[test]
    fn below_saturation_accepted_tracks_offered() {
        let topo = MeshTopology::mesh(4);
        let config = SimConfig::throughput_run(256, 3);
        let stats = Simulator::new(&topo, ur_workload(4).at_rate(0.02), config).run();
        let s = sample_of(&stats);
        assert!(
            (s.accepted - s.offered).abs() < 0.005,
            "accepted {} vs offered {}",
            s.accepted,
            s.offered
        );
    }

    #[test]
    fn sweep_runner_is_deterministic_across_worker_counts() {
        let topo = MeshTopology::mesh(4);
        let mut config = SimConfig::throughput_run(256, 7);
        config.warmup_cycles = 500;
        config.measure_cycles = 2_000;
        let workload = ur_workload(4);

        let key = |r: &ThroughputResult| -> Vec<(u64, u64, u64)> {
            r.samples
                .iter()
                .map(|s| {
                    (
                        s.offered.to_bits(),
                        s.accepted.to_bits(),
                        s.avg_latency.to_bits(),
                    )
                })
                .collect()
        };
        let reference = saturation_sweep(&topo, &workload, &config, 0.02);
        for workers in [1usize, 2, 8] {
            let result =
                SweepRunner::new(workers).saturation_sweep(&topo, &workload, &config, 0.02);
            assert_eq!(
                key(&result),
                key(&reference),
                "{workers}-worker sweep must be bit-identical to the sequential reference"
            );
            assert_eq!(result.saturation.to_bits(), reference.saturation.to_bits());
        }
    }

    #[test]
    fn the_ladder_from_the_smallest_start_rate_is_short() {
        let ladder = rate_ladder(MIN_START_RATE);
        assert!(ladder.len() <= 28, "{} points", ladder.len());
        assert_eq!(ladder.last(), Some(&1.0));
    }

    #[test]
    #[should_panic(expected = "start_rate")]
    fn a_start_rate_below_the_bound_is_refused() {
        let config = SimConfig::throughput_run(256, 3);
        saturation_sweep(&MeshTopology::mesh(4), &ur_workload(4), &config, 0.000999);
    }

    #[test]
    fn sweep_finds_a_finite_saturation() {
        let topo = MeshTopology::mesh(4);
        let mut config = SimConfig::throughput_run(256, 7);
        config.warmup_cycles = 1_000;
        config.measure_cycles = 4_000;
        let result = saturation_sweep(&topo, &ur_workload(4), &config, 0.02);
        assert!(result.saturation > 0.02, "sat {}", result.saturation);
        assert!(result.saturation < 1.0);
        // Samples are sorted and the last offered rate is saturated or 1.0.
        for w in result.samples.windows(2) {
            assert!(w[0].offered <= w[1].offered);
        }
    }
}
