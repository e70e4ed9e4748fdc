//! Saturation-throughput measurement (Fig. 8b's metric).
//!
//! The accepted throughput of a topology under a traffic pattern is swept by
//! raising the offered injection rate until the network stops accepting it:
//! below saturation accepted ≈ offered; beyond it the accepted rate
//! plateaus (and latencies diverge). We report the plateau — the classic
//! saturation throughput in packets per node per cycle.

use crate::batch::{BatchSimulator, MAX_LANES};
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

/// The geometric rate ladder `saturation_sweep` walks: `start`, then
/// `rate · 1.3` capped at `1.0`, ending with the capped point. Computing it
/// up front (with bit-identical arithmetic to the sequential walk) is what
/// lets the parallel sweep speculate ahead of the stopping rule.
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

/// Default lockstep width: enough lanes to cover a full rate ladder in
/// one or two batch passes while staying well inside [`MAX_LANES`].
const DEFAULT_BATCH_LANES: usize = 8;

/// Below this many parallel items the thread fan-out costs more than it
/// buys (BENCH_sim.json: flat `noc_par` scaling on a 1-core host), so the
/// runner degrades to in-place sequential execution. Results are
/// byte-identical either way — worker assignment never changes inputs.
const SMALL_FANOUT_THRESHOLD: usize = 3;

/// Fans independent (load-point, seed) simulations across `noc-par`
/// workers, packing rate points into [`BatchSimulator`] lockstep lanes
/// (`batch_lanes` per pass). Results are returned in input order and are
/// **bit-identical** for any worker count *and* any lane count, including
/// the sequential one-lane reference: each simulation is internally
/// deterministic, the routing/structure tables are shared read-only,
/// lanes never interact, and worker assignment only changes *which
/// thread* runs a point, never its inputs. Adaptive sweeps
/// speculate: the whole rate ladder is simulated in wave-sized chunks and
/// the sequential stopping rule is applied afterwards, discarding any
/// points the sequential walk would not have reached.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    workers: usize,
    batch_lanes: usize,
}

impl SweepRunner {
    /// A runner with an explicit worker count (`0` = one per core) and the
    /// default lockstep width.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            noc_par::default_workers()
        } else {
            workers
        };
        SweepRunner {
            workers,
            batch_lanes: DEFAULT_BATCH_LANES,
        }
    }

    /// The single-threaded, one-lane reference runner.
    pub fn sequential() -> Self {
        SweepRunner {
            workers: 1,
            batch_lanes: 1,
        }
    }

    /// Sets the lockstep width: how many load points one
    /// [`BatchSimulator`] pass carries. `0` restores the default; `1`
    /// runs one replica per pass; values above [`MAX_LANES`] are clamped.
    pub fn with_batch_lanes(mut self, lanes: usize) -> Self {
        self.batch_lanes = match lanes {
            0 => DEFAULT_BATCH_LANES,
            l => l.min(MAX_LANES),
        };
        self
    }

    /// Worker threads this runner fans out across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Lockstep lanes per batch pass.
    pub fn batch_lanes(&self) -> usize {
        self.batch_lanes
    }

    /// The small-batch heuristic: sequential below the fan-out threshold,
    /// never more workers than items.
    fn effective_workers(&self, items: usize) -> usize {
        if items < SMALL_FANOUT_THRESHOLD {
            1
        } else {
            self.workers.min(items)
        }
    }

    /// Simulates one workload per rate in `rates` (sharing one routing
    /// solve and one set of network tables) and returns the full
    /// statistics in input order.
    pub fn run_rates(
        &self,
        topology: &MeshTopology,
        workload: &Workload,
        config: &SimConfig,
        rates: &[f64],
    ) -> Vec<SimStats> {
        let dor = DorRouter::new(topology, config.weights);
        let tables = Arc::new(NetTables::build(topology, &dor, config.vcs_per_port));
        self.run_rates_tables(&tables, workload, config, rates)
    }

    fn run_rates_tables(
        &self,
        tables: &Arc<NetTables>,
        workload: &Workload,
        config: &SimConfig,
        rates: &[f64],
    ) -> Vec<SimStats> {
        // Pack lane-sized groups of load points into one batch pass each
        // and fan the groups across workers.
        let lanes = self.batch_lanes.min(rates.len().max(1));
        let groups: Vec<Vec<f64>> = rates.chunks(lanes).map(<[f64]>::to_vec).collect();
        let workers = self.effective_workers(groups.len());
        let stats = noc_par::par_map_with(
            groups,
            workers,
            || (),
            |(), group| {
                let replicas = group
                    .iter()
                    .map(|&rate| (workload.at_rate(rate), *config))
                    .collect();
                BatchSimulator::with_tables(Arc::clone(tables), replicas).run()
            },
        );
        stats.into_iter().flatten().collect()
    }

    /// Sweeps offered load geometrically from `start_rate` until the
    /// network saturates (accepted < 90% of offered) or the rate reaches
    /// 1.0, then refines once between the last two rates. Samples are
    /// bit-identical to the sequential [`saturation_sweep`] for any worker
    /// count; with more than one worker the ladder is simulated
    /// speculatively in waves.
    pub fn saturation_sweep(
        &self,
        topology: &MeshTopology,
        workload: &Workload,
        config: &SimConfig,
        start_rate: f64,
    ) -> ThroughputResult {
        assert!(start_rate > 0.0 && start_rate <= 1.0);
        let dor = DorRouter::new(topology, config.weights);
        let tables = Arc::new(NetTables::build(topology, &dor, config.vcs_per_port));
        let ladder = rate_ladder(start_rate);

        // Simulate the ladder in waves of (workers × lanes) points,
        // applying the stopping rule after each wave: every sample up to
        // and including the first saturated point is exactly what the
        // sequential walk produces; later points in the same wave are
        // discarded speculation.
        let wave_len = self.workers.max(1) * self.batch_lanes.max(1);
        let mut samples: Vec<SweepSample> = Vec::new();
        let mut stop = ladder.len() - 1;
        'waves: for wave in ladder.chunks(wave_len) {
            let stats = self.run_rates_tables(&tables, workload, config, wave);
            for (k, s) in stats.iter().enumerate() {
                let sample = sample_of(s);
                let rate = wave[k];
                samples.push(sample);
                if sample.accepted < 0.9 * sample.offered || rate >= 1.0 {
                    stop = samples.len() - 1;
                    break 'waves;
                }
            }
        }
        samples.truncate(stop + 1);

        // One refinement step between the last sub-saturation and the first
        // saturated rate sharpens the knee estimate.
        if samples.len() >= 2 {
            let mid = (ladder[stop - 1] + ladder[stop]) / 2.0;
            let stats =
                Simulator::with_tables(Arc::clone(&tables), workload.at_rate(mid), *config).run();
            samples.push(sample_of(&stats));
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
        let stats = SweepRunner::sequential().run_rates(&topo, &ur_workload(4), &config, &[0.02]);
        let s = sample_of(&stats[0]);
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
    fn sweep_runner_is_deterministic_across_lane_counts() {
        let topo = MeshTopology::mesh(4);
        let mut config = SimConfig::throughput_run(256, 11);
        config.warmup_cycles = 500;
        config.measure_cycles = 1_500;
        let workload = ur_workload(4);
        let rates = [0.02, 0.05, 0.09, 0.14, 0.2, 0.3, 0.45];

        let fp =
            |stats: &[SimStats]| -> Vec<u64> { stats.iter().map(SimStats::fingerprint).collect() };
        // One-lane, single-worker reference.
        let reference = SweepRunner::sequential().run_rates(&topo, &workload, &config, &rates);
        for lanes in [1usize, 4, 8] {
            for workers in [1usize, 2] {
                let runner = SweepRunner::new(workers).with_batch_lanes(lanes);
                let result = runner.run_rates(&topo, &workload, &config, &rates);
                assert_eq!(
                    fp(&result),
                    fp(&reference),
                    "lanes={lanes} workers={workers} must be bit-identical to one-lane runs"
                );
            }
        }
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
