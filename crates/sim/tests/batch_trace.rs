//! Batch telemetry, in its own test binary because tracing is a
//! process-global switch: tracing-on bit-identity (lane stats must not be
//! perturbed, and must still match tracing-on one-lane runs), the
//! `sim.batch.*` counter deltas, the lane-occupancy histogram, and the
//! points a saturation sweep simulates.

use noc_model::PacketMix;
use noc_sim::{saturation_sweep, SweepRunner, ThroughputResult};
use noc_sim::{BatchSimulator, SimConfig, SimStats, Simulator};
use noc_topology::MeshTopology;
use noc_traffic::{SyntheticPattern, TrafficMatrix, Workload};
use std::sync::{Mutex, PoisonError};

/// Tracing and its counters are process-global, so the tests of this
/// binary take turns with them.
static TRACING: Mutex<()> = Mutex::new(());

fn replicas(k: usize) -> Vec<(Workload, SimConfig)> {
    (0..k)
        .map(|i| {
            let mut config = SimConfig::latency_run(256, 0xb0 + i as u64);
            config.warmup_cycles = 200;
            // Stagger windows so lanes finish at different cycles and the
            // early-finish masking path actually runs.
            config.measure_cycles = 400 + 150 * i as u64;
            let matrix = TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, 4);
            let rate = 0.04 + 0.02 * i as f64;
            (Workload::new(matrix, rate, PacketMix::paper()), config)
        })
        .collect()
}

fn counter(name: &str) -> u64 {
    noc_trace::registry_snapshot()
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or(0)
}

fn fingerprints(stats: &[SimStats]) -> Vec<u64> {
    stats.iter().map(|s| s.fingerprint()).collect()
}

#[test]
fn tracing_on_keeps_bit_identity_and_counts_batch_metrics() {
    let _turn = TRACING.lock().unwrap_or_else(PoisonError::into_inner);
    let topology = MeshTopology::mesh(4);
    let quiet = BatchSimulator::new(&topology, replicas(4)).run();

    noc_trace::enable_with_capacity(65_536);
    // One-lane runs are batches too: take them before the counter
    // baseline so the deltas below count the 4-lane pass alone.
    let single: Vec<SimStats> = replicas(4)
        .into_iter()
        .map(|(w, c)| Simulator::new(&topology, w, c).run())
        .collect();
    noc_trace::drain_events();
    let runs0 = counter("sim.batch.runs");
    let lanes0 = counter("sim.batch.lanes");
    let masked0 = counter("sim.batch.masked_cycles");

    let traced = BatchSimulator::new(&topology, replicas(4)).run();
    let batch_events = noc_trace::drain_events();

    let runs1 = counter("sim.batch.runs");
    let lanes1 = counter("sim.batch.lanes");
    let masked1 = counter("sim.batch.masked_cycles");
    let snapshot = noc_trace::registry_snapshot();
    noc_trace::disable();

    // Tracing must not perturb any lane: bit-identical to the quiet batch
    // and to tracing-on one-lane runs.
    assert_eq!(fingerprints(&traced), fingerprints(&quiet));
    assert_eq!(fingerprints(&traced), fingerprints(&single));

    // Counter deltas: one batch run of 4 lanes; staggered windows force
    // early finishers to idle in masked lockstep slots.
    assert_eq!(runs1 - runs0, 1);
    assert_eq!(lanes1 - lanes0, 4);
    assert!(
        masked1 - masked0 > 0,
        "staggered lanes must accumulate masked cycles"
    );

    // Lane-occupancy histogram sampled once per lockstep cycle: every
    // recorded value is the live-lane count, 1..=K.
    let occupancy = snapshot
        .get("histograms")
        .and_then(|h| h.get("sim.batch.lane_occupancy"))
        .expect("lane occupancy histogram registered");
    let count = occupancy.get("count").and_then(|v| v.as_u64()).unwrap();
    let sum = occupancy.get("sum").and_then(|v| v.as_u64()).unwrap();
    assert!(count > 0);
    assert!(sum >= count && sum <= count * 4, "live lanes in 1..=4");

    // The batch emits the per-lane sim.link / sim.router series.
    assert!(batch_events.iter().any(|e| e.name == "sim.link"));
    assert!(batch_events.iter().any(|e| e.name == "sim.router"));
}

fn sample_bits(result: &ThroughputResult) -> Vec<[u64; 3]> {
    result
        .samples
        .iter()
        .map(|s| [s.offered, s.accepted, s.avg_latency].map(f64::to_bits))
        .collect()
}

#[test]
fn a_sweep_simulates_only_the_points_it_reports() {
    let _turn = TRACING.lock().unwrap_or_else(PoisonError::into_inner);
    let topology = MeshTopology::mesh(4);
    let matrix = TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, 4);
    let workload = Workload::new(matrix, 0.02, PacketMix::paper());
    let config = SimConfig::throughput_run(128, 7);
    let reference = saturation_sweep(&topology, &workload, &config, 0.02);

    noc_trace::enable_with_capacity(65_536);
    let mut simulated = Vec::new();
    for workers in [1u64, 2, 8] {
        let before = counter("sim.batch.lanes");
        let result = SweepRunner::new(workers as usize)
            .saturation_sweep(&topology, &workload, &config, 0.02);
        simulated.push((workers, counter("sim.batch.lanes") - before));
        assert_eq!(
            sample_bits(&result),
            sample_bits(&reference),
            "{workers} workers"
        );
        assert_eq!(result.saturation.to_bits(), reference.saturation.to_bits());
    }
    noc_trace::disable();

    // Every point is a one-lane run; one worker simulates exactly the
    // points it reports, and W workers discard at most W − 1 of a wave.
    let reported = reference.samples.len() as u64;
    for (workers, lanes) in simulated {
        assert!(
            (reported..reported + workers).contains(&lanes),
            "{workers} workers simulated {lanes} points for {reported} samples"
        );
    }
}
