//! Batch telemetry, in its own test binary because tracing is a
//! process-global switch: tracing-on bit-identity (lane stats must not be
//! perturbed, and must still match tracing-on one-lane runs), the
//! `sim.batch.*` counter deltas, and the lane-occupancy histogram.

use noc_model::PacketMix;
use noc_sim::{BatchSimulator, SimConfig, SimStats, Simulator};
use noc_topology::MeshTopology;
use noc_traffic::{SyntheticPattern, TrafficMatrix, Workload};

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
