//! Batch-engine snapshot/restore: resumed lockstep batches must be
//! bit-identical, lane for lane, to uninterrupted runs — and to one-lane
//! runs of each replica.

use noc_model::PacketMix;
use noc_sim::{BatchSimulator, SimConfig, Simulator};
use noc_snapshot::SnapshotError;
use noc_topology::{MeshTopology, RowPlacement};
use noc_traffic::{SyntheticPattern, TrafficMatrix, Workload};

fn workload(n: usize, rate: f64) -> Workload {
    Workload::new(
        TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, n),
        rate,
        PacketMix::paper(),
    )
}

fn replicas(n: usize) -> Vec<(Workload, SimConfig)> {
    [(0.01, 3u64), (0.03, 5), (0.05, 7), (0.02, 11)]
        .iter()
        .map(|&(rate, seed)| (workload(n, rate), SimConfig::latency_run(256, seed)))
        .collect()
}

#[test]
fn batch_snapshot_resumes_bit_identically() {
    let topo = MeshTopology::mesh(4);
    let reference: Vec<u64> = BatchSimulator::new(&topo, replicas(4))
        .run()
        .iter()
        .map(|s| s.fingerprint())
        .collect();

    for cut in [1, 400, 1_700] {
        let mut batch = BatchSimulator::new(&topo, replicas(4));
        batch.run_until(cut);
        let hash_before = batch.state_hash();
        let bytes = batch.snapshot();
        let restored = BatchSimulator::restore(&topo, replicas(4), &bytes).expect("restore");
        assert_eq!(restored.state_hash(), hash_before, "hash at cut {cut}");
        assert_eq!(restored.cycle(), cut);
        let resumed: Vec<u64> = restored.run().iter().map(|s| s.fingerprint()).collect();
        assert_eq!(resumed, reference, "resume from cut {cut} diverged");
    }
}

#[test]
fn batch_snapshot_roundtrip_preserves_bytes() {
    let topo = MeshTopology::uniform(4, &RowPlacement::with_links(4, [(0, 3)]).unwrap());
    let mut batch = BatchSimulator::new(&topo, replicas(4));
    batch.run_until(900);
    let bytes = batch.snapshot();
    let restored = BatchSimulator::restore(&topo, replicas(4), &bytes).unwrap();
    assert_eq!(restored.snapshot(), bytes);
}

#[test]
fn batch_resume_matches_one_lane_runs() {
    // The chain of guarantees end to end: one-lane run == batch lane ==
    // resumed batch lane.
    let topo = MeshTopology::mesh(4);
    let single: Vec<u64> = replicas(4)
        .into_iter()
        .map(|(w, c)| Simulator::new(&topo, w, c).run().fingerprint())
        .collect();

    let mut batch = BatchSimulator::new(&topo, replicas(4));
    batch.run_until(1_234);
    let bytes = batch.snapshot();
    let resumed: Vec<u64> = BatchSimulator::restore(&topo, replicas(4), &bytes)
        .unwrap()
        .run()
        .iter()
        .map(|s| s.fingerprint())
        .collect();
    assert_eq!(resumed, single);
}

#[test]
fn batch_snapshot_keeps_finished_lane_stats() {
    // Lanes with very different windows: snapshot after the short lane has
    // retired but before the long one finishes; its stats must survive the
    // round trip.
    let topo = MeshTopology::mesh(4);
    let mk = || {
        let mut short = SimConfig::latency_run(256, 3);
        short.warmup_cycles = 50;
        short.measure_cycles = 200;
        let long = SimConfig::latency_run(256, 5);
        vec![(workload(4, 0.01), short), (workload(4, 0.02), long)]
    };
    let reference: Vec<u64> = BatchSimulator::new(&topo, mk())
        .run()
        .iter()
        .map(|s| s.fingerprint())
        .collect();

    let mut batch = BatchSimulator::new(&topo, mk());
    let done = batch.run_until(1_000);
    assert!(!done, "long lane should still be running");
    let bytes = batch.snapshot();
    let resumed: Vec<u64> = BatchSimulator::restore(&topo, mk(), &bytes)
        .unwrap()
        .run()
        .iter()
        .map(|s| s.fingerprint())
        .collect();
    assert_eq!(resumed, reference);
}

#[test]
fn batch_restore_rejects_mismatched_replicas() {
    let topo = MeshTopology::mesh(4);
    let mut batch = BatchSimulator::new(&topo, replicas(4));
    batch.run_until(100);
    let bytes = batch.snapshot();

    // A different seed on lane 0 changes its config fingerprint.
    let mut wrong = replicas(4);
    wrong[0].1.seed = 99;
    assert!(matches!(
        BatchSimulator::restore(&topo, wrong, &bytes),
        Err(SnapshotError::Mismatch {
            field: "lane config"
        })
    ));
    // A different rate on lane 1 changes its workload fingerprint.
    let mut wrong = replicas(4);
    wrong[1].0 = workload(4, 0.07);
    assert!(matches!(
        BatchSimulator::restore(&topo, wrong, &bytes),
        Err(SnapshotError::Mismatch {
            field: "lane workload"
        })
    ));
    // A different lane count fails the dimension gate.
    let fewer: Vec<_> = replicas(4).into_iter().take(2).collect();
    assert!(matches!(
        BatchSimulator::restore(&topo, fewer, &bytes),
        Err(SnapshotError::Mismatch {
            field: "lane count"
        })
    ));
}
