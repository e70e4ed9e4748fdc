//! Snapshot/restore round-trip property tests: snapshot each engine at a
//! random (seeded) pause point, restore from the bytes, and check that the
//! resumed run is **bit-identical** to the uninterrupted one — statistics
//! fingerprints for the simulators, full outcomes for the annealer — and
//! that the rolling state hash survives the round trip exactly.
//!
//! These tests live in `noc-snapshot` (as dev-dependency cycles back onto
//! the engines) so the wire format, the serializers, and the engines are
//! exercised together whenever the format crate changes.

use noc_model::PacketMix;
use noc_placement::objective::AllPairsObjective;
use noc_placement::{InitialStrategy, SaParams, SolveJob};
use noc_rng::rngs::SmallRng;
use noc_rng::{Rng, SeedableRng};
use noc_sim::{BatchSimulator, SimConfig, Simulator};
use noc_topology::{MeshTopology, RowPlacement};
use noc_traffic::{SyntheticPattern, TrafficMatrix, Workload};

fn workload(pattern: SyntheticPattern, n: usize, rate: f64) -> Workload {
    Workload::new(
        TrafficMatrix::from_pattern(pattern, n),
        rate,
        PacketMix::paper(),
    )
}

fn sim_config(flit: u32, seed: u64) -> SimConfig {
    let mut config = SimConfig::latency_run(flit, seed);
    config.warmup_cycles = 300;
    config.measure_cycles = 1_200;
    config
}

#[test]
fn simulator_roundtrip_is_bit_identical_at_random_cycles() {
    let mut pick = SmallRng::seed_from_u64(0x5eed_0001);
    let topo = {
        let row = RowPlacement::with_links(8, [(0, 3), (3, 7)]).unwrap();
        MeshTopology::uniform(8, &row)
    };
    for trial in 0..6u64 {
        let wl = workload(SyntheticPattern::UniformRandom, 8, 0.05);
        let config = sim_config(128, 10 + trial);

        let reference = Simulator::new(&topo, wl.clone(), config).run();

        let mut sim = Simulator::new(&topo, wl.clone(), config);
        let pause: u64 = pick.gen_range(1..1_400u64);
        let done = sim.run_until(pause);
        let bytes = sim.snapshot();
        let hash_before = sim.state_hash();

        let restored = Simulator::restore(&topo, wl, config, &bytes)
            .expect("snapshot taken by the engine restores cleanly");
        assert_eq!(
            restored.state_hash(),
            hash_before,
            "trial {trial}: state hash diverged across the round trip at cycle {pause}"
        );
        let resumed = restored.finish();
        assert_eq!(
            resumed.fingerprint(),
            reference.fingerprint(),
            "trial {trial}: resume from cycle {pause} (done={done:?}) \
             diverged from the uninterrupted run"
        );
    }
}

#[test]
fn simulator_snapshot_after_completion_still_roundtrips() {
    // Snapshotting a finished run is legal: the restored simulator's
    // `finish` must return the same statistics without stepping further.
    let topo = MeshTopology::mesh(4);
    let wl = workload(SyntheticPattern::Transpose, 4, 0.08);
    let config = sim_config(256, 3);

    let mut sim = Simulator::new(&topo, wl.clone(), config);
    while sim.run_until(sim.cycle() + 500).is_none() {}
    let bytes = sim.snapshot();
    let reference = sim.finish();

    let restored = Simulator::restore(&topo, wl, config, &bytes).unwrap();
    assert_eq!(restored.finish().fingerprint(), reference.fingerprint());
}

#[test]
fn batch_sim_roundtrip_is_bit_identical_per_lane() {
    let mut pick = SmallRng::seed_from_u64(0x5eed_0002);
    let topo = MeshTopology::mesh(8);
    let replicas = |base_seed: u64| -> Vec<(Workload, SimConfig)> {
        (0..4)
            .map(|k| {
                (
                    workload(SyntheticPattern::Shuffle, 8, 0.02 + 0.01 * k as f64),
                    sim_config(64, base_seed + k),
                )
            })
            .collect()
    };
    for trial in 0..4u64 {
        let reference: Vec<u64> = BatchSimulator::new(&topo, replicas(20 + trial))
            .run()
            .iter()
            .map(|s| s.fingerprint())
            .collect();

        let mut batch = BatchSimulator::new(&topo, replicas(20 + trial));
        let pause: u64 = pick.gen_range(1..1_600u64);
        batch.run_until(pause);
        let bytes = batch.snapshot();
        let hash_before = batch.state_hash();

        let restored = BatchSimulator::restore(&topo, replicas(20 + trial), &bytes)
            .expect("batch snapshot restores cleanly");
        assert_eq!(
            restored.state_hash(),
            hash_before,
            "trial {trial}: batch state hash diverged at cycle {pause}"
        );
        let resumed: Vec<u64> = restored.run().iter().map(|s| s.fingerprint()).collect();
        assert_eq!(
            resumed, reference,
            "trial {trial}: batch resume from cycle {pause} diverged"
        );
    }
}

#[test]
fn solve_job_roundtrip_is_bit_identical_at_random_cuts() {
    let mut pick = SmallRng::seed_from_u64(0x5eed_0003);
    let objective = AllPairsObjective::paper();
    let cases = [
        (8usize, 4usize, InitialStrategy::DivideAndConquer, 1usize),
        (8, 3, InitialStrategy::Random, 1),
        (12, 6, InitialStrategy::DivideAndConquer, 3),
        (10, 5, InitialStrategy::Greedy, 2),
    ];
    for &(n, c, strategy, chains) in &cases {
        let params = SaParams::paper().with_moves(4_000).with_chains(chains);
        let seed = 77;
        let fp = objective.fingerprint();

        let mut reference = SolveJob::new(n, c, &objective, strategy, &params, seed, fp);
        reference.run_moves(&objective, usize::MAX);
        let reference = reference.outcome();

        let mut job = SolveJob::new(n, c, &objective, strategy, &params, seed, fp);
        let cut: u64 = pick.gen_range(1..4_000u64);
        let done = job.run_moves(&objective, cut as usize);
        let bytes = job.snapshot();
        let hash_before = job.state_hash();

        let mut restored = SolveJob::restore(&bytes).expect("job snapshot restores cleanly");
        assert_eq!(
            restored.state_hash(),
            hash_before,
            "P({n},{c}) x{chains}: state hash diverged at cut {cut}"
        );
        restored.run_moves(&objective, usize::MAX);
        let resumed = restored.outcome();

        assert_eq!(
            resumed.best, reference.best,
            "P({n},{c}) x{chains}: placements diverged after resume at {cut} (done={done})"
        );
        assert_eq!(
            resumed.best_objective.to_bits(),
            reference.best_objective.to_bits(),
            "P({n},{c}) x{chains}: objective bits diverged after resume at {cut}"
        );
        assert_eq!(resumed.evaluations, reference.evaluations);
        assert_eq!(resumed.accepted_moves, reference.accepted_moves);
    }
}

#[test]
fn reserialized_snapshot_is_byte_identical() {
    // snapshot → restore → snapshot must reproduce the original bytes:
    // serialization loses nothing the engines carry.
    let topo = MeshTopology::mesh(4);
    let wl = workload(SyntheticPattern::BitReverse, 4, 0.04);
    let config = sim_config(128, 9);
    let mut sim = Simulator::new(&topo, wl.clone(), config);
    sim.run_until(350);
    let bytes = sim.snapshot();
    let restored = Simulator::restore(&topo, wl, config, &bytes).unwrap();
    assert_eq!(
        restored.snapshot(),
        bytes,
        "simulator snapshot not lossless"
    );

    let objective = AllPairsObjective::paper();
    let mut job = SolveJob::new(
        8,
        4,
        &objective,
        InitialStrategy::DivideAndConquer,
        &SaParams::paper(),
        5,
        objective.fingerprint(),
    );
    job.run_moves(&objective, 1_234);
    let bytes = job.snapshot();
    let restored = SolveJob::restore(&bytes).unwrap();
    assert_eq!(
        restored.snapshot(),
        bytes,
        "solve-job snapshot not lossless"
    );
}

#[test]
fn restore_refuses_mismatched_context() {
    // A snapshot taken under one workload/config must not restore into a
    // different one: every mismatch is a structured error, never a panic
    // or a silently wrong simulator.
    let topo = MeshTopology::mesh(4);
    let wl = workload(SyntheticPattern::UniformRandom, 4, 0.05);
    let config = sim_config(128, 2);
    let mut sim = Simulator::new(&topo, wl.clone(), config);
    sim.run_until(200);
    let bytes = sim.snapshot();

    let other_wl = workload(SyntheticPattern::Transpose, 4, 0.05);
    assert!(
        Simulator::restore(&topo, other_wl, config, &bytes).is_err(),
        "restore accepted a different workload"
    );
    let other_config = sim_config(128, 3);
    assert!(
        Simulator::restore(&topo, wl, other_config, &bytes).is_err(),
        "restore accepted a different seed"
    );
}
