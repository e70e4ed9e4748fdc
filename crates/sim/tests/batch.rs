//! Per-replica independence: each lane of a K-lane [`BatchSimulator`] must
//! reproduce the one-lane [`Simulator`] run of the same (workload, config)
//! **bit for bit** — same fingerprints, lane count 1/4/8, heterogeneous
//! rates/seeds/flit widths/windows, express links, hub routers wider than
//! one request word, and with tracing enabled. Batching is a performance
//! layer, not a semantics: [`simulate_many`] packs any mix of jobs into
//! lockstep passes and still returns each job's one-lane result.

use noc_model::PacketMix;
use noc_sim::{simulate_many, BatchSimulator, NetTables, SimConfig, SimStats, Simulator};
use noc_topology::{MeshTopology, RowPlacement};
use noc_traffic::{SyntheticPattern, TrafficMatrix, Workload};
use std::sync::Arc;

fn workload(pattern: SyntheticPattern, n: usize, rate: f64) -> Workload {
    Workload::new(
        TrafficMatrix::from_pattern(pattern, n),
        rate,
        PacketMix::paper(),
    )
}

/// Deterministic pseudo-random (rate, seed) replicas via SplitMix64 — no
/// external RNG needed in the test.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn random_replicas(n: usize, k: usize, salt: u64) -> Vec<(Workload, SimConfig)> {
    use SyntheticPattern::*;
    (0..k)
        .map(|i| {
            let h = mix(salt.wrapping_mul(0x1000) + i as u64);
            let rate = 0.01 + (h % 29) as f64 * 0.01; // 0.01..=0.29
            let seed = mix(h);
            let pattern = match h % 3 {
                0 => UniformRandom,
                1 => Transpose,
                _ => BitReverse,
            };
            let mut config = SimConfig::latency_run(if h & 4 == 0 { 256 } else { 128 }, seed);
            config.warmup_cycles = 200 + (h % 3) * 100;
            config.measure_cycles = 600 + (h % 5) * 100;
            config.drain_cycles_max = 50_000;
            (workload(pattern, n, rate), config)
        })
        .collect()
}

fn one_lane_reference(
    topology: &MeshTopology,
    replicas: &[(Workload, SimConfig)],
) -> Vec<SimStats> {
    replicas
        .iter()
        .map(|(w, c)| Simulator::new(topology, w.clone(), *c).run())
        .collect()
}

fn assert_bit_identical(batch: &[SimStats], single: &[SimStats]) {
    assert_eq!(batch.len(), single.len());
    for (l, (b, s)) in batch.iter().zip(single).enumerate() {
        assert_eq!(
            b.fingerprint(),
            s.fingerprint(),
            "lane {l} diverged from its one-lane run:\nbatch:  {b:?}\nsingle: {s:?}"
        );
    }
}

#[test]
fn random_replicas_match_one_lane_runs_across_lane_counts() {
    let topology = MeshTopology::mesh(4);
    for &k in &[1usize, 4, 8] {
        let replicas = random_replicas(4, k, k as u64);
        let single = one_lane_reference(&topology, &replicas);
        let batch = BatchSimulator::new(&topology, replicas).run();
        assert_bit_identical(&batch, &single);
    }
}

#[test]
fn express_topology_replicas_match_one_lane_runs() {
    let row = RowPlacement::with_links(4, [(0, 3), (1, 3)]).unwrap();
    let topology = MeshTopology::uniform(4, &row);
    let replicas = random_replicas(4, 6, 0xe);
    let single = one_lane_reference(&topology, &replicas);
    let batch = BatchSimulator::new(&topology, replicas).run();
    assert_bit_identical(&batch, &single);
}

#[test]
fn saturated_golden_config_replicas_match_one_lane_runs() {
    // The mesh8_ur_saturated golden shape: heavy contention exercises every
    // arbitration path (credit stalls, round-robin wrap, drain timeout).
    let topology = MeshTopology::mesh(8);
    let replicas: Vec<_> = (0..8)
        .map(|i| {
            let mut config = SimConfig::throughput_run(256, 5 + i);
            config.warmup_cycles = 300;
            config.measure_cycles = 800;
            (
                workload(SyntheticPattern::UniformRandom, 8, 0.10 + i as f64 * 0.03),
                config,
            )
        })
        .collect();
    let single = one_lane_reference(&topology, &replicas);
    let batch = BatchSimulator::new(&topology, replicas).run();
    assert_bit_identical(&batch, &single);
}

#[test]
fn wide_hub_replicas_match_one_lane_runs() {
    // Row links (0,k) for every k make router 0 a hub with 2·19 + 1 input
    // ports (78 input VCs): its request masks span two words, so this runs
    // the multi-word arbitration path with a run-time lane count.
    let links: Vec<_> = (2..20).map(|k| (0, k)).collect();
    let topology = MeshTopology::uniform(20, &RowPlacement::with_links(20, links).unwrap());
    let replicas: Vec<_> = (0..3)
        .map(|i| {
            let mut config = SimConfig::latency_run(256, 40 + i);
            config.warmup_cycles = 100;
            config.measure_cycles = 300;
            (
                workload(SyntheticPattern::UniformRandom, 20, 0.01 + 0.01 * i as f64),
                config,
            )
        })
        .collect();
    let single = one_lane_reference(&topology, &replicas);
    let batch = BatchSimulator::new(&topology, replicas).run();
    assert_bit_identical(&batch, &single);
}

#[test]
fn shared_tables_constructor_matches_fresh_build() {
    let topology = MeshTopology::mesh(4);
    let replicas = random_replicas(4, 4, 0x7a);
    let config = replicas[0].1;
    let dor = noc_routing::DorRouter::new(&topology, config.weights);
    let tables = Arc::new(NetTables::build(&topology, &dor, config.vcs_per_port));
    let fresh = BatchSimulator::new(&topology, replicas.clone()).run();
    let shared = BatchSimulator::with_tables(tables, replicas).run();
    assert_bit_identical(&shared, &fresh);
}

#[test]
fn simulate_many_matches_one_lane_runs_in_job_order() {
    // Two topologies and two VC counts, interleaved: 10 jobs share the
    // 2-VC mesh (two passes), 4 run the mesh at 3 VCs and 6 the express
    // topology, so the runner forms three groups and scatters results back
    // across them.
    let mesh = MeshTopology::mesh(4);
    let express = MeshTopology::uniform(4, &RowPlacement::with_links(4, [(0, 3)]).unwrap());
    let jobs: Vec<(&MeshTopology, Workload, SimConfig)> = random_replicas(4, 20, 0x5a)
        .into_iter()
        .enumerate()
        .map(|(i, (workload, mut config))| {
            if i % 3 == 2 {
                return (&express, workload, config);
            }
            if i % 4 == 3 {
                config.vcs_per_port = 3;
            }
            (&mesh, workload, config)
        })
        .collect();
    let single: Vec<u64> = jobs
        .iter()
        .map(|(topology, w, c)| Simulator::new(topology, w.clone(), *c).run().fingerprint())
        .collect();
    for workers in [1, 3] {
        let many = simulate_many(jobs.clone(), workers, |s| s.fingerprint());
        assert_eq!(many, single, "workers = {workers}");
    }
}
