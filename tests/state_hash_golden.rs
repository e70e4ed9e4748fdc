//! Golden rolling state-hash regression tests: reference `state_hash()`
//! values for the simulator paused at a fixed cycle boundary across the
//! ten golden simulation cases (mirroring `crates/sim/tests/golden.rs`),
//! and for the resumable annealer cut at a fixed move budget across four
//! solve configurations. The hashes fold the complete mutable state of
//! each engine (RNG streams included), so any change to in-flight state
//! evolution — not just to final statistics — trips these pins. A run
//! resumed from the paused snapshot must still reach the golden final
//! statistics.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```text
//! NOC_GOLDEN_PRINT=1 cargo test --test state_hash_golden -- --nocapture
//! ```

use express_noc::model::PacketMix;
use express_noc::placement::objective::{AllPairsObjective, Objective};
use express_noc::placement::{InitialStrategy, SaParams, SolveJob};
use express_noc::sim::{SimConfig, Simulator};
use express_noc::topology::{hfb_mesh, MeshTopology, RowPlacement};
use express_noc::traffic::{SyntheticPattern, Trace, TraceEvent, TrafficMatrix, Workload};

/// Cycle boundary at which every simulation case is paused and hashed.
/// Chosen inside every case's warmup + measurement window so the network
/// still has packets in flight when the hash is taken.
const PAUSE_CYCLE: u64 = 400;

/// Reference simulator state hashes at [`PAUSE_CYCLE`].
const SIM_GOLDEN: &[(&str, u64)] = &[
    ("mesh4_ur_low", 0x17ac76e95bc9b1a9),
    ("mesh4_tp_hot", 0xea740961326cb9cf),
    ("mesh4_ur_1vc", 0xcff90665177799f1),
    ("express4_ur_128b", 0x64b5e7c14c8a1378),
    ("mesh8_ur_saturated", 0x78b87ea6a52bd08c),
    ("express8_br_64b", 0x755257048c5bf4fa),
    ("hfb8_shuffle", 0x33ad840ab8fd60f6),
    ("mesh8_nn_deep_buffers", 0xccf3466d83b6cfcf),
    ("mesh4_burst_trace", 0x243f6c464ef15457),
    ("mesh16_ur_low", 0xae25686eb3ea7246),
];

/// The final `SimStats` fingerprints of the same ten cases — the `GOLDEN`
/// table of `crates/sim/tests/golden.rs`, which a run resumed from the
/// [`PAUSE_CYCLE`] snapshot must reproduce.
const STATS_GOLDEN: &[(&str, u64)] = &[
    ("mesh4_ur_low", 0x8f15d90ccec1227e),
    ("mesh4_tp_hot", 0xe761567f1a688a67),
    ("mesh4_ur_1vc", 0x2101d1c05ba84bcb),
    ("express4_ur_128b", 0x51e2b8a0630f92bb),
    ("mesh8_ur_saturated", 0xd6d2bb1ab55b5a9e),
    ("express8_br_64b", 0x318ee105cfd238fd),
    ("hfb8_shuffle", 0xc20ebfd2731978f7),
    ("mesh8_nn_deep_buffers", 0xa998b02b3df5d017),
    ("mesh4_burst_trace", 0xaa4388d3a3fd9da2),
    ("mesh16_ur_low", 0x24d2030bc4daded0),
];

/// Reference annealer state hashes: (name, moves run before hashing, hash).
const SA_GOLDEN: &[(&str, usize, u64)] = &[
    ("p8c4_dnc_1chain", 2_500, 0xeb88070d65113f60),
    ("p8c3_random_2chain", 1_500, 0x048fa34893447c16),
    ("p12c6_greedy_full", 2_000, 0xe2ff44f8b048eb29),
    ("p16c8_dnc_3chain", 3_000, 0x1954d0627748ae20),
];

fn short(mut config: SimConfig, warmup: u64, measure: u64) -> SimConfig {
    config.warmup_cycles = warmup;
    config.measure_cycles = measure;
    config
}

fn workload(pattern: SyntheticPattern, n: usize, rate: f64) -> Workload {
    Workload::new(
        TrafficMatrix::from_pattern(pattern, n),
        rate,
        PacketMix::paper(),
    )
}

fn express(n: usize, links: &[(usize, usize)]) -> MeshTopology {
    let row = RowPlacement::with_links(n, links.iter().copied()).unwrap();
    MeshTopology::uniform(n, &row)
}

/// A simulation case's inputs: everything needed to build it fresh or
/// restore it from a snapshot.
struct Case {
    topology: MeshTopology,
    source: Source,
    config: SimConfig,
}

enum Source {
    Workload(Workload),
    Trace(Trace),
}

impl Case {
    fn workload(topology: &MeshTopology, workload: Workload, config: SimConfig) -> Self {
        let source = Source::Workload(workload);
        let topology = topology.clone();
        Case {
            topology,
            source,
            config,
        }
    }

    fn trace(topology: &MeshTopology, trace: Trace, config: SimConfig) -> Self {
        let source = Source::Trace(trace);
        let topology = topology.clone();
        Case {
            topology,
            source,
            config,
        }
    }

    fn build(&self) -> Simulator {
        match &self.source {
            Source::Workload(w) => Simulator::new(&self.topology, w.clone(), self.config),
            Source::Trace(t) => Simulator::from_trace(&self.topology, t.clone(), self.config),
        }
    }

    fn restore(&self, bytes: &[u8]) -> Simulator {
        match &self.source {
            Source::Workload(w) => {
                Simulator::restore(&self.topology, w.clone(), self.config, bytes)
            }
            Source::Trace(t) => {
                Simulator::restore_trace(&self.topology, t.clone(), self.config, bytes)
            }
        }
        .expect("a snapshot taken by the engine restores")
    }
}

/// Builds one named simulation case un-run, so the caller can pause it
/// mid-flight.
fn build_case(name: &str) -> Simulator {
    case(name).build()
}

/// One named simulation case — the same matrix as the golden fingerprint
/// suite in `crates/sim/tests/golden.rs`.
fn case(name: &str) -> Case {
    use SyntheticPattern::*;
    match name {
        "mesh4_ur_low" => Case::workload(
            &MeshTopology::mesh(4),
            workload(UniformRandom, 4, 0.02),
            short(SimConfig::latency_run(256, 1), 500, 2_000),
        ),
        "mesh4_tp_hot" => Case::workload(
            &MeshTopology::mesh(4),
            workload(Transpose, 4, 0.10),
            short(SimConfig::latency_run(256, 2), 500, 2_000),
        ),
        "mesh4_ur_1vc" => {
            let mut config = short(SimConfig::latency_run(256, 3), 500, 2_000);
            config.vcs_per_port = 1;
            config.buffer_flits_per_vc = 2;
            Case::workload(
                &MeshTopology::mesh(4),
                workload(UniformRandom, 4, 0.05),
                config,
            )
        }
        "express4_ur_128b" => Case::workload(
            &express(4, &[(0, 3)]),
            workload(UniformRandom, 4, 0.03),
            short(SimConfig::latency_run(128, 4), 500, 2_000),
        ),
        "mesh8_ur_saturated" => Case::workload(
            &MeshTopology::mesh(8),
            workload(UniformRandom, 8, 0.30),
            short(SimConfig::throughput_run(256, 5), 500, 1_500),
        ),
        "express8_br_64b" => Case::workload(
            &express(8, &[(0, 3), (3, 7)]),
            workload(BitReverse, 8, 0.02),
            short(SimConfig::latency_run(64, 6), 500, 2_000),
        ),
        "hfb8_shuffle" => Case::workload(
            &hfb_mesh(8),
            workload(Shuffle, 8, 0.05),
            short(SimConfig::latency_run(64, 7), 500, 2_000),
        ),
        "mesh8_nn_deep_buffers" => {
            let mut config = short(SimConfig::latency_run(256, 8), 500, 2_000);
            config.buffer_flits_per_vc = 8;
            Case::workload(
                &MeshTopology::mesh(8),
                workload(NearNeighbour, 8, 0.08),
                config,
            )
        }
        "mesh4_burst_trace" => {
            let events = (0..24)
                .map(|i| TraceEvent {
                    cycle: 8 + (i / 6) as u64,
                    src: (i % 3) as usize,
                    dst: 12 + (i % 4) as usize,
                    bits: 256 + 128 * (i % 2) as u32,
                })
                .collect();
            let trace = Trace::new(4, events);
            let mut config = short(SimConfig::latency_run(128, 9), 0, 1_000);
            config.drain_cycles_max = 50_000;
            Case::trace(&MeshTopology::mesh(4), trace, config)
        }
        "mesh16_ur_low" => Case::workload(
            &MeshTopology::mesh(16),
            workload(UniformRandom, 16, 0.02),
            short(SimConfig::latency_run(256, 10), 300, 800),
        ),
        other => panic!("unknown golden case {other:?}"),
    }
}

/// Builds one named annealing job and the objective it runs on — four
/// configurations spanning the initial-placement strategies, chain counts,
/// and both ways of scoring a candidate: `p12c6_greedy_full` runs on a
/// closure, which offers no incremental evaluator, so each of its moves is
/// re-evaluated in full.
fn build_job(name: &str) -> (SolveJob, Box<dyn Objective>) {
    let objective = AllPairsObjective::paper();
    let fp = objective.fingerprint();
    let job = match name {
        "p8c4_dnc_1chain" => SolveJob::new(
            8,
            4,
            &objective,
            InitialStrategy::DivideAndConquer,
            &SaParams::paper(),
            42,
            fp,
        ),
        "p8c3_random_2chain" => SolveJob::new(
            8,
            3,
            &objective,
            InitialStrategy::Random,
            &SaParams::paper().with_chains(2),
            7,
            fp,
        ),
        "p12c6_greedy_full" => SolveJob::new(
            12,
            6,
            &objective,
            InitialStrategy::Greedy,
            &SaParams::paper(),
            11,
            fp,
        ),
        "p16c8_dnc_3chain" => SolveJob::new(
            16,
            8,
            &objective,
            InitialStrategy::DivideAndConquer,
            &SaParams::paper().with_chains(3),
            1,
            fp,
        ),
        other => panic!("unknown anneal case {other:?}"),
    };
    let run: Box<dyn Objective> = if name.ends_with("_full") {
        Box::new(move |row: &RowPlacement| objective.eval(row))
    } else {
        Box::new(objective)
    };
    (job, run)
}

#[test]
fn simulator_state_hashes_match_golden() {
    let print = std::env::var("NOC_GOLDEN_PRINT").is_ok_and(|v| v == "1");
    let mut failures = Vec::new();
    for &(name, expected) in SIM_GOLDEN {
        let mut sim = build_case(name);
        let done = sim.run_until(PAUSE_CYCLE);
        assert_eq!(done, None, "{name}: finished before cycle {PAUSE_CYCLE}");
        assert_eq!(sim.cycle(), PAUSE_CYCLE, "{name}: paused off-boundary");
        let got = sim.state_hash();
        if print {
            println!("    (\"{name}\", {got:#018x}),");
        }
        if got != expected {
            failures.push(format!(
                "{name}: state_hash {got:#018x} != golden {expected:#018x}"
            ));
        }
    }
    if !print {
        assert!(
            failures.is_empty(),
            "sim state-hash mismatches:\n{}",
            failures.join("\n")
        );
    }
}

#[test]
fn simulator_resumes_from_pause_to_golden_stats() {
    // Snapshot at the pause cycle, restore, finish: every case must land
    // on its golden `SimStats` fingerprint, as the uninterrupted run does.
    for &(name, expected) in STATS_GOLDEN {
        let case = case(name);
        let mut sim = case.build();
        assert_eq!(sim.run_until(PAUSE_CYCLE), None, "{name}");
        let got = case.restore(&sim.snapshot()).finish().fingerprint();
        assert_eq!(
            got, expected,
            "{name}: resumed run {got:#018x} != golden {expected:#018x}"
        );
    }
}

#[test]
fn annealer_state_hashes_match_golden() {
    let print = std::env::var("NOC_GOLDEN_PRINT").is_ok_and(|v| v == "1");
    let mut failures = Vec::new();
    for &(name, moves, expected) in SA_GOLDEN {
        let (mut job, objective) = build_job(name);
        let done = job.run_moves(&*objective, moves);
        assert!(!done, "{name}: finished within {moves} moves");
        let got = job.state_hash();
        if print {
            println!("    (\"{name}\", {moves}, {got:#018x}),");
        }
        if got != expected {
            failures.push(format!(
                "{name}: state_hash {got:#018x} != golden {expected:#018x}"
            ));
        }
    }
    if !print {
        assert!(
            failures.is_empty(),
            "annealer state-hash mismatches:\n{}",
            failures.join("\n")
        );
    }
}

#[test]
fn state_hash_is_stable_within_a_run_point() {
    // Hashing is a pure read: calling it twice at the same point yields
    // the same value and does not perturb the run.
    let mut sim = build_case("mesh4_tp_hot");
    assert_eq!(sim.run_until(PAUSE_CYCLE), None);
    let h1 = sim.state_hash();
    let h2 = sim.state_hash();
    assert_eq!(h1, h2);
    // And the hash must actually move as the state evolves.
    assert_eq!(sim.run_until(PAUSE_CYCLE + 50), None);
    assert_ne!(sim.state_hash(), h1, "state hash ignored 50 cycles of work");
}
