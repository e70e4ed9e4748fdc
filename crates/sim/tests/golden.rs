//! Golden-stat regression tests: reference [`SimStats`] fingerprints for a
//! matrix of (topology, workload, config, seed) cases, recorded from the
//! pre-fast-path engine. The engine must reproduce every run **bit for
//! bit** — these constants are the safety net under any hot-path rewrite
//! (event wheel, SoA layout, scratch reuse must all be invisible here).
//!
//! To regenerate after an *intentional* semantic change (there should be
//! none: the simulator's cycle-exact behaviour is part of its contract):
//!
//! ```text
//! NOC_GOLDEN_PRINT=1 cargo test -p noc-sim --release --test golden -- --nocapture
//! ```

use noc_model::PacketMix;
use noc_sim::{SimConfig, SimStats, Simulator};
use noc_topology::{hfb_mesh, MeshTopology, RowPlacement};
use noc_traffic::{SyntheticPattern, Trace, TraceEvent, TrafficMatrix, Workload};

/// Reference fingerprints recorded from the seed engine (see module docs).
const GOLDEN: &[(&str, u64)] = &[
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
    ("star20_wide", 0xe5ea5c02b5949259),
    ("star32_widest", 0x097147ae9ffc2cb0),
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

/// Runs one named case and returns its statistics.
fn run_case(name: &str) -> SimStats {
    use SyntheticPattern::*;
    match name {
        "mesh4_ur_low" => Simulator::new(
            &MeshTopology::mesh(4),
            workload(UniformRandom, 4, 0.02),
            short(SimConfig::latency_run(256, 1), 500, 2_000),
        )
        .run(),
        "mesh4_tp_hot" => Simulator::new(
            &MeshTopology::mesh(4),
            workload(Transpose, 4, 0.10),
            short(SimConfig::latency_run(256, 2), 500, 2_000),
        )
        .run(),
        "mesh4_ur_1vc" => {
            let mut config = short(SimConfig::latency_run(256, 3), 500, 2_000);
            config.vcs_per_port = 1;
            config.buffer_flits_per_vc = 2;
            Simulator::new(
                &MeshTopology::mesh(4),
                workload(UniformRandom, 4, 0.05),
                config,
            )
            .run()
        }
        "express4_ur_128b" => Simulator::new(
            &express(4, &[(0, 3)]),
            workload(UniformRandom, 4, 0.03),
            short(SimConfig::latency_run(128, 4), 500, 2_000),
        )
        .run(),
        "mesh8_ur_saturated" => Simulator::new(
            &MeshTopology::mesh(8),
            workload(UniformRandom, 8, 0.30),
            short(SimConfig::throughput_run(256, 5), 500, 1_500),
        )
        .run(),
        "express8_br_64b" => Simulator::new(
            &express(8, &[(0, 3), (3, 7)]),
            workload(BitReverse, 8, 0.02),
            short(SimConfig::latency_run(64, 6), 500, 2_000),
        )
        .run(),
        "hfb8_shuffle" => Simulator::new(
            &hfb_mesh(8),
            workload(Shuffle, 8, 0.05),
            short(SimConfig::latency_run(64, 7), 500, 2_000),
        )
        .run(),
        "mesh8_nn_deep_buffers" => {
            let mut config = short(SimConfig::latency_run(256, 8), 500, 2_000);
            config.buffer_flits_per_vc = 8;
            Simulator::new(
                &MeshTopology::mesh(8),
                workload(NearNeighbour, 8, 0.08),
                config,
            )
            .run()
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
            Simulator::from_trace(&MeshTopology::mesh(4), trace, config).run()
        }
        "mesh16_ur_low" => Simulator::new(
            &MeshTopology::mesh(16),
            workload(UniformRandom, 16, 0.02),
            short(SimConfig::latency_run(256, 10), 300, 800),
        )
        .run(),
        // Wide routers: row links (0,k) for every k ≥ 2 make router 0 a
        // hub with 2(n-1)+1 input ports — 78 input VCs at n=20 and 126 at
        // n=32, the widest a `simulate` request can build.
        "star20_wide" => {
            let links: Vec<_> = (2..20).map(|k| (0, k)).collect();
            Simulator::new(
                &express(20, &links),
                workload(UniformRandom, 20, 0.01),
                short(SimConfig::latency_run(256, 11), 200, 600),
            )
            .run()
        }
        "star32_widest" => {
            let links: Vec<_> = (2..32).map(|k| (0, k)).collect();
            Simulator::new(
                &express(32, &links),
                workload(UniformRandom, 32, 0.005),
                short(SimConfig::latency_run(256, 12), 100, 300),
            )
            .run()
        }
        other => panic!("unknown golden case {other:?}"),
    }
}

#[test]
fn engine_reproduces_golden_fingerprints() {
    let print = std::env::var("NOC_GOLDEN_PRINT").is_ok_and(|v| v == "1");
    let mut failures = Vec::new();
    for &(name, expected) in GOLDEN {
        let stats = run_case(name);
        let got = stats.fingerprint();
        if print {
            println!("    (\"{name}\", {got:#018x}),");
        }
        if got != expected {
            failures.push(format!(
                "{name}: fingerprint {got:#018x} != golden {expected:#018x} \
                 (packets {}/{}, avg latency {})",
                stats.completed_packets, stats.measured_packets, stats.avg_packet_latency
            ));
        }
    }
    if !print {
        assert!(
            failures.is_empty(),
            "golden mismatches:\n{}",
            failures.join("\n")
        );
    }
}

#[test]
fn fingerprints_unchanged_with_tracing_enabled() {
    // Telemetry reads simulation state but never perturbs the RNG stream
    // or arbitration: with the global sink enabled, every run must still
    // reproduce its golden fingerprint bit for bit — and must emit the
    // per-link utilization series.
    noc_trace::enable_with_capacity(65_536);
    for name in ["mesh4_tp_hot", "express8_br_64b", "mesh8_ur_saturated"] {
        let expected = GOLDEN
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, f)| f)
            .unwrap();
        let got = run_case(name).fingerprint();
        assert_eq!(
            got, expected,
            "{name}: tracing perturbed the simulation ({got:#018x} != {expected:#018x})"
        );
    }
    let events = noc_trace::drain_events();
    noc_trace::disable();
    assert!(
        events.iter().any(|e| e.name == "sim.link"),
        "instrumented runs emit per-link utilization events"
    );
    assert!(
        events.iter().any(|e| e.name == "sim.router"),
        "instrumented runs emit per-router events"
    );
}

#[test]
fn golden_runs_are_internally_deterministic() {
    // The fingerprints above are only meaningful if a run is reproducible
    // within one build; pin that separately from the cross-version contract.
    let a = run_case("mesh4_tp_hot").fingerprint();
    let b = run_case("mesh4_tp_hot").fingerprint();
    assert_eq!(a, b);
}
