//! Simulator throughput benchmarks: cycles/second of the flit-level engine
//! on the mesh, the HFB, and a random express topology, at low load and at
//! saturation, plus the wall-clock of a full load sweep — the cost model
//! for sizing the experiment harness and the perf trajectory of the hot
//! path. Results are written to `BENCH_sim.json` next to the committed
//! baseline so the repo keeps a machine-readable perf trajectory.

use noc_bench::{bench_timed, best_interleaved, random_row};
use noc_json::Value;
use noc_model::PacketMix;
use noc_sim::{SimConfig, Simulator, SweepRunner};
use noc_topology::{hfb_mesh, MeshTopology};
use noc_traffic::{SyntheticPattern, TrafficMatrix, Workload};

const CYCLES: u64 = 2_000;

/// Cycles/second of the engine *before* the SoA + event-wheel rewrite
/// (same bench points, same machine class), pinned here so every rerun
/// reports the speedup against a fixed reference.
const BASELINE_CPS: &[(&str, f64)] = &[
    ("mesh_8x8", 21_820.0),
    ("hfb_8x8", 8_661.0),
    ("express_8x8", 10_542.0),
    ("mesh_16x16", 4_333.0),
    ("mesh_8x8_saturated", 10_280.0),
];

/// Sequential sweep wall-clock before the rewrite (seconds).
const BASELINE_SWEEP_SECONDS: f64 = 2.66;

/// Interleaved rounds of whole sweeps; each row reports its fastest.
const SWEEP_ROUNDS: usize = 5;

/// Worker counts of the `SweepRunner` rows.
const SWEEP_WORKERS: [usize; 4] = [1, 2, 4, 8];

fn ur_workload(n: usize, rate: f64) -> Workload {
    Workload::new(
        TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, n),
        rate,
        PacketMix::paper(),
    )
}

fn config(flit_bits: u32, cycles: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 0,
        measure_cycles: cycles,
        drain_cycles_max: 0,
        ..SimConfig::latency_run(flit_bits, 7)
    }
}

fn run_once(topo: &MeshTopology, flit_bits: u32, rate: f64, cycles: u64) {
    let stats = Simulator::new(
        topo,
        ur_workload(topo.side(), rate),
        config(flit_bits, cycles),
    )
    .run();
    std::hint::black_box(stats);
}

/// Measures one topology/load point and returns simulated cycles per second.
fn bench_cps(name: &str, topo: &MeshTopology, flit_bits: u32, rate: f64) -> f64 {
    let per_iter = bench_timed(&format!("simulator_cycles/{name}"), || {
        run_once(topo, flit_bits, rate, CYCLES)
    });
    CYCLES as f64 / per_iter.as_secs_f64()
}

fn main() {
    let mesh8 = MeshTopology::mesh(8);
    let hfb8 = hfb_mesh(8);
    let express8 = MeshTopology::uniform(8, &random_row(8, 4, 3));
    let mesh16 = MeshTopology::mesh(16);
    let cases: Vec<(&str, &MeshTopology, u32, f64)> = vec![
        ("mesh_8x8", &mesh8, 256, 0.02),
        ("hfb_8x8", &hfb8, 64, 0.02),
        ("express_8x8", &express8, 64, 0.02),
        ("mesh_16x16", &mesh16, 256, 0.02),
        // Saturation: every buffer full, every stage busy — the hot-path
        // figure the ≥3× target applies to.
        ("mesh_8x8_saturated", &mesh8, 256, 0.30),
    ];

    let mut points: Vec<Value> = Vec::new();
    for (name, topo, flit, rate) in cases {
        let cps = bench_cps(name, topo, flit, rate);
        let baseline = BASELINE_CPS
            .iter()
            .find(|(b, _)| *b == name)
            .map(|&(_, cps)| cps)
            .expect("every bench point has a pinned baseline");
        println!("    {name}: {:.2}x vs pre-rewrite baseline", cps / baseline);
        points.push(noc_json::obj! {
            "name" => Value::Str(name.to_string()),
            "baseline_cps" => Value::Float(baseline),
            "cps" => Value::Float(cps),
            "speedup" => Value::Float(cps / baseline),
        });
    }

    // Full load sweep: the sequential walk and SweepRunner fan-out at
    // increasing worker counts (bit-identical results, see noc-sim tests),
    // timed as one interleaved set so host drift between rows cannot read
    // as a speed-up. A sweep takes about half a second, so each row is the
    // best of `SWEEP_ROUNDS` whole sweeps rather than one timed pass.
    let sweep_config = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 2_000,
        drain_cycles_max: 0,
        ..SimConfig::throughput_run(256, 7)
    };
    let workload = ur_workload(8, 0.01);
    let mut sequential = || {
        let result = noc_sim::saturation_sweep(&mesh8, &workload, &sweep_config, 0.02);
        std::hint::black_box(result);
    };
    let mut fanned: Vec<_> = SWEEP_WORKERS
        .iter()
        .map(|&workers| {
            let runner = SweepRunner::new(workers);
            let (mesh8, workload, sweep_config) = (&mesh8, &workload, &sweep_config);
            move || {
                let result = runner.saturation_sweep(mesh8, workload, sweep_config, 0.02);
                std::hint::black_box(result);
            }
        })
        .collect();
    let mut cases: Vec<&mut dyn FnMut()> = vec![&mut sequential];
    cases.extend(fanned.iter_mut().map(|f| f as &mut dyn FnMut()));
    let best = best_interleaved(SWEEP_ROUNDS, &mut cases);
    let per_seq = best[0];
    println!("simulator_sweep/mesh_8x8_seq {per_seq:>12.2?}/sweep  (best of {SWEEP_ROUNDS})");
    let mut sweep_workers: Vec<Value> = Vec::new();
    for (&workers, &per_iter) in SWEEP_WORKERS.iter().zip(&best[1..]) {
        println!(
            "simulator_sweep/mesh_8x8_w{workers}  {per_iter:>12.2?}/sweep  ({:.2}x vs seq)",
            per_seq.as_secs_f64() / per_iter.as_secs_f64()
        );
        sweep_workers.push(noc_json::obj! {
            "workers" => Value::Int(workers as i128),
            "seconds" => Value::Float(per_iter.as_secs_f64()),
            "speedup_vs_seq" => Value::Float(per_seq.as_secs_f64() / per_iter.as_secs_f64()),
        });
    }

    // Record the parallelism so `speedup_vs_seq` is interpretable.
    let report = noc_json::obj! {
        "bench" => Value::Str("simulator".to_string()),
        "cycles_per_point" => Value::Int(CYCLES as i128),
        "host_cpus" => Value::Int(noc_par::default_workers() as i128),
        "points" => Value::Arr(points),
        "sweep" => noc_json::obj! {
            "baseline_seconds" => Value::Float(BASELINE_SWEEP_SECONDS),
            "sequential_seconds" => Value::Float(per_seq.as_secs_f64()),
            "workers" => Value::Arr(sweep_workers),
        },
    };
    // Cargo runs benches with the package as CWD; default to the committed
    // report at the workspace root.
    let out = std::env::var("NOC_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json").into());
    std::fs::write(&out, report.pretty() + "\n").expect("write bench report");
    println!("wrote {out}");
}
