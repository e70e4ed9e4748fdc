//! Batch-lockstep benchmark: K saturated replicas of the 8x8 mesh run as
//! one `BatchSimulator` pass versus the same K replicas run back-to-back
//! as one-lane `Simulator`s over shared tables. The metric is aggregate
//! replica-cycles per second; the target is ≥ 2x at K ≥ 8 lanes on the
//! `mesh_8x8_saturated` configuration. The report keeps its historical
//! keys: `scalar_cps` is the one-lane baseline. Results are written to
//! `BENCH_batch.json` next to the committed baseline so the repo keeps a
//! machine-readable perf trajectory.

use noc_bench::best_interleaved;
use noc_json::Value;
use noc_model::PacketMix;
use noc_routing::DorRouter;
use noc_sim::{BatchSimulator, NetTables, SimConfig, Simulator};
use noc_topology::MeshTopology;
use noc_traffic::{SyntheticPattern, TrafficMatrix, Workload};
use std::sync::Arc;

const CYCLES: u64 = 2_000;
/// The `mesh_8x8_saturated` load point: deep saturation, every buffer
/// full, every arbitration stage busy.
const RATE: f64 = 0.30;

fn replicas(k: usize) -> Vec<(Workload, SimConfig)> {
    // One workload cloned per replica: the seed batch shape, where the
    // `Arc`-shared traffic matrix is one copy across all lanes.
    let workload = Workload::new(
        TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, 8),
        RATE,
        PacketMix::paper(),
    );
    (0..k)
        .map(|i| {
            let config = SimConfig {
                warmup_cycles: 0,
                measure_cycles: CYCLES,
                drain_cycles_max: 0,
                ..SimConfig::latency_run(256, 7 + i as u64)
            };
            (workload.clone(), config)
        })
        .collect()
}

fn main() {
    let mesh8 = MeshTopology::mesh(8);
    let base = replicas(1)[0].1;
    let dor = DorRouter::new(&mesh8, base.weights);
    let tables = Arc::new(NetTables::build(&mesh8, &dor, base.vcs_per_port));

    // One-lane reference: K = 8 replicas back to back over shared tables,
    // timed interleaved with the lockstep passes; the speedup ratio is
    // computed from each side's best round.
    const SCALAR_K: usize = 8;
    const ROUNDS: usize = 9;
    const LANE_COUNTS: [usize; 3] = [8, 16, 32];
    let scalar_jobs = replicas(SCALAR_K);
    let mut scalar = || {
        for (workload, config) in &scalar_jobs {
            let sim = Simulator::with_tables(Arc::clone(&tables), workload.clone(), *config);
            std::hint::black_box(sim.run());
        }
    };
    let mut lockstep: Vec<_> = LANE_COUNTS
        .iter()
        .map(|&k| {
            let (tables, jobs) = (&tables, replicas(k));
            move || {
                let batch = BatchSimulator::with_tables(Arc::clone(tables), jobs.clone());
                std::hint::black_box(batch.run());
            }
        })
        .collect();
    let mut cases: Vec<&mut dyn FnMut()> = vec![&mut scalar];
    cases.extend(lockstep.iter_mut().map(|f| f as &mut dyn FnMut()));
    let best = best_interleaved(ROUNDS, &mut cases);
    let (best_scalar, best_lanes) = (best[0], &best[1..]);
    let scalar_cps = (SCALAR_K as u64 * CYCLES) as f64 / best_scalar.as_secs_f64();
    println!("    one-lane x{SCALAR_K}: {scalar_cps:.0} replica-cycles/s (best of {ROUNDS})");

    let mut lanes_out: Vec<Value> = Vec::new();
    for (&k, per_batch) in LANE_COUNTS.iter().zip(best_lanes) {
        let cps = (k as u64 * CYCLES) as f64 / per_batch.as_secs_f64();
        let speedup = cps / scalar_cps;
        println!("    lockstep x{k}: {cps:.0} replica-cycles/s ({speedup:.2}x vs one-lane)");
        lanes_out.push(noc_json::obj! {
            "lanes" => Value::Int(k as i128),
            "cps" => Value::Float(cps),
            "speedup_vs_scalar" => Value::Float(speedup),
        });
    }

    let report = noc_json::obj! {
        "bench" => Value::Str("batch".to_string()),
        "case" => Value::Str("mesh_8x8_saturated".to_string()),
        "cycles_per_replica" => Value::Int(CYCLES as i128),
        "rate" => Value::Float(RATE),
        "host_cpus" => Value::Int(noc_par::default_workers() as i128),
        "scalar_cps" => Value::Float(scalar_cps),
        "lanes" => Value::Arr(lanes_out),
    };
    let out = std::env::var("NOC_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json").into());
    std::fs::write(&out, report.pretty() + "\n").expect("write bench report");
    println!("wrote {out}");
}
