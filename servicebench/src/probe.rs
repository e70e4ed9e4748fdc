//! Kernel probes: a fixed set of seeded calls into each compute layer,
//! the same for every workload, so the kernel metrics of a traced run
//! move only when a kernel's own code does.
//!
//! Compute kinds go through `exec::execute`, the function the pipeline's
//! execute stage calls, and read their work counts from the payload. The
//! two costs a payload does not show are timed on the kernel directly:
//! the divide-and-conquer construction and the simulator build (routing
//! plus network tables). Fan-out kinds run with one worker, so a probe
//! measures the kernel and not the scheduling of its threads.

use crate::workload::EXPRESS_8;
use noc_json::Value;
use noc_model::PacketMix;
use noc_placement::{initial_solution, AllPairsObjective};
use noc_rng::rngs::SmallRng;
use noc_rng::{Rng, SeedableRng};
use noc_service::exec;
use noc_service::protocol::parse_request;
use noc_sim::{SimConfig, Simulator};
use noc_topology::{MeshTopology, RowPlacement};
use noc_traffic::{SyntheticPattern, TrafficMatrix, Workload};
use std::time::Instant;

/// Times one compute request line through `exec::execute`; returns the
/// payload and the seconds it took.
fn execute(line: &str) -> Result<(Value, f64), String> {
    let request = parse_request(line)?.request;
    let start = Instant::now();
    let payload = exec::execute(&request)?;
    Ok((payload, start.elapsed().as_secs_f64()))
}

fn count(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("probe payload lacks {key:?}"))
}

/// Runs every probe and returns the kernel metrics by name.
pub fn run(seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7072_6f62_6573);
    let mut metrics = Vec::new();

    // Annealing and construction on the `place` sizes.
    let rows: Vec<(usize, usize)> = [8, 8, 12, 12, 16, 16]
        .into_iter()
        .map(|n| (n, rng.gen_range(2..n / 2 + 1)))
        .collect();
    let (mut solve_s, mut evaluations, mut accepted) = (0.0, 0.0, 0.0);
    for &(n, c) in &rows {
        let seed: u32 = rng.gen();
        let (payload, secs) = execute(&format!(
            r#"{{"kind":"solve","n":{n},"c":{c},"moves":10000,"seed":{seed}}}"#
        ))?;
        solve_s += secs;
        evaluations += count(&payload, "evaluations")?;
        accepted += count(&payload, "accepted_moves")?;
    }
    metrics.push(("placement.solve_ms", solve_s * 1e3 / rows.len() as f64));
    metrics.push(("placement.evals_per_s", evaluations / solve_s));
    metrics.push(("placement.accept_ratio", accepted / evaluations));

    const DNC_REPEATS: usize = 20;
    let objective = AllPairsObjective::paper();
    let start = Instant::now();
    for _ in 0..DNC_REPEATS {
        for &(n, c) in &rows {
            std::hint::black_box(initial_solution(n, c, &objective));
        }
    }
    let calls = (DNC_REPEATS * rows.len()) as f64;
    metrics.push((
        "placement.dnc_ms",
        start.elapsed().as_secs_f64() * 1e3 / calls,
    ));

    let (payload, secs) = execute(r#"{"kind":"optimal","n":7,"c":3}"#)?;
    metrics.push(("placement.bb_nodes_per_s", count(&payload, "nodes")? / secs));

    let seed_f: u32 = rng.gen();
    let (payload, secs) = execute(&format!(
        r#"{{"kind":"frontier","n":6,"weight_steps":3,"moves":2000,"seed":{seed_f},"workers":1}}"#
    ))?;
    let scalarizations = count(
        payload.get("summary").unwrap_or(&Value::Null),
        "scalarizations",
    )?;
    metrics.push(("pareto.ms_per_scalarization", secs * 1e3 / scalarizations));

    // The scalar engine at a low load on each `simulate` topology.
    let (mut sim_s, mut cycles, mut packets, mut drain) = (0.0, 0.0, 0.0, 0.0);
    let mut build_s = 0.0;
    for links in EXPRESS_8 {
        let seed: u32 = rng.gen();
        let pairs: Vec<String> = links.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
        let (payload, secs) = execute(&format!(
            r#"{{"kind":"simulate","n":8,"pattern":"ur","rate":0.02,"flit":128,"cycles":2000,"seed":{seed},"links":[{}]}}"#,
            pairs.join(",")
        ))?;
        sim_s += secs;
        let total = count(&payload, "cycles")?;
        let config = SimConfig::latency_run(128, seed as u64);
        cycles += total;
        packets += count(&payload, "completed_packets")?;
        drain += total - (config.warmup_cycles + 2000) as f64;

        let row = RowPlacement::with_links(8, links.iter().copied()).map_err(|e| e.to_string())?;
        let topology = MeshTopology::uniform(8, &row);
        let traffic = TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, 8);
        let start = Instant::now();
        std::hint::black_box(Simulator::new(
            &topology,
            Workload::new(traffic, 0.02, PacketMix::paper()),
            config,
        ));
        build_s += start.elapsed().as_secs_f64();
    }
    metrics.push(("sim.cycles_per_s", cycles / sim_s));
    metrics.push(("sim.ns_per_packet", sim_s * 1e9 / packets));
    metrics.push(("sim.build_ms", build_s * 1e3 / EXPRESS_8.len() as f64));
    metrics.push(("sim.drain_share", drain / cycles));

    // Lockstep batches and sweep ladders on the `batch` shapes.
    let base: u32 = rng.gen::<u32>() >> 8 << 5;
    let (payload, secs) = execute(&format!(
        r#"{{"kind":"scenario","workers":1,"manifest":{{"scenario":1,"seed":{base},"topology":{{"n":8}},"traffic":{{"rate":0.02}},"sim":{{"warmup":300,"cycles":700}},"matrix":{{"seed":{{"range":[{base},{}]}}}}}}}}"#,
        base + 7
    ))?;
    let scenarios = count(payload.get("summary").unwrap_or(&Value::Null), "scenarios")?;
    metrics.push(("scenario.ms_per_scenario", secs * 1e3 / scenarios));

    let seed_t: u32 = rng.gen();
    let (payload, secs) = execute(&format!(
        r#"{{"kind":"throughput","n":4,"pattern":"ur","flit":128,"seed":{seed_t},"workers":1}}"#
    ))?;
    let points = payload
        .get("samples")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len) as f64;
    metrics.push(("sweep.ms_per_rate_point", secs * 1e3 / points));
    metrics.push(("sweep.rate_points", points));
    Ok(metrics)
}
