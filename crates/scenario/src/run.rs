//! Executes resolved scenarios: topology resolution (explicit links, the
//! SA solver, or the QoS-constrained per-row solver), per-phase traffic
//! and link events, cycle-level simulation, and the deterministic batch
//! runner that fans a whole expansion across `noc-par` workers.

use crate::expand::{self, ResolvedScenario};
use crate::manifest::{Manifest, ManifestError, PhaseSpec};
use faultpoint::{Fault, Schedule};
use noc_json::Value;
use noc_model::PacketMix;
use noc_placement::{optimize_app_specific, solve_row, AllPairsObjective, SaParams};
use noc_routing::{DorRouter, HopWeights};
use noc_sim::{BatchSimulator, NetTables, SimConfig, SimStats, Simulator};
use noc_topology::{MeshTopology, RowPlacement};
use noc_traffic::{TrafficMatrix, Workload};
use std::sync::Arc;

/// Fault-injection site hit once per phase executed. An armed `Error`
/// fails that scenario with a structured per-scenario error; an armed
/// `Delay` stalls the phase (exercising batch deadline handling).
pub const SITE_PHASE: &str = "scenario.phase";
/// Site hit once per link-failure event applied to a phase topology.
pub const SITE_LINK_FAIL: &str = "scenario.link.fail";
/// Site hit once per link-degradation event applied to a phase topology.
pub const SITE_LINK_DEGRADE: &str = "scenario.link.degrade";

fn count(name: &str, n: u64) {
    if let Some(sink) = noc_trace::sink() {
        sink.registry().counter(name).add(n);
    }
}

/// Compiles a manifest's per-phase link events onto a seeded
/// [`faultpoint::Schedule`], arming the scenario sites at the exact
/// hit counts the executor will reach. Arming the compiled schedule makes
/// every fail/degrade event also fire as a recorded injection, so chaos
/// tests can assert the exact event sequence a manifest encodes.
///
/// Only meaningful when the manifest has a `faults` section; the returned
/// schedule is empty otherwise.
pub fn compile_fault_schedule(manifest: &Manifest) -> Schedule {
    let Some(faults) = &manifest.faults else {
        return Schedule::new();
    };
    let mut schedule = Schedule::seeded(faults.seed);
    let mut fail_hit = 0u64;
    let mut degrade_hit = 0u64;
    for phase in &manifest.phases {
        for _ in &phase.fail_links {
            fail_hit += 1;
            schedule = schedule.fault_at(SITE_LINK_FAIL, fail_hit, Fault::Error);
        }
        for _ in &phase.degrade_links {
            degrade_hit += 1;
            schedule = schedule.fault_at(SITE_LINK_DEGRADE, degrade_hit, Fault::Error);
        }
    }
    schedule
}

/// A uniform background plus a concentrated component aimed at `target`:
/// the hotspot-migration traffic model (phases move `target` around).
fn hotspot_matrix(n: usize, target: usize, weight: f64) -> TrafficMatrix {
    let routers = n * n;
    let mut rates = vec![0.0f64; routers * routers];
    let background = (1.0 - weight) / (routers.saturating_sub(1).max(1)) as f64;
    for src in 0..routers {
        for dst in 0..routers {
            if src == dst {
                continue;
            }
            let mut rate = background;
            if dst == target {
                rate += weight;
            }
            rates[src * routers + dst] = rate;
        }
    }
    TrafficMatrix::from_rates(n, rates)
}

/// The QoS gamma matrix: uniform background weight 1 on every ordered
/// pair, plus each flow's weight concentrated on its pair, scaled by the
/// number of pairs so a weight-1 flow doubles its pair's share.
fn qos_gamma(n: usize, flows: &[crate::manifest::QosFlow]) -> Vec<f64> {
    let routers = n * n;
    let mut gamma = vec![0.0f64; routers * routers];
    for src in 0..routers {
        for dst in 0..routers {
            if src != dst {
                gamma[src * routers + dst] = 1.0;
            }
        }
    }
    let pairs = (routers * (routers - 1)) as f64;
    for flow in flows {
        gamma[flow.src * routers + flow.dst] += flow.weight * pairs / routers as f64;
    }
    gamma
}

/// Splits a placement's links for one phase: failed links are removed,
/// degraded links are split at their midpoint (the span survives but
/// costs an extra router traversal; spans too short to split degrade to
/// plain removal, since unit spans are the always-present local links).
fn edit_placement(
    row: &RowPlacement,
    fail: &[(usize, usize)],
    degrade: &[(usize, usize)],
) -> RowPlacement {
    let n = row.len();
    let mut links: Vec<(usize, usize)> = Vec::new();
    for link in row.express_links() {
        let key = (link.a, link.b);
        if fail.contains(&key) {
            continue;
        }
        if degrade.contains(&key) {
            let mid = (link.a + link.b) / 2;
            if mid - link.a >= 2 {
                links.push((link.a, mid));
            }
            if link.b - mid >= 2 {
                links.push((mid, link.b));
            }
            continue;
        }
        links.push(key);
    }
    links.sort_unstable();
    links.dedup();
    // Midpoint splits only shorten spans, so the edited row keeps (or
    // lowers) the original cross-section and stays constructible.
    RowPlacement::with_links(n, links).expect("edited placement stays valid")
}

fn apply_link_events(
    topo: &MeshTopology,
    fail: &[(usize, usize)],
    degrade: &[(usize, usize)],
) -> MeshTopology {
    if fail.is_empty() && degrade.is_empty() {
        return topo.clone();
    }
    let n = topo.side();
    let rows = (0..n)
        .map(|y| edit_placement(topo.row_placement(y), fail, degrade))
        .collect();
    let cols = (0..n)
        .map(|x| edit_placement(topo.col_placement(x), fail, degrade))
        .collect();
    MeshTopology::from_placements(rows, cols).expect("edited topology stays valid")
}

/// Deterministic per-phase seed derivation (SplitMix64 increment).
fn phase_seed(base: u64, phase: usize) -> u64 {
    let mut z = base.wrapping_add((phase as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct ResolvedTopology {
    topo: MeshTopology,
    links: Vec<(usize, usize)>,
    objective: Option<f64>,
}

fn resolve_topology(m: &Manifest) -> Result<ResolvedTopology, String> {
    let n = m.topology.n;
    if let Some(p) = &m.placement {
        let params = SaParams::paper().with_moves(p.moves).with_chains(p.chains);
        if !m.qos.is_empty() {
            let gamma = qos_gamma(n, &m.qos);
            let topo = optimize_app_specific(n, p.c, &gamma, HopWeights::PAPER, &params, m.seed);
            let links = topo
                .row_placement(0)
                .express_links()
                .map(|l| (l.a, l.b))
                .collect();
            return Ok(ResolvedTopology {
                topo,
                links,
                objective: None,
            });
        }
        let objective = AllPairsObjective::paper();
        let out = solve_row(n, p.c, &objective, p.strategy, &params, m.seed);
        let links = out.best.express_links().map(|l| (l.a, l.b)).collect();
        return Ok(ResolvedTopology {
            topo: MeshTopology::uniform(n, &out.best),
            links,
            objective: Some(out.best_objective),
        });
    }
    let row = RowPlacement::with_links(n, m.topology.links.clone()).map_err(|e| e.to_string())?;
    Ok(ResolvedTopology {
        topo: MeshTopology::uniform(n, &row),
        links: m.topology.links.clone(),
        objective: None,
    })
}

fn phase_matrix(m: &Manifest, phase: &PhaseSpec) -> TrafficMatrix {
    let n = m.topology.n;
    match phase.hotspot.or(m.traffic.hotspot) {
        Some(target) => hotspot_matrix(n, target, m.traffic.hotspot_weight),
        None => TrafficMatrix::from_pattern(phase.pattern.unwrap_or(m.traffic.pattern), n),
    }
}

fn implicit_phase() -> PhaseSpec {
    PhaseSpec {
        name: "steady".to_string(),
        ..PhaseSpec::default()
    }
}

fn stats_json(phase: &PhaseSpec, rate: f64, stats: &SimStats) -> Value {
    noc_json::obj! {
        "name" => Value::Str(phase.name.clone()),
        "cycles" => Value::Int(stats.measure_cycles as i128),
        "rate" => Value::Float(rate),
        "failed_links" => Value::Int(phase.fail_links.len() as i128),
        "degraded_links" => Value::Int(phase.degrade_links.len() as i128),
        "avg_latency" => Value::Float(stats.avg_packet_latency),
        "p95_latency" => Value::Float(stats.p95_latency),
        "accepted_throughput" => Value::Float(stats.accepted_throughput),
        "drained" => Value::Bool(stats.drained),
    }
}

/// One phase's simulation inputs, fully resolved ahead of execution. The
/// per-scenario path builds and runs these one at a time; the lockstep batch
/// path plans every phase of every scenario first, then packs
/// same-topology sims into [`BatchSimulator`] lanes.
struct PhaseSim {
    phase: PhaseSpec,
    topo: MeshTopology,
    rate: f64,
    workload: Workload,
    config: SimConfig,
}

/// Resolves the per-phase simulation inputs of one scenario (everything
/// `run_scenario` does before touching the simulator, minus faultpoints).
fn plan_phases(m: &Manifest, resolved: &ResolvedTopology) -> Result<Vec<PhaseSim>, String> {
    let phases: Vec<PhaseSpec> = if m.phases.is_empty() {
        vec![implicit_phase()]
    } else {
        m.phases.clone()
    };
    phases
        .into_iter()
        .enumerate()
        .map(|(i, phase)| {
            let topo = apply_link_events(&resolved.topo, &phase.fail_links, &phase.degrade_links);
            let rate = m.traffic.rate * phase.rate_scale;
            let workload = Workload::new(phase_matrix(m, &phase), rate, PacketMix::paper());
            let mut config = SimConfig::latency_run(m.sim.flit, phase_seed(m.seed, i));
            config.warmup_cycles = m.sim.warmup;
            config.measure_cycles = phase.cycles.unwrap_or(m.sim.cycles);
            Ok(PhaseSim {
                phase,
                topo,
                rate,
                workload,
                config,
            })
        })
        .collect()
}

/// Cycle-weighted per-scenario aggregates, accumulated phase by phase.
#[derive(Default)]
struct PhaseTotals {
    results: Vec<Value>,
    weighted_latency: f64,
    total_cycles: u64,
    throughput_sum: f64,
    all_drained: bool,
}

impl PhaseTotals {
    fn new() -> Self {
        PhaseTotals {
            all_drained: true,
            ..PhaseTotals::default()
        }
    }

    fn push(&mut self, phase: &PhaseSpec, rate: f64, stats: &SimStats) {
        count("scenario.phase", 1);
        self.weighted_latency += stats.avg_packet_latency * stats.measure_cycles as f64;
        self.total_cycles += stats.measure_cycles;
        self.throughput_sum += stats.accepted_throughput;
        self.all_drained &= stats.drained;
        self.results.push(stats_json(phase, rate, stats));
    }
}

/// Runs one fully-resolved scenario to completion.
///
/// The result is a single JSON object (one NDJSON line on the wire):
/// identity (name, fingerprint, axis assignment), the resolved express
/// links, one entry per phase, and cycle-weighted aggregates. Execution
/// is deterministic: every seed is derived from the manifest, so the same
/// resolved scenario always produces the same bytes.
pub fn run_scenario(scenario: &ResolvedScenario) -> Result<Value, String> {
    count("scenario.run", 1);
    let m = &scenario.manifest;
    let resolved = resolve_topology(m)?;
    let sims = plan_phases(m, &resolved)?;
    let mut totals = PhaseTotals::new();
    for sim in &sims {
        if faultpoint::hit(SITE_PHASE) == Some(faultpoint::Injected::Error) {
            return Err(format!("injected fault at phase {:?}", sim.phase.name));
        }
        for _ in &sim.phase.fail_links {
            faultpoint::hit(SITE_LINK_FAIL);
        }
        for _ in &sim.phase.degrade_links {
            faultpoint::hit(SITE_LINK_DEGRADE);
        }
        let stats = Simulator::new(&sim.topo, sim.workload.clone(), sim.config).run();
        totals.push(&sim.phase, sim.rate, &stats);
    }
    Ok(scenario_json(scenario, &resolved, totals))
}

/// Assembles the per-scenario result object from its resolved topology
/// and accumulated phase totals (shared by the per-scenario and lockstep
/// paths, which must emit identical bytes).
fn scenario_json(
    scenario: &ResolvedScenario,
    resolved: &ResolvedTopology,
    totals: PhaseTotals,
) -> Value {
    let m = &scenario.manifest;
    let mut fields: Vec<(String, Value)> = vec![
        ("name".to_string(), Value::Str(scenario.name.clone())),
        (
            "fingerprint".to_string(),
            Value::Str(format!("{:016x}", scenario.fingerprint)),
        ),
        ("seed".to_string(), Value::Int(m.seed as i128)),
        ("n".to_string(), Value::Int(m.topology.n as i128)),
        ("axes".to_string(), Value::Obj(scenario.axes.clone())),
        (
            "links".to_string(),
            Value::Arr(
                resolved
                    .links
                    .iter()
                    .map(|&(a, b)| Value::Arr(vec![Value::Int(a as i128), Value::Int(b as i128)]))
                    .collect(),
            ),
        ),
    ];
    if let Some(objective) = resolved.objective {
        fields.push(("objective".to_string(), Value::Float(objective)));
    }
    let phases = totals.results.len();
    fields.push(("phases".to_string(), Value::Arr(totals.results)));
    fields.push((
        "avg_latency".to_string(),
        Value::Float(totals.weighted_latency / totals.total_cycles.max(1) as f64),
    ));
    fields.push((
        "accepted_throughput".to_string(),
        Value::Float(totals.throughput_sum / phases as f64),
    ));
    fields.push(("drained".to_string(), Value::Bool(totals.all_drained)));
    Value::Obj(fields)
}

/// A completed batch: one result per expanded scenario, in expansion
/// order, plus the batch summary.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// One result object per scenario, in expansion order. A scenario
    /// that failed contributes `{"name":…,"fingerprint":…,"error":…}`
    /// instead of a result body — one bad combination does not sink the
    /// batch.
    pub items: Vec<Value>,
    /// The batch summary: counts, the manifest fingerprint, aggregates.
    pub summary: Value,
}

/// Default lockstep width of the homogeneous-topology fast path.
const DEFAULT_BATCH_LANES: usize = 8;

/// Expands a manifest and runs every resolved scenario with the default
/// lockstep width. See [`run_batch_with`].
pub fn run_batch(manifest: &Manifest, workers: usize) -> Result<BatchResult, ManifestError> {
    run_batch_with(manifest, workers, 0)
}

/// Expands a manifest and runs every resolved scenario.
///
/// The batch fans out over `noc_par::par_map_with` with the given worker
/// count (`0` = one per core). Plain manifests (no placement solve, no
/// fault schedule) take the homogeneous-topology fast path: every phase
/// simulation of every expanded scenario is planned up front, sims on the
/// same topology are packed `batch_lanes` at a time (`0` = default) into
/// [`BatchSimulator`] lockstep passes sharing one set of network tables,
/// and the results are reassembled in expansion order. Either way the
/// fan-out is order-preserving, every scenario is seed-deterministic, and
/// the batch engine is replica-exact, so the item list — and therefore
/// the daemon's NDJSON stream — is **byte-identical across runs, worker
/// counts, and lane counts**.
pub fn run_batch_with(
    manifest: &Manifest,
    workers: usize,
    batch_lanes: usize,
) -> Result<BatchResult, ManifestError> {
    let scenarios = expand::expand(manifest)?;
    count("scenario.batch", 1);
    count("scenario.expanded", scenarios.len() as u64);
    let total = scenarios.len();
    let lanes = match batch_lanes {
        0 => DEFAULT_BATCH_LANES,
        l => l.min(noc_sim::MAX_LANES),
    };
    // The fast path skips the faultpoint sites entirely, so it must not
    // engage while any schedule is armed; placement manifests keep the
    // per-scenario path so the (dominant) SA solves stay fanned across
    // workers.
    let fast = lanes > 1
        && total > 1
        && manifest.placement.is_none()
        && manifest.faults.is_none()
        && !faultpoint::armed();
    let items: Vec<Value> = if fast {
        run_scenarios_lockstep(scenarios, workers, lanes)
    } else {
        noc_par::par_map_with(
            scenarios,
            workers,
            || (),
            |(), scenario| match run_scenario(&scenario) {
                Ok(value) => value,
                Err(message) => {
                    count("scenario.failed", 1);
                    noc_json::obj! {
                        "name" => Value::Str(scenario.name.clone()),
                        "fingerprint" => Value::Str(format!("{:016x}", scenario.fingerprint)),
                        "error" => Value::Str(message),
                    }
                }
            },
        )
    };
    let failed = items.iter().filter(|v| v.get("error").is_some()).count();
    let mean_latency = {
        let oks: Vec<f64> = items
            .iter()
            .filter_map(|v| v.get("avg_latency").and_then(Value::as_f64))
            .collect();
        if oks.is_empty() {
            0.0
        } else {
            oks.iter().sum::<f64>() / oks.len() as f64
        }
    };
    let summary = noc_json::obj! {
        "name" => Value::Str(manifest.name.clone()),
        "scenario" => Value::Int(manifest.version as i128),
        "scenarios" => Value::Int(total as i128),
        "failed" => Value::Int(failed as i128),
        "manifest_fingerprint" => Value::Str(
            format!("{:016x}", expand::manifest_fingerprint(manifest)),
        ),
        "mean_avg_latency" => Value::Float(mean_latency),
    };
    Ok(BatchResult { items, summary })
}

/// The homogeneous-topology fast path: plans every (scenario, phase)
/// simulation, groups sims by identical topology, packs each group
/// `lanes` at a time into [`BatchSimulator`] lockstep passes over shared
/// [`NetTables`], fans the passes across workers, and reassembles the
/// per-scenario JSON in expansion order. Counter totals match the
/// per-scenario path (`scenario.run` per scenario at plan time,
/// `scenario.phase` per phase at assembly); per-item bytes match because
/// every lane is bit-identical to its one-lane run.
fn run_scenarios_lockstep(
    scenarios: Vec<ResolvedScenario>,
    workers: usize,
    lanes: usize,
) -> Vec<Value> {
    enum Plan {
        Run(ResolvedTopology, Vec<PhaseSim>),
        Fail(Value),
    }
    let plans: Vec<(ResolvedScenario, Plan)> = scenarios
        .into_iter()
        .map(|scenario| {
            count("scenario.run", 1);
            let plan = resolve_topology(&scenario.manifest).and_then(|resolved| {
                let sims = plan_phases(&scenario.manifest, &resolved)?;
                Ok((resolved, sims))
            });
            let plan = match plan {
                Ok((resolved, sims)) => Plan::Run(resolved, sims),
                Err(message) => {
                    count("scenario.failed", 1);
                    Plan::Fail(noc_json::obj! {
                        "name" => Value::Str(scenario.name.clone()),
                        "fingerprint" => Value::Str(format!("{:016x}", scenario.fingerprint)),
                        "error" => Value::Str(message),
                    })
                }
            };
            (scenario, plan)
        })
        .collect();

    // Group phase sims by identical topology; build one set of tables per
    // group, shared read-only across every lane and worker.
    struct Group {
        tables: Arc<NetTables>,
        weights: HopWeights,
        jobs: Vec<(usize, usize)>,
    }
    let mut groups: Vec<(MeshTopology, Group)> = Vec::new();
    for (sid, (_, plan)) in plans.iter().enumerate() {
        let Plan::Run(_, sims) = plan else { continue };
        for (pid, sim) in sims.iter().enumerate() {
            let found = groups.iter_mut().find(|(topo, g)| {
                *topo == sim.topo
                    && g.tables.vcs_per_port() == sim.config.vcs_per_port
                    && g.weights == sim.config.weights
            });
            match found {
                Some((_, g)) => g.jobs.push((sid, pid)),
                None => {
                    let dor = DorRouter::new(&sim.topo, sim.config.weights);
                    let tables =
                        Arc::new(NetTables::build(&sim.topo, &dor, sim.config.vcs_per_port));
                    groups.push((
                        sim.topo.clone(),
                        Group {
                            tables,
                            weights: sim.config.weights,
                            jobs: vec![(sid, pid)],
                        },
                    ));
                }
            }
        }
    }

    // Lane-sized lockstep units.
    type Unit = (Arc<NetTables>, Vec<(usize, usize)>);
    let mut units: Vec<Unit> = Vec::new();
    for (_, group) in groups {
        for chunk in group.jobs.chunks(lanes) {
            units.push((Arc::clone(&group.tables), chunk.to_vec()));
        }
    }

    let sim_of = |sid: usize, pid: usize| -> &PhaseSim {
        match &plans[sid].1 {
            Plan::Run(_, sims) => &sims[pid],
            Plan::Fail(_) => unreachable!("failed scenarios contribute no jobs"),
        }
    };
    let done: Vec<Vec<(usize, usize, SimStats)>> = noc_par::par_map_with(
        units,
        workers,
        || (),
        |(), (tables, unit)| {
            let replicas = unit
                .iter()
                .map(|&(sid, pid)| {
                    let sim = sim_of(sid, pid);
                    (sim.workload.clone(), sim.config)
                })
                .collect();
            let stats = BatchSimulator::with_tables(tables, replicas).run();
            unit.iter()
                .zip(stats)
                .map(|(&(sid, pid), s)| (sid, pid, s))
                .collect()
        },
    );

    // Scatter stats back and assemble each scenario in expansion order.
    let mut per_scenario: Vec<Vec<Option<SimStats>>> = plans
        .iter()
        .map(|(_, plan)| match plan {
            Plan::Run(_, sims) => vec![None; sims.len()],
            Plan::Fail(_) => Vec::new(),
        })
        .collect();
    for (sid, pid, stats) in done.into_iter().flatten() {
        per_scenario[sid][pid] = Some(stats);
    }
    plans
        .into_iter()
        .zip(per_scenario)
        .map(|((scenario, plan), stats)| match plan {
            Plan::Fail(value) => value,
            Plan::Run(resolved, sims) => {
                let mut totals = PhaseTotals::new();
                for (sim, s) in sims.iter().zip(stats) {
                    let s = s.expect("every phase simulated");
                    totals.push(&sim.phase, sim.rate, &s);
                }
                scenario_json(&scenario, &resolved, totals)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Manifest {
        Manifest::parse(
            r#"{"scenario":1,"name":"t","topology":{"n":4,"links":[[0,2]]},
                "traffic":{"rate":0.01},"sim":{"warmup":100,"cycles":300},
                "matrix":{"seed":[1,2]}}"#,
        )
        .unwrap()
    }

    #[test]
    fn scenario_runs_deterministically() {
        let batch = expand::expand(&tiny()).unwrap();
        let a = run_scenario(&batch[0]).unwrap();
        let b = run_scenario(&batch[0]).unwrap();
        assert_eq!(a.compact(), b.compact());
        assert_eq!(a.get("name").and_then(Value::as_str), Some("t#0"));
        assert!(a.get("avg_latency").and_then(Value::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn batch_is_worker_count_independent() {
        let m = tiny();
        let one = run_batch(&m, 1).unwrap();
        let four = run_batch(&m, 4).unwrap();
        assert_eq!(one, four, "batch results must not depend on worker count");
        assert_eq!(one.items.len(), 2);
        assert_eq!(
            one.summary.get("scenarios").and_then(Value::as_usize),
            Some(2)
        );
    }

    #[test]
    fn lockstep_lanes_are_byte_identical_to_one_lane_runs() {
        // 6 scenarios × 2 phases; the second phase fails a link, so the
        // fast path must group two distinct per-phase topologies.
        let m = Manifest::parse(
            r#"{"scenario":1,"name":"lk","topology":{"n":4,"links":[[0,3]]},
                "traffic":{"rate":0.01},"sim":{"warmup":100,"cycles":300},
                "phases":[{"name":"a"},
                          {"name":"b","rate_scale":1.5,"fail_links":[[0,3]]}],
                "matrix":{"seed":[1,2,3],"rate":[0.01,0.02]}}"#,
        )
        .unwrap();
        let single = run_batch_with(&m, 2, 1).unwrap();
        assert_eq!(single.items.len(), 6);
        for lanes in [4usize, 8] {
            let fast = run_batch_with(&m, 2, lanes).unwrap();
            assert_eq!(
                fast, single,
                "lanes={lanes} lockstep batch must be byte-identical to one-lane runs"
            );
        }
    }

    #[test]
    fn phases_apply_link_events() {
        let m = Manifest::parse(
            r#"{"scenario":1,"topology":{"n":4,"links":[[0,3]]},
                "traffic":{"rate":0.01},"sim":{"warmup":100,"cycles":300},
                "phases":[{"name":"ok"},
                          {"name":"broken","fail_links":[[0,3]]},
                          {"name":"limp","degrade_links":[[0,3]]}]}"#,
        )
        .unwrap();
        let batch = expand::expand(&m).unwrap();
        let result = run_scenario(&batch[0]).unwrap();
        let phases = result.get("phases").and_then(Value::as_array).unwrap();
        assert_eq!(phases.len(), 3);
        assert_eq!(
            phases[1].get("failed_links").and_then(Value::as_usize),
            Some(1)
        );
        // The degraded (0,3) span splits into (0,1)+(1,3): only the
        // span-2 half survives as an express link, so the phase still
        // differs from the plain-failure phase.
        assert_eq!(
            phases[2].get("degraded_links").and_then(Value::as_usize),
            Some(1)
        );
    }

    #[test]
    fn qos_flows_drive_the_per_row_solver() {
        let m = Manifest::parse(
            r#"{"scenario":1,"topology":{"n":4},
                "placement":{"c":2,"moves":200},
                "qos":[{"src":0,"dst":15,"weight":4.0}],
                "traffic":{"rate":0.01},"sim":{"warmup":100,"cycles":200}}"#,
        )
        .unwrap();
        let batch = expand::expand(&m).unwrap();
        let result = run_scenario(&batch[0]).unwrap();
        assert!(result.get("error").is_none());
        assert!(result.get("drained").is_some());
    }

    #[test]
    fn fault_schedule_compiles_per_event() {
        let m = Manifest::parse(
            r#"{"scenario":1,"topology":{"n":4,"links":[[0,3]]},
                "phases":[{"fail_links":[[0,3]]},{"degrade_links":[[0,3]]}],
                "faults":{"seed":7}}"#,
        )
        .unwrap();
        let schedule = compile_fault_schedule(&m);
        let plans = schedule.plans();
        assert_eq!(plans.len(), 2);
        // Without a faults section the schedule is empty.
        let bare = Manifest::parse(r#"{"scenario":1}"#).unwrap();
        assert!(compile_fault_schedule(&bare).plans().is_empty());
    }
}
