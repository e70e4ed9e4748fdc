//! Executes a manifest's expansion: topology resolution (explicit links,
//! the SA solver, or the QoS-constrained per-row solver), per-phase
//! traffic and link events, and cycle-level simulation of every phase
//! through [`noc_sim::simulate_many`].

use crate::expand::{self, ResolvedScenario};
use crate::manifest::{Manifest, ManifestError, PhaseSpec};
use faultpoint::{Fault, Schedule};
use noc_json::Value;
use noc_model::PacketMix;
use noc_placement::{optimize_app_specific, solve_row, AllPairsObjective, SaParams};
use noc_routing::HopWeights;
use noc_sim::{SimConfig, SimStats};
use noc_topology::{MeshTopology, RowPlacement};
use noc_traffic::{SyntheticPattern, TrafficMatrix, Workload};

/// Fault-injection site hit once per phase planned. An armed `Error`
/// fails that scenario with a structured per-scenario error before any of
/// its phases simulate; an armed `Delay` stalls the planning (exercising
/// batch deadline handling).
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
/// [`faultpoint::Schedule`] at the exact hit counts the executor reaches.
/// A caller that arms it ([`faultpoint::arm`]) around [`run_batch`]
/// makes every fail/degrade event also fire as a recorded injection, so a
/// chaos test can assert the exact event sequence a manifest encodes.
/// The executor never arms it: a `faults` section changes neither the
/// execution path nor the results.
///
/// The returned schedule is empty unless the manifest has a `faults`
/// section.
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

/// What a traffic matrix depends on: the mesh side and either a
/// synthetic pattern or a hotspot target and weight (as bits).
#[derive(PartialEq)]
enum MatrixKey {
    Pattern(usize, SyntheticPattern),
    Hotspot(usize, usize, u64),
}

/// The matrices one planning worker has built. A matrix's rates sit
/// behind an `Arc`, so every phase that needs one shares a single copy.
type Matrices = Vec<(MatrixKey, TrafficMatrix)>;

fn phase_matrix(m: &Manifest, phase: &PhaseSpec, built: &mut Matrices) -> TrafficMatrix {
    let n = m.topology.n;
    let key = match phase.hotspot.or(m.traffic.hotspot) {
        Some(target) => MatrixKey::Hotspot(n, target, m.traffic.hotspot_weight.to_bits()),
        None => MatrixKey::Pattern(n, phase.pattern.unwrap_or(m.traffic.pattern)),
    };
    if let Some((_, matrix)) = built.iter().find(|(k, _)| *k == key) {
        return matrix.clone();
    }
    let matrix = match key {
        MatrixKey::Hotspot(n, target, weight) => hotspot_matrix(n, target, f64::from_bits(weight)),
        MatrixKey::Pattern(n, pattern) => TrafficMatrix::from_pattern(pattern, n),
    };
    built.push((key, matrix.clone()));
    matrix
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

/// One phase's simulation inputs, resolved ahead of execution.
struct PhaseSim {
    phase: PhaseSpec,
    /// The phase's own topology when it fails or degrades links; `None`
    /// runs it on the scenario's resolved topology.
    edited: Option<MeshTopology>,
    rate: f64,
    workload: Workload,
    config: SimConfig,
}

/// One scenario, planned: its resolved topology and every phase's
/// simulation inputs.
struct Plan {
    resolved: ResolvedTopology,
    sims: Vec<PhaseSim>,
}

/// Plans one scenario: resolves its topology (running its placement solve,
/// if any) and each phase's simulation. Each phase hits the scenario's
/// fault sites as it is planned; an injected `Error` fails the scenario
/// before any of its phases simulate.
fn plan(scenario: &ResolvedScenario, matrices: &mut Matrices) -> Result<Plan, String> {
    count("scenario.run", 1);
    let m = &scenario.manifest;
    let resolved = resolve_topology(m)?;
    let implicit;
    let phases = if m.phases.is_empty() {
        implicit = [implicit_phase()];
        &implicit[..]
    } else {
        &m.phases[..]
    };
    let mut sims = Vec::with_capacity(phases.len());
    for (i, phase) in phases.iter().enumerate() {
        if faultpoint::hit(SITE_PHASE) == Some(faultpoint::Injected::Error) {
            return Err(format!("injected fault at phase {:?}", phase.name));
        }
        for _ in &phase.fail_links {
            faultpoint::hit(SITE_LINK_FAIL);
        }
        for _ in &phase.degrade_links {
            faultpoint::hit(SITE_LINK_DEGRADE);
        }
        let edited = (!phase.fail_links.is_empty() || !phase.degrade_links.is_empty())
            .then(|| apply_link_events(&resolved.topo, &phase.fail_links, &phase.degrade_links));
        let rate = m.traffic.rate * phase.rate_scale;
        let workload = Workload::new(phase_matrix(m, phase, matrices), rate, PacketMix::paper());
        let mut config = SimConfig::latency_run(m.sim.flit, phase_seed(m.seed, i));
        config.warmup_cycles = m.sim.warmup;
        config.measure_cycles = phase.cycles.unwrap_or(m.sim.cycles);
        sims.push(PhaseSim {
            phase: phase.clone(),
            edited,
            rate,
            workload,
            config,
        });
    }
    Ok(Plan { resolved, sims })
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

/// Assembles one scenario's result object (one NDJSON line on the wire):
/// identity (name, fingerprint, axis assignment), the resolved express
/// links, one entry per phase, and cycle-weighted aggregates.
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

/// Expands a manifest and runs every resolved scenario.
///
/// Every manifest takes one path. Each scenario is planned (topology,
/// placement solve, per-phase inputs) on a `noc_par::par_map_with` worker
/// (`workers`, `0` = one per core); then every phase simulation of every
/// scenario runs through [`noc_sim::simulate_many`], which packs
/// same-topology simulations into lockstep passes; then the items are
/// assembled in expansion order. Every scenario is seed-deterministic and
/// every lockstep lane equals its one-lane run, so the item list — and
/// therefore the daemon's NDJSON stream — is **byte-identical across runs
/// and worker counts**.
pub fn run_batch(manifest: &Manifest, workers: usize) -> Result<BatchResult, ManifestError> {
    let scenarios = expand::expand(manifest)?;
    count("scenario.batch", 1);
    count("scenario.expanded", scenarios.len() as u64);
    let total = scenarios.len();
    let plans = noc_par::par_map_with(scenarios, workers, Matrices::new, |matrices, scenario| {
        let plan = plan(&scenario, matrices);
        (scenario, plan)
    });
    let jobs = plans
        .iter()
        .filter_map(|(_, plan)| plan.as_ref().ok())
        .flat_map(|plan| {
            plan.sims.iter().map(|sim| {
                let topology = sim.edited.as_ref().unwrap_or(&plan.resolved.topo);
                (topology, sim.workload.clone(), sim.config)
            })
        })
        .collect();
    // A scenario reports no per-router activity.
    let keep = |stats| SimStats {
        activity: Vec::new(),
        ..stats
    };
    let mut stats = noc_sim::simulate_many(jobs, workers, keep).into_iter();
    let items: Vec<Value> = plans
        .into_iter()
        .map(|(scenario, plan)| match plan {
            Ok(plan) => {
                let mut totals = PhaseTotals::new();
                for sim in &plan.sims {
                    let s = stats.next().expect("every phase simulated");
                    totals.push(&sim.phase, sim.rate, &s);
                }
                scenario_json(&scenario, &plan.resolved, totals)
            }
            Err(message) => {
                count("scenario.failed", 1);
                noc_json::obj! {
                    "name" => Value::Str(scenario.name.clone()),
                    "fingerprint" => Value::Str(format!("{:016x}", scenario.fingerprint)),
                    "error" => Value::Str(message),
                }
            }
        })
        .collect();
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
        let a = run_batch(&tiny(), 1).unwrap().items.remove(0);
        let b = run_batch(&tiny(), 1).unwrap().items.remove(0);
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
    fn phases_apply_link_events() {
        let m = Manifest::parse(
            r#"{"scenario":1,"topology":{"n":4,"links":[[0,3]]},
                "traffic":{"rate":0.01},"sim":{"warmup":100,"cycles":300},
                "phases":[{"name":"ok"},
                          {"name":"broken","fail_links":[[0,3]]},
                          {"name":"limp","degrade_links":[[0,3]]}]}"#,
        )
        .unwrap();
        let result = run_batch(&m, 1).unwrap().items.remove(0);
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
        let result = run_batch(&m, 1).unwrap().items.remove(0);
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
