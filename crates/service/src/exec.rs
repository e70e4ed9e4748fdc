//! Executes compute requests against the solver and simulator crates,
//! and derives the cache key for each cacheable request.
//!
//! Everything here is deterministic: `solve_row` and `optimize_network`
//! are seed-deterministic by construction (the SA inner loop draws from a
//! seeded xoshiro stream), `exhaustive_optimal` is a deterministic search,
//! and the simulator is a deterministic state machine over a seeded
//! workload. The cache key therefore covers exactly the keyed fields each
//! kind declares in [`crate::spec`] (tabulated in `docs/PROTOCOL.md`).
//!
//! Checkpointed solves and simulations keep their snapshots in the same
//! cache, as raw bytes under a [`snapshot_key`]. A snapshot the cache's
//! digest rejects is dropped there; one that does not restore, or belongs
//! to another request, counts `snapshot.corrupt_dropped`. Either way the
//! run starts fresh, never fails.

use crate::cache::CacheKey;
use crate::metrics::trace_inc;
use crate::protocol::{
    FrontierRequest, OptimalRequest, Request, ScenarioRequest, SimulateRequest, SolveRequest,
    SweepRequest, ThroughputRequest,
};
use noc_json::Value;
use noc_model::{LinkBudget, PacketMix};
use noc_placement::{
    exhaustive_optimal, initial_solution, optimize_network, solve_row, AllPairsObjective,
    InitialStrategy, SaParams,
};
use noc_routing::HopWeights;
use noc_sim::{SimConfig, Simulator, SweepRunner};
use noc_topology::{MeshTopology, RowPlacement};
use noc_traffic::{TrafficMatrix, Workload};
use std::time::Instant;

fn links_json(row: &RowPlacement) -> Value {
    Value::Arr(
        row.express_links()
            .map(|l| Value::Arr(vec![Value::Int(l.a as i128), Value::Int(l.b as i128)]))
            .collect(),
    )
}

/// The cache key of a request, or `None` for inline (non-compute) kinds:
/// the kind plus every field its declaration in [`crate::spec`] marks
/// keyed, as request lines carry them.
pub fn cache_key(request: &Request) -> Option<CacheKey> {
    let mut fields = String::with_capacity(64);
    request.parts().1?.key(&mut fields);
    Some(CacheKey {
        kind: request.kind(),
        fields,
    })
}

// ---------------------------------------------------------------------------
// Checkpoint/resume: versioned snapshots of in-progress work.
// ---------------------------------------------------------------------------

/// Snapshot-store key of a checkpointable request: the result cache key
/// with the kind rewritten into a versioned `snap-vN` namespace, so
/// in-progress snapshots can never collide with finished results and a
/// snapshot wire-format bump retires stale entries wholesale (a `snap-v2`
/// writer simply never looks `snap-v1` keys up again). Simulations are at
/// `snap-v2` since they moved to one-lane batch snapshots.
pub fn snapshot_key(request: &Request) -> Option<CacheKey> {
    let kind = match request {
        Request::Solve(_) => "snap-v1-solve",
        Request::Simulate(_) => "snap-v2-sim",
        _ => return None,
    };
    cache_key(request).map(|key| CacheKey { kind, ..key })
}

/// Stores snapshot bytes under `key`, bumps `snapshot.saved`, and runs
/// the `exec.checkpoint` fault point (the chaos hook for killing a
/// worker *after* a checkpoint is durable: the save happens first, so an
/// injected panic here leaves a resumable snapshot behind).
fn save_snapshot(
    store: &crate::cache::ShardedLru,
    key: &CacheKey,
    bytes: Vec<u8>,
) -> Result<(), ExecError> {
    store.put_snapshot(key.clone(), bytes);
    trace_inc("snapshot.saved");
    if crate::fp::hit("exec.checkpoint") == Some(crate::fp::Injected::Error) {
        return Err(ExecError::Failed("injected checkpoint failure".into()));
    }
    Ok(())
}

fn solve_params(r: &SolveRequest) -> SaParams {
    SaParams::paper().with_moves(r.moves).with_chains(r.chains)
}

/// Builds the resumable annealing job a solve request denotes — the same
/// chains, seeds, and schedule `solve_row` would run, so finishing the
/// job yields a bit-identical outcome.
fn solve_job(r: &SolveRequest) -> noc_placement::SolveJob {
    let objective = AllPairsObjective::with_weights(r.weights);
    noc_placement::SolveJob::new(
        r.n,
        r.c,
        &objective,
        r.strategy,
        &solve_params(r),
        r.seed,
        objective.fingerprint(),
    )
}

/// Whether a restored job matches the request it is about to serve.
/// Everything that shapes the result must agree; a snapshot produced by
/// any other request must never be resumed into this one.
fn job_matches(job: &noc_placement::SolveJob, r: &SolveRequest, objective_fp: u64) -> bool {
    job.n() == r.n
        && job.c_limit() == r.c
        && job.seed() == r.seed
        && job.strategy() == r.strategy
        && job.objective_fp() == objective_fp
        && *job.params() == solve_params(r)
}

/// Renders a finished solve outcome as the response payload — the exact
/// JSON the uncheckpointed full path produces, field for field.
fn solve_payload(r: &SolveRequest, out: &noc_placement::SaOutcome) -> Value {
    noc_json::obj! {
        "n" => Value::Int(r.n as i128),
        "c" => Value::Int(r.c as i128),
        "strategy" => Value::Str(r.strategy.name().to_string()),
        "chains" => Value::Int(r.chains as i128),
        "seed" => Value::Int(r.seed as i128),
        "objective" => Value::Float(out.best_objective),
        "links" => links_json(&out.best),
        "max_cross_section" => Value::Int(out.best.max_cross_section() as i128),
        "evaluations" => Value::Int(out.evaluations as i128),
        "accepted_moves" => Value::Int(out.accepted_moves as i128),
    }
}

/// Runs the job a solve request denotes for `stages` cooling stages and
/// returns it — the "suspend" half of a migration: its `snapshot()`
/// carries on elsewhere. A job that finished within the budget has
/// nothing left to migrate; the caller should just execute the request
/// where it is.
pub fn suspend_solve(r: &SolveRequest, stages: usize) -> noc_placement::SolveJob {
    let objective = AllPairsObjective::with_weights(r.weights);
    let mut job = solve_job(r);
    if !job.run_stages(&objective, stages.max(1)) {
        trace_inc("snapshot.saved");
    }
    job
}

/// Resumes a solve from raw snapshot bytes and runs it to completion —
/// the migration path: a checkpointed job serialised on one node finishes
/// on another with a byte-identical payload. Rejects snapshots that do
/// not match the request.
pub fn resume_solve(r: &SolveRequest, bytes: &[u8]) -> Result<Value, String> {
    let objective = AllPairsObjective::with_weights(r.weights);
    let mut job = noc_placement::SolveJob::restore(bytes).map_err(|e| e.to_string())?;
    if !job_matches(&job, r, objective.fingerprint()) {
        return Err("snapshot does not match the request".into());
    }
    trace_inc("snapshot.resumed");
    job.run_moves(&objective, usize::MAX);
    Ok(solve_payload(r, &job.outcome()))
}

/// The checkpointed solve path: resume from the latest snapshot when one
/// matches, then run stage chunks, saving a snapshot after each chunk.
/// Never degrades — checkpoints are the deadline story here: a run cut
/// short by its deadline leaves a snapshot behind, so a retry picks up
/// where it stopped instead of re-paying the whole move budget.
fn exec_solve_checkpointed(
    r: &SolveRequest,
    key: Option<CacheKey>,
    deadline: Option<Instant>,
    store: Option<&crate::cache::ShardedLru>,
) -> Result<ExecOutput, ExecError> {
    let objective = AllPairsObjective::with_weights(r.weights);
    let objective_fp = objective.fingerprint();
    let slot = match (store, key) {
        (Some(store), Some(key)) => Some((store, key)),
        _ => None,
    };
    let mut job = None;
    if let Some((store, key)) = &slot {
        if let Some(bytes) = store.get_snapshot(key) {
            match noc_placement::SolveJob::restore(&bytes) {
                Ok(restored) if job_matches(&restored, r, objective_fp) => {
                    trace_inc("snapshot.resumed");
                    job = Some(restored);
                }
                _ => trace_inc("snapshot.corrupt_dropped"),
            }
        }
    }
    let mut job = job.unwrap_or_else(|| solve_job(r));
    let stages = r.checkpoint.max(1) as usize;
    while !job.finished() {
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                // Out of budget: persist the progress so the retry that
                // follows resumes instead of restarting.
                if let Some((store, key)) = &slot {
                    save_snapshot(store, key, job.snapshot())?;
                }
                return Err(ExecError::DeadlineExceeded);
            }
        }
        if job.run_stages(&objective, stages) {
            break;
        }
        if let Some((store, key)) = &slot {
            save_snapshot(store, key, job.snapshot())?;
        }
    }
    Ok(ExecOutput {
        value: solve_payload(r, &job.outcome()),
        degraded: false,
    })
}

/// Floor on the checkpointed-simulate snapshot interval, in cycles. The
/// request's `checkpoint` value is a cycle interval, and serializing the
/// full network state every cycle or two turns a millisecond simulation
/// into a deadline-blowing serialization loop — a `checkpoint: 1`
/// request must not be able to wedge a worker.
const MIN_SIM_CHECKPOINT_INTERVAL: u64 = 100;

/// The checkpointed simulate path: resume the network state from the
/// latest snapshot when one matches, then run cycle chunks, saving a
/// snapshot at each cycle boundary. Like the solve path, a run that
/// hits its deadline saves before failing so the retry resumes.
fn exec_simulate_checkpointed(
    r: &SimulateRequest,
    key: Option<CacheKey>,
    deadline: Option<Instant>,
    store: Option<&crate::cache::ShardedLru>,
) -> Result<ExecOutput, ExecError> {
    let row = RowPlacement::with_links(r.n, r.links.clone())
        .map_err(|e| ExecError::Failed(e.to_string()))?;
    let topo = MeshTopology::uniform(r.n, &row);
    let workload = || {
        Workload::new(
            TrafficMatrix::from_pattern(r.pattern, r.n),
            r.rate,
            PacketMix::paper(),
        )
    };
    let mut config = SimConfig::latency_run(r.flit, r.seed);
    config.measure_cycles = r.cycles;
    let slot = match (store, key) {
        (Some(store), Some(key)) => Some((store, key)),
        _ => None,
    };
    let mut sim = None;
    if let Some((store, key)) = &slot {
        if let Some(bytes) = store.get_snapshot(key) {
            match Simulator::restore(&topo, workload(), config, &bytes) {
                Ok(restored) => {
                    trace_inc("snapshot.resumed");
                    sim = Some(restored);
                }
                Err(_) => trace_inc("snapshot.corrupt_dropped"),
            }
        }
    }
    let mut sim = sim.unwrap_or_else(|| Simulator::new(&topo, workload(), config));
    let interval = r.checkpoint.max(MIN_SIM_CHECKPOINT_INTERVAL);
    let mut target = sim.cycle() + interval;
    while sim.run_until(target).is_none() {
        if let Some((store, key)) = &slot {
            save_snapshot(store, key, sim.snapshot())?;
        }
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                return Err(ExecError::DeadlineExceeded);
            }
        }
        target += interval;
    }
    let stats = sim.finish();
    Ok(ExecOutput {
        value: simulate_payload(&stats),
        degraded: false,
    })
}

/// Result of executing a compute request.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutput {
    /// The response payload.
    pub value: Value,
    /// Whether the result came from a degraded (fallback) path. Degraded
    /// results are tagged `"degraded": true` in the payload and must not
    /// be cached — the degradation decision depends on wall-clock budget,
    /// not only on the request parameters.
    pub degraded: bool,
}

/// Structured execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The deadline passed before (or while) executing.
    DeadlineExceeded,
    /// The request itself is unexecutable (bad links, inline kind, …).
    Failed(String),
}

/// Conservative solver throughput estimate used by the degradation
/// heuristic: how many SA moves one worker retires per millisecond.
/// Deliberately pessimistic — a wrong "degrade" still answers within
/// budget; a wrong "run full" risks missing the deadline.
const MOVES_PER_MS: u64 = 100;

/// An upper bound on the candidate evaluations of greedy insertion on
/// `P(n, C)`: with `L = (n−1)(n−2)/2` candidate links and at most
/// `k = min(L, ⌊(C−1)(n−1)/2⌋)` of them fitting the `n − 1` cuts, each
/// round scores at most the `L − r` candidates not yet placed, over at
/// most `k` rounds that place a link and a last one that places none.
fn greedy_evaluations_bound(n: u64, c: u64) -> u64 {
    let candidates = (n - 1) * (n - 2) / 2;
    let fitting = candidates.min((c - 1) * (n - 1) / 2);
    1 + (0..=fitting).map(|r| candidates - r).sum::<u64>()
}

/// Whether a full solve plausibly fits in the remaining deadline budget:
/// its SA run of `moves × chains`, plus greedy insertion's candidate
/// evaluations when that strategy builds the start, each priced as one
/// move. The divide-and-conquer construction is left uncharged: it takes
/// milliseconds at every request size.
fn solve_fits_budget(r: &SolveRequest, deadline: Option<Instant>) -> bool {
    let Some(deadline) = deadline else {
        return true;
    };
    let remaining_ms = deadline
        .saturating_duration_since(Instant::now())
        .as_millis() as u64;
    let construction = match r.strategy {
        InitialStrategy::Greedy => greedy_evaluations_bound(r.n as u64, r.c as u64),
        InitialStrategy::DivideAndConquer | InitialStrategy::Random => 0,
    };
    let moves = (r.moves as u64).saturating_mul(r.chains as u64);
    let estimated_ms = moves.saturating_add(construction) / MOVES_PER_MS;
    estimated_ms <= remaining_ms
}

fn exec_solve(r: &SolveRequest, deadline: Option<Instant>) -> Result<ExecOutput, ExecError> {
    let objective = AllPairsObjective::with_weights(r.weights);
    if !solve_fits_budget(r, deadline) {
        // Graceful degradation: the deadline budget cannot absorb the
        // full solve, so answer with the paper's divide-and-conquer
        // construction, whatever the strategy. It takes milliseconds at
        // every request size (about 3 ms at n = 64), so it lands inside the
        // deadline; greedy insertion does not (seconds at n = 64 with a
        // large C), and random starts carry no constructive signal.
        let out = initial_solution(r.n, r.c, &objective);
        trace_inc("service.degraded");
        let mut value = solve_payload(
            r,
            &noc_placement::SaOutcome {
                best: out.placement,
                best_objective: out.objective,
                evaluations: out.evaluations,
                accepted_moves: 0,
                trace: Vec::new(),
            },
        );
        if let Value::Obj(fields) = &mut value {
            fields.push(("degraded".to_string(), Value::Bool(true)));
        }
        return Ok(ExecOutput {
            value,
            degraded: true,
        });
    }
    let out = solve_row(r.n, r.c, &objective, r.strategy, &solve_params(r), r.seed);
    Ok(ExecOutput {
        value: solve_payload(r, &out),
        degraded: false,
    })
}

fn exec_optimal(r: &OptimalRequest) -> Result<Value, String> {
    let out = exhaustive_optimal(r.n, r.c, &AllPairsObjective::with_weights(r.weights));
    Ok(noc_json::obj! {
        "n" => Value::Int(r.n as i128),
        "c" => Value::Int(r.c as i128),
        "objective" => Value::Float(out.best_objective),
        "links" => links_json(&out.best),
        "evaluations" => Value::Int(out.evaluations as i128),
        "nodes" => Value::Int(out.nodes as i128),
    })
}

fn exec_sweep(r: &SweepRequest) -> Result<Value, String> {
    let budget = LinkBudget {
        n: r.n,
        base_flit_bits: r.base_flit,
    };
    let design = optimize_network(
        &budget,
        &PacketMix::paper(),
        HopWeights::PAPER,
        InitialStrategy::DivideAndConquer,
        &SaParams::paper(),
        r.seed,
    );
    let points: Vec<Value> = design
        .points
        .iter()
        .map(|p| {
            noc_json::obj! {
                "c" => Value::Int(p.c_limit as i128),
                "flit_bits" => Value::Int(p.flit_bits as i128),
                "row_objective" => Value::Float(p.row_objective),
                "avg_head" => Value::Float(p.avg_head),
                "avg_serialization" => Value::Float(p.avg_serialization),
                "avg_latency" => Value::Float(p.avg_latency),
                "links" => links_json(&p.placement),
            }
        })
        .collect();
    Ok(noc_json::obj! {
        "n" => Value::Int(r.n as i128),
        "best_c" => Value::Int(design.best().c_limit as i128),
        "best_latency" => Value::Float(design.best().avg_latency),
        "points" => Value::Arr(points),
    })
}

/// Renders simulation statistics as the `simulate` response payload —
/// shared by the one-shot and checkpointed paths so both produce
/// byte-identical JSON from bit-identical stats.
fn simulate_payload(stats: &noc_sim::SimStats) -> Value {
    noc_json::obj! {
        "cycles" => Value::Int(stats.cycles as i128),
        "measured_packets" => Value::Int(stats.measured_packets as i128),
        "completed_packets" => Value::Int(stats.completed_packets as i128),
        "drained" => Value::Bool(stats.drained),
        "avg_latency" => Value::Float(stats.avg_packet_latency),
        "p50_latency" => Value::Float(stats.p50_latency),
        "p95_latency" => Value::Float(stats.p95_latency),
        "p99_latency" => Value::Float(stats.p99_latency),
        "max_latency" => Value::Int(stats.max_packet_latency as i128),
        "offered_rate" => Value::Float(stats.offered_rate),
        "accepted_throughput" => Value::Float(stats.accepted_throughput),
    }
}

fn exec_simulate(r: &SimulateRequest) -> Result<Value, String> {
    let row = RowPlacement::with_links(r.n, r.links.clone()).map_err(|e| e.to_string())?;
    let topo = MeshTopology::uniform(r.n, &row);
    let workload = Workload::new(
        TrafficMatrix::from_pattern(r.pattern, r.n),
        r.rate,
        PacketMix::paper(),
    );
    let mut config = SimConfig::latency_run(r.flit, r.seed);
    config.measure_cycles = r.cycles;
    let stats = Simulator::new(&topo, workload, config).run();
    Ok(simulate_payload(&stats))
}

fn exec_throughput(r: &ThroughputRequest) -> Result<Value, String> {
    let row = RowPlacement::with_links(r.n, r.links.clone()).map_err(|e| e.to_string())?;
    let topo = MeshTopology::uniform(r.n, &row);
    let workload = Workload::new(
        TrafficMatrix::from_pattern(r.pattern, r.n),
        r.start_rate,
        PacketMix::paper(),
    );
    let config = SimConfig::throughput_run(r.flit, r.seed);
    let result =
        SweepRunner::new(r.workers).saturation_sweep(&topo, &workload, &config, r.start_rate);
    let samples: Vec<Value> = result
        .samples
        .iter()
        .map(|s| {
            noc_json::obj! {
                "offered" => Value::Float(s.offered),
                "accepted" => Value::Float(s.accepted),
                "avg_latency" => Value::Float(s.avg_latency),
            }
        })
        .collect();
    Ok(noc_json::obj! {
        "n" => Value::Int(r.n as i128),
        "saturation" => Value::Float(result.saturation),
        "samples" => Value::Arr(samples),
    })
}

fn exec_scenario(r: &ScenarioRequest) -> Result<Value, String> {
    let batch = noc_scenario::run_batch(&r.manifest, r.workers).map_err(|e| e.to_string())?;
    // The `"scenario_stream"` marker is what `protocol::wire_lines` keys
    // on to fan the one cached value back out into the per-scenario
    // stream; the whole batch is cached as one value so a hit replays an
    // identical stream.
    Ok(noc_json::obj! {
        "scenario_stream" => Value::Bool(true),
        "items" => Value::Arr(batch.items),
        "summary" => batch.summary,
    })
}

fn exec_frontier(r: &FrontierRequest) -> Result<Value, String> {
    // The paper's evaluation setup with the request's size, budget,
    // lattice, move budget and seed.
    let mut cfg = noc_pareto::FrontierConfig::paper(r.n, r.seed);
    cfg.base_flit_bits = r.base_flit;
    cfg.weight_steps = r.weight_steps;
    cfg.sa = SaParams::paper().with_moves(r.moves);
    cfg.workers = r.workers;
    let result = noc_pareto::compute_frontier(&cfg);
    let items: Vec<Value> = result
        .points
        .iter()
        .map(|p| {
            noc_json::obj! {
                "latency" => Value::Float(p.latency),
                "avg_head" => Value::Float(p.avg_head),
                "power_mw" => Value::Float(p.power_mw),
                "links" => Value::Int(p.links as i128),
                "c" => Value::Int(p.c_limit as i128),
                "flit_bits" => Value::Int(p.flit_bits as i128),
                // Weight-lattice index, or -1 for the injected mesh anchor.
                "w" => if p.w_index == usize::MAX {
                    Value::Int(-1)
                } else {
                    Value::Int(p.w_index as i128)
                },
                "placement" => links_json(&p.placement),
            }
        })
        .collect();
    // The `"frontier_stream"` marker is what `protocol::wire_lines` keys
    // on to fan the one cached value back out into the per-point stream;
    // the whole frontier is cached as one value so a hit replays an
    // identical stream.
    Ok(noc_json::obj! {
        "frontier_stream" => Value::Bool(true),
        "items" => Value::Arr(items),
        "summary" => noc_json::obj! {
            "n" => Value::Int(r.n as i128),
            "weight_steps" => Value::Int(r.weight_steps as i128),
            "points" => Value::Int(result.points.len() as i128),
            "dominated" => Value::Int(result.dominated as i128),
            "scalarizations" => Value::Int(result.scalarizations as i128),
            "evaluations" => Value::Int(result.evaluations as i128),
            "fingerprint" => Value::Str(format!("{:016x}", result.fingerprint)),
        },
    })
}

/// Runs a compute request to completion, enforcing `deadline` where the
/// request kind supports it. Inline kinds (`metrics`, `health`,
/// `shutdown`) are answered by the server, not here.
///
/// Deadline semantics per kind:
///
/// - `solve` degrades gracefully: when the remaining budget cannot absorb
///   the requested annealing run, the deterministic constructive
///   heuristic answers instead, tagged `"degraded": true`.
/// - every other kind runs in full; a request whose deadline has already
///   passed fails with [`ExecError::DeadlineExceeded`] without running.
pub fn execute_within(
    request: &Request,
    deadline: Option<Instant>,
) -> Result<ExecOutput, ExecError> {
    execute_with_store(request, deadline, None)
}

/// Like [`execute_within`], but with an optional snapshot store that the
/// checkpointed paths persist progress into. Requests with `checkpoint`
/// off (the default) run exactly as before; checkpointed solves and
/// simulations save a snapshot (see [`snapshot_key`]) into `store` at every interval
/// and resume from the latest matching one on entry — so a retry after a
/// worker panic, a deadline, or a daemon restart continues instead of
/// restarting, with a bit-identical final result either way.
pub fn execute_with_store(
    request: &Request,
    deadline: Option<Instant>,
    store: Option<&crate::cache::ShardedLru>,
) -> Result<ExecOutput, ExecError> {
    if let Some(deadline) = deadline {
        if Instant::now() >= deadline {
            return Err(ExecError::DeadlineExceeded);
        }
    }
    let plain = |r: Result<Value, String>| {
        r.map(|value| ExecOutput {
            value,
            degraded: false,
        })
        .map_err(ExecError::Failed)
    };
    match request {
        Request::Solve(r) if r.checkpoint > 0 => {
            exec_solve_checkpointed(r, snapshot_key(request), deadline, store)
        }
        Request::Solve(r) => exec_solve(r, deadline),
        Request::Optimal(r) => plain(exec_optimal(r)),
        Request::Sweep(r) => plain(exec_sweep(r)),
        Request::Simulate(r) if r.checkpoint > 0 => {
            exec_simulate_checkpointed(r, snapshot_key(request), deadline, store)
        }
        Request::Simulate(r) => plain(exec_simulate(r)),
        Request::Throughput(r) => plain(exec_throughput(r)),
        Request::Scenario(r) => plain(exec_scenario(r)),
        Request::Frontier(r) => plain(exec_frontier(r)),
        Request::Metrics
        | Request::Health
        | Request::Shutdown
        | Request::Trace
        | Request::Prometheus => Err(ExecError::Failed(
            "inline request kinds are not executed on the pool".into(),
        )),
    }
}

/// Runs a compute request with no deadline (never degrades).
pub fn execute(request: &Request) -> Result<Value, String> {
    match execute_within(request, None) {
        Ok(out) => Ok(out.value),
        Err(ExecError::DeadlineExceeded) => Err("deadline exceeded".into()),
        Err(ExecError::Failed(message)) => Err(message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_request(seed: u64) -> Request {
        Request::Solve(SolveRequest {
            n: 8,
            c: 4,
            strategy: InitialStrategy::DivideAndConquer,
            moves: 300,
            chains: 1,
            seed,
            weights: HopWeights::PAPER,
            checkpoint: 0,
        })
    }

    #[test]
    fn chains_are_keyed() {
        let base = solve_request(7);
        let Request::Solve(r) = &base else {
            unreachable!()
        };
        let more_chains = Request::Solve(SolveRequest {
            chains: 4,
            ..r.clone()
        });
        assert_ne!(cache_key(&base), cache_key(&more_chains));
    }

    #[test]
    fn solve_executes_and_keys_deterministically() {
        let req = solve_request(7);
        let a = execute(&req).unwrap();
        let b = execute(&req).unwrap();
        assert_eq!(a, b, "solve must be seed-deterministic");
        assert_eq!(cache_key(&req), cache_key(&solve_request(7)));
        assert_ne!(cache_key(&req), cache_key(&solve_request(8)));
    }

    #[test]
    fn solve_degrades_when_budget_cannot_fit_the_run() {
        use std::time::Duration;
        let req = Request::Solve(SolveRequest {
            n: 12,
            c: 4,
            strategy: InitialStrategy::DivideAndConquer,
            moves: 2_000_000,
            chains: 4,
            seed: 9,
            weights: HopWeights::PAPER,
            checkpoint: 0,
        });
        // 8M moves at 100 moves/ms needs ~80s; a 2s budget must degrade.
        let out = execute_within(&req, Some(Instant::now() + Duration::from_secs(2))).unwrap();
        assert!(out.degraded);
        let Value::Obj(fields) = &out.value else {
            panic!("expected object")
        };
        assert_eq!(
            fields.iter().find(|(k, _)| k == "degraded").map(|(_, v)| v),
            Some(&Value::Bool(true))
        );
        // The fallback is still a valid placement under the C limit.
        let Some((_, Value::Int(mcs))) = fields.iter().find(|(k, _)| k == "max_cross_section")
        else {
            panic!("missing max_cross_section")
        };
        assert!(*mcs <= 4);
        // A greedy line degrades to the same divide-and-conquer
        // construction: greedy insertion can take seconds on a long row
        // with a large C. On P(16, 8) the two constructions differ.
        let greedy = SolveRequest {
            n: 16,
            c: 8,
            strategy: InitialStrategy::Greedy,
            moves: 2_000_000,
            chains: 4,
            seed: 9,
            weights: HopWeights::PAPER,
            checkpoint: 0,
        };
        let deadline = Some(Instant::now() + Duration::from_secs(2));
        let out = execute_within(&Request::Solve(greedy), deadline).unwrap();
        assert!(out.degraded);
        let objective = AllPairsObjective::paper();
        let dnc = links_json(&initial_solution(16, 8, &objective).placement);
        let inserted = noc_placement::greedy_solution(16, 8, &objective).placement;
        assert_ne!(links_json(&inserted), dnc);
        assert_eq!(out.value.get("links"), Some(&dnc));
        assert_eq!(
            out.value.get("strategy"),
            Some(&Value::Str("greedy".to_string()))
        );
        // Greedy's construction is charged too: on P(32, 64) all 465
        // candidate links fit, and its bound of 108,346 candidate
        // evaluations prices at over a second, so a line whose one move
        // fits a 50 ms deadline still degrades.
        let construction = SolveRequest {
            n: 32,
            c: 64,
            strategy: InitialStrategy::Greedy,
            moves: 1,
            chains: 1,
            seed: 9,
            weights: HopWeights::PAPER,
            checkpoint: 0,
        };
        let deadline = Some(Instant::now() + Duration::from_millis(50));
        let out = execute_within(&Request::Solve(construction), deadline).unwrap();
        assert!(out.degraded);
        assert_eq!(out.value.get("degraded"), Some(&Value::Bool(true)));
        let dnc = links_json(&initial_solution(32, 64, &objective).placement);
        assert_eq!(out.value.get("links"), Some(&dnc));
        // Without a deadline the same request would run in full; the
        // degraded tag must then be absent (not `false`), keeping
        // un-deadlined responses bit-identical to the pre-robustness ones.
        let small = Request::Solve(SolveRequest {
            n: 8,
            c: 4,
            strategy: InitialStrategy::DivideAndConquer,
            moves: 200,
            chains: 1,
            seed: 9,
            weights: HopWeights::PAPER,
            checkpoint: 0,
        });
        let full = execute_within(&small, None).unwrap();
        assert!(!full.degraded);
        let Value::Obj(fields) = &full.value else {
            panic!("expected object")
        };
        assert!(fields.iter().all(|(k, _)| k != "degraded"));
    }

    #[test]
    fn greedy_bound_covers_the_evaluations_it_prices() {
        let objective = AllPairsObjective::paper();
        for (n, c) in [(2usize, 1usize), (8, 2), (8, 4), (16, 8), (32, 8), (32, 64)] {
            let used = noc_placement::greedy_solution(n, c, &objective).evaluations as u64;
            let bound = greedy_evaluations_bound(n as u64, c as u64);
            assert!(used <= bound, "P({n},{c}): {used} > {bound}");
        }
        // Every link of the longest row fits: 1 + Σ_{m ≤ 1953} m
        // evaluations, 19.1 s at 100 per ms.
        assert_eq!(greedy_evaluations_bound(64, 1024), 1_908_082);
    }

    #[test]
    fn expired_deadline_fails_without_running() {
        let req = solve_request(1);
        let err = execute_within(&req, Some(Instant::now())).unwrap_err();
        assert_eq!(err, ExecError::DeadlineExceeded);
    }

    #[test]
    fn inline_kinds_have_no_key() {
        assert!(cache_key(&Request::Metrics).is_none());
        assert!(cache_key(&Request::Health).is_none());
        assert!(cache_key(&Request::Shutdown).is_none());
        assert!(cache_key(&Request::Trace).is_none());
        assert!(cache_key(&Request::Prometheus).is_none());
        assert!(execute(&Request::Health).is_err());
    }

    #[test]
    fn throughput_key_ignores_workers_and_result_does_too() {
        let base = ThroughputRequest {
            n: 4,
            pattern: noc_traffic::SyntheticPattern::UniformRandom,
            start_rate: 0.05,
            flit: 64,
            seed: 3,
            links: vec![],
            workers: 1,
        };
        let wide = ThroughputRequest {
            workers: 4,
            ..base.clone()
        };
        assert_eq!(
            cache_key(&Request::Throughput(base.clone())),
            cache_key(&Request::Throughput(wide.clone())),
            "worker counts must not change the cache key"
        );
        let a = execute(&Request::Throughput(base)).unwrap();
        let b = execute(&Request::Throughput(wide)).unwrap();
        assert_eq!(a, b, "sweep results must not depend on workers");
    }

    #[test]
    fn scenario_key_ignores_workers_and_result_does_too() {
        let manifest = noc_scenario::Manifest::parse(
            r#"{"scenario":1,"name":"k","topology":{"n":4},
                "sim":{"warmup":50,"cycles":200},"matrix":{"seed":[1,2]}}"#,
        )
        .unwrap();
        let base = Request::Scenario(Box::new(ScenarioRequest {
            manifest: manifest.clone(),
            workers: 1,
        }));
        let wide = Request::Scenario(Box::new(ScenarioRequest {
            manifest: manifest.clone(),
            workers: 8,
        }));
        assert_eq!(
            cache_key(&base),
            cache_key(&wide),
            "worker counts must not change the cache key"
        );
        let mut reseeded = manifest;
        reseeded.seed = 7;
        let other = Request::Scenario(Box::new(ScenarioRequest {
            manifest: reseeded,
            workers: 1,
        }));
        assert_ne!(cache_key(&base), cache_key(&other));
        let a = execute(&base).unwrap();
        let b = execute(&wide).unwrap();
        assert_eq!(a, b, "batch results must not depend on workers");
        assert_eq!(
            a.get("scenario_stream").and_then(Value::as_bool),
            Some(true)
        );
        assert_eq!(
            a.get("items").and_then(Value::as_array).map(|i| i.len()),
            Some(2)
        );
    }

    #[test]
    fn frontier_key_ignores_workers_and_result_does_too() {
        let base = FrontierRequest {
            n: 6,
            base_flit: 256,
            weight_steps: 3,
            moves: 200,
            seed: 11,
            workers: 1,
        };
        let wide = FrontierRequest {
            workers: 8,
            ..base.clone()
        };
        assert_eq!(
            cache_key(&Request::Frontier(base.clone())),
            cache_key(&Request::Frontier(wide.clone())),
            "worker count must not change the cache key"
        );
        let reseeded = FrontierRequest {
            seed: 12,
            ..base.clone()
        };
        assert_ne!(
            cache_key(&Request::Frontier(base.clone())),
            cache_key(&Request::Frontier(reseeded))
        );
        let a = execute(&Request::Frontier(base)).unwrap();
        let b = execute(&Request::Frontier(wide)).unwrap();
        assert_eq!(a, b, "frontier results must not depend on workers");
        assert_eq!(
            a.get("frontier_stream").and_then(Value::as_bool),
            Some(true)
        );
        let items = a.get("items").and_then(Value::as_array).unwrap();
        assert!(!items.is_empty());
        // The streamed point set is exactly what a cached replay fans back
        // out: the wire framing draws from the same items array.
        let response = crate::protocol::Response::ok("f", true, a.clone());
        let lines = crate::protocol::wire_lines(&response);
        assert_eq!(lines.len(), items.len() + 1);
        for (line, item) in lines.iter().zip(items) {
            let v = noc_json::parse(line).unwrap();
            assert_eq!(v.get("result"), Some(item));
        }
    }

    #[test]
    fn checkpointed_solve_matches_plain_solve_and_resumes() {
        let Request::Solve(base) = solve_request(5) else {
            unreachable!()
        };
        // 2 500 moves at 1 000 moves per stage: a checkpoint interval of
        // one stage splits the run into three chunks with two saves.
        let r = SolveRequest {
            moves: 2_500,
            ..base
        };
        let plain = Request::Solve(r.clone());
        let checkpointed = Request::Solve(SolveRequest {
            checkpoint: 1,
            ..r.clone()
        });
        // Checkpointing is invisible in the cache key and the result.
        assert_eq!(cache_key(&plain), cache_key(&checkpointed));
        let reference = execute(&plain).unwrap();
        assert_eq!(execute(&checkpointed).unwrap(), reference);

        // With a store: the run saves snapshots; a second run over the
        // *left-behind* snapshot of a finished job still answers
        // identically (the final snapshot restores to a finished job).
        let store = crate::cache::ShardedLru::new(64, 2);
        let out = execute_with_store(&checkpointed, None, Some(&store)).unwrap();
        assert_eq!(out.value, reference);
        let key = snapshot_key(&checkpointed).unwrap();
        assert!(
            store.get_snapshot(&key).is_some(),
            "snapshots should persist"
        );
        let again = execute_with_store(&checkpointed, None, Some(&store)).unwrap();
        assert_eq!(again.value, reference);
    }

    #[test]
    fn checkpointed_simulate_matches_plain_simulate() {
        let r = SimulateRequest {
            n: 4,
            pattern: noc_traffic::SyntheticPattern::UniformRandom,
            rate: 0.02,
            flit: 64,
            cycles: 600,
            seed: 3,
            links: vec![(0, 2)],
            checkpoint: 0,
        };
        let reference = execute(&Request::Simulate(r.clone())).unwrap();
        let checkpointed = Request::Simulate(SimulateRequest {
            checkpoint: 150,
            ..r.clone()
        });
        assert_eq!(
            cache_key(&Request::Simulate(r.clone())),
            cache_key(&checkpointed)
        );
        assert_eq!(execute(&checkpointed).unwrap(), reference);
        let store = crate::cache::ShardedLru::new(64, 2);
        let out = execute_with_store(&checkpointed, None, Some(&store)).unwrap();
        assert_eq!(out.value, reference);
        assert!(store
            .get_snapshot(&snapshot_key(&checkpointed).unwrap())
            .is_some());

        // A pathologically small interval is floored, not honoured: the
        // result is still identical and the run completes promptly
        // instead of serializing the network every cycle.
        let tiny = Request::Simulate(SimulateRequest { checkpoint: 1, ..r });
        let out = execute_with_store(&tiny, None, Some(&store)).unwrap();
        assert_eq!(out.value, reference);
    }

    #[test]
    fn snapshot_keys_live_in_their_own_namespace() {
        let solve = solve_request(7);
        let snap = snapshot_key(&solve).unwrap();
        assert_ne!(cache_key(&solve).unwrap(), snap);
        assert_eq!(snap.kind, "snap-v1-solve");
        let simulate = Request::Simulate(SimulateRequest {
            n: 4,
            pattern: noc_traffic::SyntheticPattern::UniformRandom,
            rate: 0.01,
            flit: 64,
            cycles: 1_000,
            seed: 1,
            links: vec![],
            checkpoint: 0,
        });
        assert_eq!(snapshot_key(&simulate).unwrap().kind, "snap-v2-sim");
        assert!(snapshot_key(&Request::Metrics).is_none());
        assert!(snapshot_key(&Request::Sweep(SweepRequest {
            n: 8,
            base_flit: 256,
            seed: 1
        }))
        .is_none());
    }

    #[test]
    fn a_flipped_snapshot_byte_is_dropped_and_the_run_starts_fresh() {
        use crate::cache::{Item, ShardedLru};
        let _lock = crate::metrics::trace_test_lock();
        noc_trace::enable_with_capacity(1024);
        let counter = |name: &str| {
            noc_trace::sink()
                .expect("tracing on")
                .registry()
                .counter(name)
                .get()
        };
        let plain = solve_request(13);
        let Request::Solve(r) = &plain else {
            unreachable!()
        };
        let reference = execute(&plain).unwrap();
        let checkpointed = Request::Solve(SolveRequest {
            checkpoint: 1,
            ..r.clone()
        });
        let key = snapshot_key(&checkpointed).unwrap();
        // A job cut after 100 of its 300 moves, stored where the
        // checkpointed path looks for it.
        let objective = AllPairsObjective::with_weights(r.weights);
        let mut job = solve_job(r);
        job.run_moves(&objective, 100);
        let store = ShardedLru::new(64, 2);
        for flip in [false, true] {
            store.put_snapshot(key.clone(), job.snapshot());
            if flip {
                store.tamper(&key, |item| {
                    let Item::Snapshot(bytes) = item else {
                        unreachable!()
                    };
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x10;
                });
            }
            let dropped = counter("service.cache.poison_dropped");
            let resumed = counter("snapshot.resumed");
            let out = execute_with_store(&checkpointed, None, Some(&store)).unwrap();
            assert_eq!(out.value, reference, "flip {flip}");
            // The intact snapshot resumes; the flipped one is dropped by
            // the cache's digest, and the run starts over from scratch.
            assert_eq!(
                counter("service.cache.poison_dropped") - dropped,
                flip as u64
            );
            assert_eq!(counter("snapshot.resumed") - resumed, !flip as u64);
        }
        noc_trace::disable();
    }

    #[test]
    fn resume_solve_finishes_a_partial_job_bit_identically() {
        let plain = solve_request(11);
        let Request::Solve(r) = &plain else {
            unreachable!()
        };
        let reference = execute(&plain).unwrap();
        let objective = AllPairsObjective::with_weights(r.weights);
        let mut job = solve_job(r);
        // A partial budget: the 300-move job is cut mid-flight.
        job.run_moves(&objective, 100);
        assert!(!job.finished());
        let resumed = resume_solve(r, &job.snapshot()).unwrap();
        assert_eq!(resumed, reference);
        // A snapshot from a different request is refused.
        let other = SolveRequest {
            seed: 12,
            ..r.clone()
        };
        assert!(resume_solve(&other, &job.snapshot()).is_err());
    }

    #[test]
    fn simulate_key_distinguishes_workloads() {
        let base = SimulateRequest {
            n: 4,
            pattern: noc_traffic::SyntheticPattern::UniformRandom,
            rate: 0.01,
            flit: 64,
            cycles: 1_000,
            seed: 1,
            links: vec![],
            checkpoint: 0,
        };
        let with_links = SimulateRequest {
            links: vec![(0, 2)],
            ..base.clone()
        };
        let hotter = SimulateRequest {
            rate: 0.02,
            ..base.clone()
        };
        let k0 = cache_key(&Request::Simulate(base)).unwrap();
        assert_ne!(k0, cache_key(&Request::Simulate(with_links)).unwrap());
        assert_ne!(k0, cache_key(&Request::Simulate(hotter)).unwrap());
    }
}
