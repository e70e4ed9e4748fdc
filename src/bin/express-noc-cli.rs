//! `express-noc-cli` — command-line front end for the express-link
//! placement toolkit.
//!
//! ```text
//! express-noc-cli solve    --n 8 --c 4 [--strategy dnc|random|greedy] [--moves 10000] [--seed 42]
//!                          [--chains 1] [--evaluator incremental|full]
//! express-noc-cli checkpoint --n 8 --c 4 --snapshot job.nsnp [--stages 3] [--moves 10000]
//!                          [--seed 42] [--chains 1]
//! express-noc-cli resume   --snapshot job.nsnp
//! express-noc-cli optimal  --n 8 --c 3
//! express-noc-cli sweep    --n 8 [--base-flit 256] [--seed 42] [--chains 1]
//! express-noc-cli render   --n 8 --links 0-3,3-7,1-4
//! express-noc-cli simulate --n 8 --pattern ur|tp|br|bc|sh|hs|nn --rate 0.02
//!                          [--links 0-3,3-7] [--flit 64] [--cycles 20000] [--seed 42]
//!                          [--trace-out trace.ndjson]
//! express-noc-cli serve    [--addr 127.0.0.1:7474] [--workers N] [--queue N] [--cache N]
//!                          [--peers A,B,C --node-id I] [--vnodes 16] [--replicas 2]
//! express-noc-cli request  '<json>' [--addr 127.0.0.1:7474]
//! express-noc-cli loadgen  [--addr A[,B,...]] [--connections 4] [--requests 50]
//!                          [--kind solve|simulate] [--n 8] [--c 4] [--distinct 8]
//! express-noc-cli cluster-sim [--nodes 3] [--seed 0] [--requests 12]
//!                          [--partition-at T] [--heal-at T] [--kill NODE --kill-at T]
//! express-noc-cli scenario expand|run|describe <manifest.json> [--workers N]
//!                          [--batch-lanes K] [--addr 127.0.0.1:7474]
//! express-noc-cli frontier --n 8 [--base-flit 256] [--weight-steps 5] [--moves M]
//!                          [--seed S] [--workers N] [--addr 127.0.0.1:7474]
//! ```

use express_noc::cluster::{ClusterSim, ScriptAction, TcpForwarder};
use express_noc::model::{LatencyModel, LinkBudget, PacketMix};
use express_noc::placement::objective::AllPairsObjective;
use express_noc::placement::{
    exhaustive_optimal, optimize_network, solve_row, EvalMode, InitialStrategy, SaParams, SolveJob,
};
use express_noc::routing::{channel_dependency_cycle, DorRouter, HopWeights};
use express_noc::service::protocol::{self, Envelope, Request, SimulateRequest, SolveRequest};
use express_noc::service::spec::{parse_evaluator, parse_pattern, parse_strategy};
use express_noc::service::{generate_load_multi, Client, Server, ServiceConfig};
use express_noc::sim::{SimConfig, Simulator};
use express_noc::topology::{display, MeshTopology, RowPlacement};
use express_noc::traffic::{SyntheticPattern, TrafficMatrix, Workload};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Writes formatted output to stdout. A closed stdout (`... | head`) ends
/// the process quietly with success instead of std's "failed printing to
/// stdout" panic; any other write error still panics.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    let written = std::io::stdout().lock().write_fmt(args);
    if let Err(e) = written {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

// Every `print!` / `println!` in this file goes through `write_stdout`.
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `request` takes a positional JSON argument before its flags, and
    // `scenario` takes a positional action + manifest path.
    if command == "request" {
        return match cmd_request(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    if command == "scenario" {
        return match cmd_scenario(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_flags(rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // `--trace-out PATH` enables the global telemetry sink for the run
    // and writes the drained event log as NDJSON afterwards.
    let trace_out = opts.get("trace-out").cloned();
    if trace_out.is_some() {
        express_noc::trace::enable();
    }
    let result = match command.as_str() {
        "solve" => cmd_solve(&opts),
        "checkpoint" => cmd_checkpoint(&opts),
        "resume" => cmd_resume(&opts),
        "optimal" => cmd_optimal(&opts),
        "sweep" => cmd_sweep(&opts),
        "render" => cmd_render(&opts),
        "simulate" => cmd_simulate(&opts),
        "serve" => cmd_serve(&opts),
        "loadgen" => cmd_loadgen(&opts),
        "cluster-sim" => cmd_cluster_sim(&opts),
        "frontier" => cmd_frontier(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    let result = result.and_then(|()| match &trace_out {
        Some(path) => write_trace(path),
        None => Ok(()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "express-noc-cli — express-link placement toolkit

commands:
  solve     --n <N> --c <C> [--strategy dnc|random|greedy] [--moves M] [--seed S]
            [--chains K] [--evaluator incremental|full] [--trace-out PATH]
            solve the 1D placement problem P(N, C) with simulated annealing;
            K > 1 runs K independent chains in parallel and keeps the best
  checkpoint --n <N> --c <C> --snapshot FILE [--stages T] [--strategy dnc|random|greedy]
            [--moves M] [--seed S] [--chains K] [--evaluator incremental|full]
            run T cooling stages of the solve, then write a versioned
            snapshot (docs/SNAPSHOTS.md) to FILE; prints the rolling
            state hash so two checkpoints can be compared at a glance
  resume    --snapshot FILE
            restore a checkpointed solve from FILE and run it to
            completion; the output is byte-identical to the `solve`
            the checkpoint interrupted
  optimal   --n <N> --c <C>
            exhaustive branch-and-bound optimum of P(N, C)
  sweep     --n <N> [--base-flit BITS] [--seed S] [--chains K]
            full network optimization across all admissible link limits
  render    --n <N> --links A-B,C-D,...
            validate and draw a placement; check deadlock freedom
  simulate  --n <N> --pattern ur|tp|br|bc|sh|hs|nn --rate R
            [--links A-B,...] [--flit BITS] [--cycles M] [--seed S] [--trace-out PATH]
            cycle-level simulation of a workload on a placement
  serve     [--addr 127.0.0.1:7474] [--workers N] [--queue N] [--cache N]
            [--peers A,B,C --node-id I] [--vnodes 16] [--replicas 2]
            run the placement daemon (NDJSON over TCP; Ctrl-C drains);
            with --peers, forward cache-shard-owned requests to peers
  request   '<json>' [--addr 127.0.0.1:7474]
            send one request line to a running daemon, pretty-print the reply
  loadgen   [--addr A[,B,...]] [--connections 4] [--requests 50]
            [--kind solve|simulate] [--n 8] [--c 4] [--moves 2000]
            [--distinct 8] [--deadline-ms 30000]
            drive concurrent load (round-robin over comma-separated peers,
            failing over on transport errors); print throughput, latency
            percentiles, and the daemon's cache hit counters
  cluster-sim
            [--nodes 3] [--seed 0] [--requests 12] [--workers 1]
            [--drop 0.0] [--dup 0.0] [--partition-at T] [--heal-at T]
            [--kill NODE] [--kill-at T] [--verbose 0|1]
            deterministic in-process cluster simulation: sharded requests,
            forwarding, replica failover, gossip-driven ring changes; same
            seed and script reproduce the identical event log
  scenario  expand|run|describe <manifest.json> [--workers N] [--batch-lanes K]
            [--addr HOST:PORT]
            scenario manifests (docs/SCENARIOS.md): 'describe' summarises the
            manifest and its expansion, 'expand' prints one NDJSON line per
            resolved scenario (name, fingerprint, axes), 'run' executes the
            whole batch and streams one NDJSON result line per scenario plus
            a summary line — byte-identical for any --workers and any
            --batch-lanes (lockstep replica lanes; 0 = default, 1 = one
            replica per pass);
            with --addr the manifest is sent to a running daemon instead and
            its streamed response is printed verbatim
  frontier  --n <N> [--base-flit BITS] [--weight-steps K] [--moves M] [--seed S]
            [--workers W] [--addr HOST:PORT]
            latency x power x link-budget Pareto frontier (docs/FRONTIER.md):
            solve K weighted scalarizations per admissible link limit C and
            print one NDJSON line per nondominated point plus a summary line
            carrying the frontier fingerprint; byte-identical for any
            --workers, and with --addr the request runs on a daemon whose
            streamed payloads print as the same bytes as the local path

any command also accepts --trace-out PATH: enable the in-process noc-trace
sink for the run and write its event log (SA convergence series, per-link
utilization, spans) as NDJSON to PATH on success";

/// Drains the global trace sink and writes one compact JSON object per
/// line (NDJSON), parseable line-by-line with `noc_json::parse`.
fn write_trace(path: &str) -> Result<(), String> {
    let events = express_noc::trace::drain_events();
    std::fs::write(path, express_noc::trace::to_ndjson(&events))
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {} trace events to {path}", events.len());
    Ok(())
}

/// Parsed `--flag value` pairs.
type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(opts: &Flags, name: &str) -> Result<T, String> {
    opts.get(name)
        .ok_or_else(|| format!("missing required flag --{name}"))?
        .parse()
        .map_err(|_| format!("flag --{name} has an invalid value"))
}

fn get_or<T: std::str::FromStr>(opts: &Flags, name: &str, default: T) -> Result<T, String> {
    match opts.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("flag --{name} has an invalid value")),
    }
}

/// Parses a link list like `0-3,3-7,1-4`.
fn parse_links(spec: &str) -> Result<Vec<(usize, usize)>, String> {
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let (a, b) = pair
                .split_once('-')
                .ok_or_else(|| format!("bad link {pair:?}, expected A-B"))?;
            let a = a
                .trim()
                .parse()
                .map_err(|_| format!("bad endpoint in {pair:?}"))?;
            let b = b
                .trim()
                .parse()
                .map_err(|_| format!("bad endpoint in {pair:?}"))?;
            Ok((a, b))
        })
        .collect()
}

fn cmd_solve(opts: &Flags) -> Result<(), String> {
    let _span = express_noc::trace::span("cli.solve");
    let n: usize = get(opts, "n")?;
    let c: usize = get(opts, "c")?;
    let strategy = parse_strategy(&get_or(opts, "strategy", "dnc".to_string())?)?;
    let moves: usize = get_or(opts, "moves", 10_000)?;
    let seed: u64 = get_or(opts, "seed", 42)?;
    let chains: usize = get_or(opts, "chains", 1)?;
    if chains == 0 {
        return Err("--chains must be at least 1".into());
    }
    let evaluator = parse_evaluator(&get_or(opts, "evaluator", "incremental".to_string())?)?;
    let objective = AllPairsObjective::paper();
    let params = SaParams::paper()
        .with_moves(moves)
        .with_chains(chains)
        .with_evaluator(evaluator);
    let out = solve_row(n, c, &objective, strategy, &params, seed);
    println!(
        "P({n},{c}) via {strategy:?} ({chains} chain{}): objective {:.4} cycles ({} evaluations)",
        if chains == 1 { "" } else { "s" },
        out.best_objective,
        out.evaluations
    );
    print!("{}", display::render_row(&out.best));
    Ok(())
}

/// Prints a finished solve job in the exact format `cmd_solve` uses, so
/// `resume` (and a `checkpoint` that finishes early) emit bytes a direct
/// `solve` of the same parameters would have produced.
fn print_solved_job(job: &SolveJob) {
    let out = job.outcome();
    let (n, c) = (job.n(), job.c_limit());
    let strategy = job.strategy();
    let chains = job.params().chains.max(1);
    println!(
        "P({n},{c}) via {strategy:?} ({chains} chain{}): objective {:.4} cycles ({} evaluations)",
        if chains == 1 { "" } else { "s" },
        out.best_objective,
        out.evaluations
    );
    print!("{}", display::render_row(&out.best));
}

fn cmd_checkpoint(opts: &Flags) -> Result<(), String> {
    let _span = express_noc::trace::span("cli.checkpoint");
    let n: usize = get(opts, "n")?;
    let c: usize = get(opts, "c")?;
    let strategy = parse_strategy(&get_or(opts, "strategy", "dnc".to_string())?)?;
    let moves: usize = get_or(opts, "moves", 10_000)?;
    let seed: u64 = get_or(opts, "seed", 42)?;
    let chains: usize = get_or(opts, "chains", 1)?;
    if chains == 0 {
        return Err("--chains must be at least 1".into());
    }
    let evaluator = parse_evaluator(&get_or(opts, "evaluator", "incremental".to_string())?)?;
    let stages: usize = get_or(opts, "stages", 1)?;
    let path: String = get(opts, "snapshot")?;
    let objective = AllPairsObjective::paper();
    let params = SaParams::paper()
        .with_moves(moves)
        .with_chains(chains)
        .with_evaluator(evaluator);
    let mut job = SolveJob::new(
        n,
        c,
        &objective,
        strategy,
        &params,
        seed,
        objective.fingerprint(),
    );
    if job.run_stages(&objective, stages.max(1)) {
        println!("solve finished within {stages} stage(s); nothing left to checkpoint");
        print_solved_job(&job);
        return Ok(());
    }
    let bytes = job.snapshot();
    std::fs::write(&path, &bytes).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "checkpointed P({n},{c}) at move {}/{moves}: state_hash {:016x} ({} bytes to {path})",
        job.next_move(),
        job.state_hash(),
        bytes.len()
    );
    Ok(())
}

fn cmd_resume(opts: &Flags) -> Result<(), String> {
    let _span = express_noc::trace::span("cli.resume");
    let path: String = get(opts, "snapshot")?;
    let bytes = std::fs::read(&path).map_err(|e| format!("read {path}: {e}"))?;
    let mut job = SolveJob::restore(&bytes).map_err(|e| format!("restore {path}: {e}"))?;
    let objective = AllPairsObjective::paper();
    if job.objective_fp() != objective.fingerprint() {
        return Err(format!(
            "snapshot {path} was taken under a different objective; refusing to resume"
        ));
    }
    job.run_moves(&objective, usize::MAX);
    print_solved_job(&job);
    Ok(())
}

fn cmd_optimal(opts: &Flags) -> Result<(), String> {
    let n: usize = get(opts, "n")?;
    let c: usize = get(opts, "c")?;
    if n > 16 || (n > 10 && c > 4) {
        return Err("exhaustive search is only practical up to n = 16 with small C".into());
    }
    let out = exhaustive_optimal(n, c, &AllPairsObjective::paper());
    println!(
        "optimal P({n},{c}): {:.4} cycles ({} evaluations over {} nodes)",
        out.best_objective, out.evaluations, out.nodes
    );
    print!("{}", display::render_row(&out.best));
    Ok(())
}

fn cmd_sweep(opts: &Flags) -> Result<(), String> {
    let _span = express_noc::trace::span("cli.sweep");
    let n: usize = get(opts, "n")?;
    let base_flit: u32 = get_or(opts, "base-flit", 256)?;
    let seed: u64 = get_or(opts, "seed", 42)?;
    let chains: usize = get_or(opts, "chains", 1)?;
    if chains == 0 {
        return Err("--chains must be at least 1".into());
    }
    let budget = LinkBudget {
        n,
        base_flit_bits: base_flit,
    };
    let design = optimize_network(
        &budget,
        &PacketMix::paper(),
        HopWeights::PAPER,
        InitialStrategy::DivideAndConquer,
        &SaParams::paper().with_chains(chains),
        seed,
    );
    println!(
        "{:>4} {:>8} {:>8} {:>8} {:>8}",
        "C", "b(bits)", "L_D", "L_S", "total"
    );
    for p in &design.points {
        let marker = if p.c_limit == design.best().c_limit {
            "  <- best"
        } else {
            ""
        };
        println!(
            "{:>4} {:>8} {:>8.2} {:>8.2} {:>8.2}{marker}",
            p.c_limit, p.flit_bits, p.avg_head, p.avg_serialization, p.avg_latency
        );
    }
    println!("\nbest placement (C = {}):", design.best().c_limit);
    print!("{}", display::render_row(&design.best().placement));
    Ok(())
}

fn build_topology(opts: &Flags, n: usize) -> Result<MeshTopology, String> {
    match opts.get("links") {
        None => Ok(MeshTopology::mesh(n)),
        Some(spec) => {
            let row = RowPlacement::with_links(n, parse_links(spec)?).map_err(|e| e.to_string())?;
            Ok(MeshTopology::uniform(n, &row))
        }
    }
}

fn cmd_render(opts: &Flags) -> Result<(), String> {
    let n: usize = get(opts, "n")?;
    let spec = opts
        .get("links")
        .ok_or("render needs --links A-B,C-D,...")?;
    let row = RowPlacement::with_links(n, parse_links(spec)?).map_err(|e| e.to_string())?;
    print!("{}", display::render_row(&row));
    println!(
        "max cross-section: {} (fits C >= that)",
        row.max_cross_section()
    );
    let topo = MeshTopology::uniform(n, &row);
    let dor = DorRouter::new(&topo, HopWeights::PAPER);
    match channel_dependency_cycle(&topo, &dor) {
        None => println!("deadlock check: PASS"),
        Some(cycle) => println!("deadlock check: FAIL — cycle {cycle:?}"),
    }
    let zero = LatencyModel::paper().zero_load(&dor);
    println!(
        "zero-load: avg head {:.2} cycles, worst pair {} cycles, avg hops {:.2}",
        zero.avg_head, zero.max_head, zero.avg_hops
    );
    Ok(())
}

fn cmd_simulate(opts: &Flags) -> Result<(), String> {
    let _span = express_noc::trace::span("cli.simulate");
    let n: usize = get(opts, "n")?;
    let pattern = parse_pattern(&get::<String>(opts, "pattern")?)?;
    let rate: f64 = get(opts, "rate")?;
    let flit: u32 = get_or(opts, "flit", 256)?;
    let cycles: u64 = get_or(opts, "cycles", 20_000)?;
    let seed: u64 = get_or(opts, "seed", 42)?;
    let topo = build_topology(opts, n)?;
    let workload = Workload::new(
        TrafficMatrix::from_pattern(pattern, n),
        rate,
        PacketMix::paper(),
    );
    let mut config = SimConfig::latency_run(flit, seed);
    config.measure_cycles = cycles;
    let stats = Simulator::new(&topo, workload, config).run();
    println!(
        "simulated {} cycles: {} packets measured, {} delivered{}",
        stats.cycles,
        stats.measured_packets,
        stats.completed_packets,
        if stats.drained {
            ""
        } else {
            " (NOT drained — beyond saturation?)"
        }
    );
    println!(
        "latency: avg {:.2}, p50 {:.0}, p95 {:.0}, p99 {:.0}, max {} cycles",
        stats.avg_packet_latency,
        stats.p50_latency,
        stats.p95_latency,
        stats.p99_latency,
        stats.max_packet_latency
    );
    println!(
        "throughput: offered {:.4}, accepted {:.4} packets/node/cycle",
        stats.offered_rate, stats.accepted_throughput
    );
    Ok(())
}

/// Set by the SIGINT handler; `serve` drains and exits when it flips.
static SIGINT: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_signum: i32) {
    SIGINT.store(true, Ordering::SeqCst);
}

/// Installs a SIGINT handler via the C `signal(2)` that libc (already
/// linked by std) provides — no external crate needed. Only the
/// async-signal-safe atomic store happens in the handler.
fn install_sigint_handler() {
    #[cfg(unix)]
    unsafe {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT_NUM: i32 = 2;
        signal(SIGINT_NUM, on_sigint as extern "C" fn(i32) as usize);
    }
}

fn cmd_serve(opts: &Flags) -> Result<(), String> {
    let defaults = ServiceConfig::default();
    let config = ServiceConfig {
        addr: get_or(opts, "addr", defaults.addr.clone())?,
        workers: get_or(opts, "workers", defaults.workers)?,
        queue_capacity: get_or(opts, "queue", defaults.queue_capacity)?,
        cache_capacity: get_or(opts, "cache", defaults.cache_capacity)?,
        cache_shards: defaults.cache_shards,
    };
    let mut server = Server::bind(&config).map_err(|e| e.to_string())?;
    install_sigint_handler();
    server.drain_on(&SIGINT);
    // Cluster mode: forward requests whose cache shard a peer owns.
    if let Some(peers_flag) = opts.get("peers") {
        let peers: Vec<String> = peers_flag
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let node_id: usize = get(opts, "node-id")
            .map_err(|_| "--peers requires --node-id <index into the peer list>".to_string())?;
        if node_id >= peers.len() {
            return Err(format!(
                "--node-id {node_id} out of range for {} peers",
                peers.len()
            ));
        }
        let vnodes: usize = get_or(opts, "vnodes", 16)?;
        let replicas: usize = get_or(opts, "replicas", 2)?;
        let forwarder = TcpForwarder::new(node_id, peers.clone(), vnodes, replicas);
        println!(
            "cluster: node {node_id}/{} (fingerprint {:016x}, {vnodes} vnodes, {replicas} replicas)",
            peers.len(),
            forwarder.cluster_fp(),
        );
        server.set_forwarder(std::sync::Arc::new(forwarder));
    }
    println!(
        "noc-service listening on {} ({} workers, queue {}, cache {})",
        server.local_addr().map_err(|e| e.to_string())?,
        config.workers,
        config.queue_capacity,
        config.cache_capacity,
    );
    println!("Ctrl-C (or a shutdown request) drains in-flight work and exits");
    server.run().map_err(|e| e.to_string())?;
    println!("drained cleanly");
    Ok(())
}

fn cmd_request(args: &[String]) -> Result<(), String> {
    let Some((json, rest)) = args.split_first() else {
        return Err("request needs a JSON argument, e.g. \
                    request '{\"kind\":\"health\"}'"
            .into());
    };
    let opts = parse_flags(rest)?;
    let addr: String = get_or(&opts, "addr", "127.0.0.1:7474".to_string())?;
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let reply = client.round_trip(json).map_err(|e| e.to_string())?;
    match express_noc::json::parse(&reply) {
        Ok(v) => println!("{}", v.pretty()),
        Err(_) => println!("{reply}"),
    }
    Ok(())
}

/// `scenario expand|run|describe <manifest.json>` — the manifest DSL
/// front end (format reference: docs/SCENARIOS.md).
fn cmd_scenario(args: &[String]) -> Result<(), String> {
    use express_noc::json::Value;
    use express_noc::scenario::{expand, manifest_fingerprint, run_batch_with, Manifest};

    let [action, path, rest @ ..] = args else {
        return Err("scenario needs an action and a manifest, e.g. \
                    scenario run examples/scenarios/ladder.json"
            .into());
    };
    let opts = parse_flags(rest)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let manifest = Manifest::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match action.as_str() {
        "describe" => {
            let batch = expand(&manifest).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "manifest:    {} (scenario format v{})",
                manifest.name, manifest.version
            );
            println!("fingerprint: {:016x}", manifest_fingerprint(&manifest));
            println!(
                "topology:    {0}x{0} mesh, {1} express link(s) per row{2}",
                manifest.topology.n,
                manifest.topology.links.len(),
                if manifest.placement.is_some() {
                    " + solver placement"
                } else {
                    ""
                }
            );
            println!(
                "phases:      {}",
                if manifest.phases.is_empty() {
                    "1 (implicit steady)".to_string()
                } else {
                    format!(
                        "{} ({})",
                        manifest.phases.len(),
                        manifest
                            .phases
                            .iter()
                            .map(|p| p.name.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                }
            );
            for (axis, values) in &manifest.matrix {
                println!("axis:        {axis} ({} values)", values.len());
            }
            println!("scenarios:   {}", batch.len());
        }
        "expand" => {
            for s in expand(&manifest).map_err(|e| format!("{path}: {e}"))? {
                let line = express_noc::json::obj! {
                    "index" => Value::Int(s.index as i128),
                    "name" => Value::Str(s.name.clone()),
                    "fingerprint" => Value::Str(format!("{:016x}", s.fingerprint)),
                    "axes" => Value::Obj(
                        s.axes
                            .iter()
                            .map(|(axis, value)| (axis.clone(), value.to_json()))
                            .collect(),
                    ),
                };
                println!("{}", line.compact());
            }
        }
        "run" => {
            // With --addr the batch runs on a daemon and its streamed
            // NDJSON response is printed verbatim; otherwise it runs
            // in-process through the same `run_batch` the daemon uses.
            if let Some(addr) = opts.get("addr") {
                let workers: usize = get_or(&opts, "workers", 0)?;
                let lanes: usize = get_or(&opts, "batch-lanes", 0)?;
                let env = Envelope {
                    id: "scenario".to_string(),
                    deadline_ms: protocol::MAX_DEADLINE_MS,
                    forwarded: false,
                    request: Request::Scenario(Box::new(protocol::ScenarioRequest {
                        manifest,
                        workers,
                        lanes,
                    })),
                };
                let mut client =
                    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                let lines = client
                    .round_trip_stream(&protocol::request_line(&env))
                    .map_err(|e| e.to_string())?;
                for line in lines {
                    println!("{line}");
                }
            } else {
                let workers: usize = get_or(&opts, "workers", 0)?;
                let lanes: usize = get_or(&opts, "batch-lanes", 0)?;
                let batch = run_batch_with(&manifest, workers, lanes)
                    .map_err(|e| format!("{path}: {e}"))?;
                for item in &batch.items {
                    println!("{}", item.compact());
                }
                println!("{}", batch.summary.compact());
            }
        }
        other => {
            return Err(format!(
                "unknown scenario action {other:?} (expand|run|describe)"
            ))
        }
    }
    Ok(())
}

/// `frontier` — the multi-objective Pareto sweep (docs/FRONTIER.md).
///
/// Both paths print identical bytes: locally the items and summary of
/// `service::exec` output directly; against a daemon, the `result`
/// payload of each streamed line (which wraps exactly those objects).
fn cmd_frontier(opts: &Flags) -> Result<(), String> {
    use express_noc::json::Value;
    let _span = express_noc::trace::span("cli.frontier");
    let n: usize = get(opts, "n")?;
    let request = Request::Frontier(protocol::FrontierRequest {
        n,
        base_flit: get_or(opts, "base-flit", 256)?,
        weight_steps: get_or(opts, "weight-steps", 5)?,
        moves: get_or(opts, "moves", 10_000)?,
        seed: get_or(opts, "seed", 42)?,
        workers: get_or(opts, "workers", 0)?,
    });
    if let Some(addr) = opts.get("addr") {
        let env = Envelope {
            id: "frontier".to_string(),
            deadline_ms: protocol::MAX_DEADLINE_MS,
            forwarded: false,
            request,
        };
        let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let lines = client
            .round_trip_stream(&protocol::request_line(&env))
            .map_err(|e| e.to_string())?;
        for line in &lines {
            let v = express_noc::json::parse(line).map_err(|e| format!("bad response: {e}"))?;
            if v.get("ok").and_then(Value::as_bool) != Some(true) {
                return Err(format!("daemon error: {line}"));
            }
            let result = v.get("result").ok_or("response line missing result")?;
            println!("{}", result.compact());
        }
    } else {
        let value = express_noc::service::exec::execute(&request).map_err(|e| e.to_string())?;
        let items = value
            .get("items")
            .and_then(Value::as_array)
            .ok_or("frontier result missing items")?;
        for item in items {
            println!("{}", item.compact());
        }
        let summary = value
            .get("summary")
            .ok_or("frontier result missing summary")?;
        println!("{}", summary.compact());
    }
    Ok(())
}

fn cmd_loadgen(opts: &Flags) -> Result<(), String> {
    let addr: String = get_or(opts, "addr", "127.0.0.1:7474".to_string())?;
    let addrs: Vec<String> = addr
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err("--addr needs at least one address".into());
    }
    let connections: usize = get_or(opts, "connections", 4)?;
    let requests: usize = get_or(opts, "requests", 50)?;
    let kind: String = get_or(opts, "kind", "solve".to_string())?;
    let n: usize = get_or(opts, "n", 8)?;
    let c: usize = get_or(opts, "c", 4)?;
    let moves: usize = get_or(opts, "moves", 2_000)?;
    let distinct: u64 = get_or(opts, "distinct", 8)?;
    let deadline_ms: u64 = get_or(opts, "deadline-ms", 30_000)?;
    if distinct == 0 {
        return Err("--distinct must be at least 1".into());
    }
    let make_request = |conn: usize, i: usize| -> String {
        // Cycle through `distinct` seeds so the run exercises both cache
        // misses (first pass) and hits (every later repetition).
        let seed = (conn * requests + i) as u64 % distinct;
        let request = match kind.as_str() {
            "simulate" => Request::Simulate(SimulateRequest {
                n,
                pattern: SyntheticPattern::UniformRandom,
                rate: 0.01,
                flit: 64,
                cycles: 5_000,
                seed,
                links: Vec::new(),
                checkpoint: 0,
            }),
            _ => Request::Solve(SolveRequest {
                n,
                c,
                strategy: InitialStrategy::DivideAndConquer,
                moves,
                chains: 1,
                evaluator: EvalMode::Incremental,
                seed,
                weights: HopWeights::PAPER,
                checkpoint: 0,
            }),
        };
        protocol::request_line(&Envelope {
            id: format!("{conn}-{i}"),
            deadline_ms,
            forwarded: false,
            request,
        })
    };
    println!(
        "loadgen: {connections} connections x {requests} {kind} requests \
         against {} peer(s) ({distinct} distinct seeds)",
        addrs.len(),
    );
    let report = generate_load_multi(&addrs, connections, requests, make_request)
        .map_err(|e| e.to_string())?;
    println!(
        "sent {}, ok {} ({} cached), errors {} in {:.2} s",
        report.sent,
        report.ok,
        report.cached,
        report.errors,
        report.elapsed.as_secs_f64(),
    );
    println!("throughput: {:.1} req/s", report.throughput_rps());
    println!(
        "latency: p50 {} us, p99 {} us, max {} us",
        report.quantile_us(0.50),
        report.quantile_us(0.99),
        report.latencies_us.last().copied().unwrap_or(0),
    );
    // Server-side view: cache hit counters from the metrics endpoint.
    let mut client = Client::connect(&addrs[0]).map_err(|e| e.to_string())?;
    if let Ok(express_noc::service::Response::Ok { result, .. }) =
        client.request(r#"{"id":"loadgen-metrics","kind":"metrics"}"#)
    {
        let hits = result
            .get("cache_hits")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        let misses = result
            .get("cache_misses")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        println!("daemon cache: {hits} hits, {misses} misses");
    }
    Ok(())
}

fn cmd_cluster_sim(opts: &Flags) -> Result<(), String> {
    let nodes: usize = get_or(opts, "nodes", 3)?;
    let seed: u64 = get_or(opts, "seed", 0)?;
    let requests: u64 = get_or(opts, "requests", 12)?;
    let workers: usize = get_or(opts, "workers", 1)?;
    let drop_rate: f64 = get_or(opts, "drop", 0.0)?;
    let dup_rate: f64 = get_or(opts, "dup", 0.0)?;
    let verbose: usize = get_or(opts, "verbose", 0)?;
    if nodes == 0 {
        return Err("--nodes must be at least 1".into());
    }
    let mut sim = ClusterSim::new(express_noc::cluster::SimConfig {
        nodes,
        seed,
        workers,
        drop_rate,
        dup_rate,
        ..Default::default()
    });
    // Scripted faults. The default split for --partition-at halves the
    // cluster; --kill/--kill-at removes one node outright.
    if let Some(tick) = opts.get("partition-at") {
        let tick: u64 = tick.parse().map_err(|_| "--partition-at wants a tick")?;
        let left: Vec<usize> = (0..nodes / 2).collect();
        let right: Vec<usize> = (nodes / 2..nodes).collect();
        sim.script(tick, ScriptAction::Partition(vec![left, right]));
    }
    if let Some(tick) = opts.get("heal-at") {
        let tick: u64 = tick.parse().map_err(|_| "--heal-at wants a tick")?;
        sim.script(tick, ScriptAction::Heal);
    }
    if let Some(victim) = opts.get("kill") {
        let victim: usize = victim.parse().map_err(|_| "--kill wants a node id")?;
        let tick: u64 = get_or(opts, "kill-at", 10)?;
        sim.script(tick, ScriptAction::Kill(victim));
    }
    // Client workload: solve requests spread round-robin over the nodes,
    // with repeating seeds so cache shards and forwarding both engage.
    for r in 0..requests {
        let line = format!(
            r#"{{"id":"cli-{r}","kind":"solve","n":6,"c":3,"moves":60,"seed":{}}}"#,
            r % 4,
        );
        sim.client_request(2 + 3 * r, (r % nodes as u64) as usize, line);
    }
    let report = sim.run();
    if verbose > 0 {
        for event in &report.events {
            println!("{event}");
        }
    }
    println!(
        "cluster-sim: {nodes} nodes, seed {seed}, {} accepted, {} answered, {} unanswered",
        report.accepted,
        report.responses.len(),
        report.unanswered,
    );
    println!(
        "counters: forwarded {}, failover {}, ring_change {}, dropped {}",
        report.counters.forwarded,
        report.counters.failover,
        report.counters.ring_change,
        report.counters.dropped,
    );
    let fps: Vec<String> = report
        .ring_fingerprints
        .iter()
        .map(|(node, fp)| format!("{node}:{fp:016x}"))
        .collect();
    println!("ring views after {} ticks: {}", report.ticks, fps.join(" "));
    let converged = report
        .ring_fingerprints
        .windows(2)
        .all(|w| w[0].1 == w[1].1);
    println!(
        "ring convergence: {}",
        if converged { "converged" } else { "DIVERGED" }
    );
    if report.unanswered > 0 {
        return Err(format!(
            "{} accepted request(s) left unanswered",
            report.unanswered
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags_pairs() {
        let args: Vec<String> = ["--n", "8", "--c", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args).unwrap();
        assert_eq!(flags["n"], "8");
        assert_eq!(get::<usize>(&flags, "c").unwrap(), 4);
        assert_eq!(get_or::<u64>(&flags, "seed", 7).unwrap(), 7);
    }

    #[test]
    fn parse_flags_rejects_bad_shape() {
        let args: Vec<String> = ["--n"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&args).is_err());
        let args: Vec<String> = ["n", "8"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn parse_links_list() {
        assert_eq!(parse_links("0-3,3-7").unwrap(), vec![(0, 3), (3, 7)]);
        assert!(parse_links("0+3").is_err());
        assert!(parse_links("a-b").is_err());
        assert_eq!(parse_links("").unwrap(), vec![]);
    }

    #[test]
    fn parse_enums() {
        assert_eq!(
            parse_strategy("dnc").unwrap(),
            InitialStrategy::DivideAndConquer
        );
        assert!(parse_strategy("zen").is_err());
        assert_eq!(parse_pattern("TP").unwrap(), SyntheticPattern::Transpose);
        assert!(parse_pattern("xx").is_err());
    }
}
