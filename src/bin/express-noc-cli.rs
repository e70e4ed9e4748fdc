//! `express-noc-cli` — command-line front end for the express-link
//! placement toolkit; `express-noc-cli help` lists the commands. The
//! compute commands take their request kind's fields as flags
//! ([`spec::flag_fields`], `docs/PROTOCOL.md`) and run through the
//! daemon's own executor.

use express_noc::cluster::{ClusterSim, ScriptAction, TcpForwarder};
use express_noc::json::{FromJson, Value};
use express_noc::model::LatencyModel;
use express_noc::placement::objective::AllPairsObjective;
use express_noc::placement::{InitialStrategy, SolveJob};
use express_noc::routing::{channel_dependency_cycle, DorRouter, HopWeights};
use express_noc::scenario::field::parse_links;
use express_noc::service::protocol::{self, Envelope, Request, SolveRequest};
use express_noc::service::{exec, generate_load_multi, spec, Client, Server, ServiceConfig};
use express_noc::topology::{display, MeshTopology, RowPlacement};
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

/// Writes formatted output to stderr, ignoring a write error: a closed
/// stderr (`... 2>&1 | head -1`) must not turn a failure's exit code 1
/// into std's "failed printing to stderr" panic.
fn write_stderr(args: std::fmt::Arguments) {
    use std::io::Write;
    let _ = std::io::stderr().lock().write_fmt(args);
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
        write_stderr(format_args!("{}\n", usage()));
        return ExitCode::FAILURE;
    };
    // `request` takes a positional JSON argument before its flags, and
    // `scenario` takes a positional action + manifest path.
    let result = match command.as_str() {
        "request" => cmd_request(rest),
        "scenario" => cmd_scenario(rest),
        _ => run(command, rest),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            write_stderr(format_args!("error: {e}\n\n{}\n", usage()));
            ExitCode::FAILURE
        }
    }
}

fn run(command: &str, rest: &[String]) -> Result<(), String> {
    let pairs = spec::flag_pairs(rest)?;
    let opts: Flags = pairs.iter().cloned().collect();
    // `--trace-out PATH` enables the global telemetry sink for the run
    // and writes the drained event log as NDJSON afterwards.
    let trace_out = opts.get("trace-out");
    if trace_out.is_some() {
        express_noc::trace::enable();
    }
    match command {
        "resume" => cmd_resume(&opts)?,
        "render" => cmd_render(&opts)?,
        "serve" => cmd_serve(&opts)?,
        "loadgen" => cmd_loadgen(&opts)?,
        "cluster-sim" => cmd_cluster_sim(&opts)?,
        "help" | "--help" | "-h" => println!("{}", usage()),
        _ => {
            let compute = COMPUTE.iter().find(|(span, ..)| span[4..] == *command);
            let compute = compute.ok_or_else(|| format!("unknown command {command:?}"))?;
            cmd_compute(compute, &pairs, &opts)?
        }
    }
    match trace_out {
        Some(path) => write_trace(path),
        None => Ok(()),
    }
}

/// The commands that run one request kind: the trace span each runs
/// under (`cli.<command>`), the kind, and the command's own flags. A
/// command's other flags are the kind's [`spec::flag_fields`];
/// `--trace-out` is accepted everywhere.
const COMPUTE: [(&str, &str, &[&str]); 6] = [
    ("cli.solve", "solve", &[]),
    ("cli.checkpoint", "solve", &["snapshot", "stages"]),
    ("cli.optimal", "optimal", &[]),
    ("cli.sweep", "sweep", &[]),
    ("cli.simulate", "simulate", &[]),
    ("cli.frontier", "frontier", &["addr"]),
];

/// The help text, with each compute command's flags generated from its
/// kind's declaration and wrapped to the help's width.
fn usage() -> String {
    let mut usage = USAGE.to_string();
    for (span, kind, _) in COMPUTE {
        let command = &span["cli.".len()..];
        let fields = spec::kind(kind).map_or_else(Vec::new, spec::flag_fields);
        let (mut flags, mut width) = (String::new(), 2 + command.len().max(9));
        for f in fields {
            let flag = f.name.replace('_', "-");
            let token = match &f.default {
                None => format!("--{flag} <{}>", flag.to_uppercase()),
                Some(Value::Str(name)) => format!("[--{flag} {name}]"),
                Some(Value::Arr(_)) => format!("[--{flag} A-B,...]"),
                Some(v) => format!("[--{flag} {}]", v.compact()),
            };
            if width + 1 + token.len() > 78 {
                flags += "\n           ";
                width = 11;
            }
            flags += &format!(" {token}");
            width += 1 + token.len();
        }
        usage = usage.replace(&format!("{{{command}}}"), &flags);
    }
    usage
}

const USAGE: &str = "express-noc-cli — express-link placement toolkit

commands:
  solve    {solve}
            solve the 1D placement problem P(N, C) with simulated annealing;
            --chains K > 1 runs K independent chains in parallel and keeps the best
  checkpoint{checkpoint}
            --snapshot FILE [--stages T]: run T cooling stages of the solve,
            then write a versioned snapshot (docs/SNAPSHOTS.md) to FILE;
            prints the rolling state hash so two checkpoints can be compared;
            the hop weights stay at their defaults, which resume runs under
  resume    --snapshot FILE
            restore a checkpointed solve from FILE and run it to
            completion; the output is byte-identical to the `solve`
            the checkpoint interrupted
  optimal  {optimal}
            exhaustive branch-and-bound optimum of P(N, C)
  sweep    {sweep}
            full network optimization across all admissible link limits
  render    --n <N> --links A-B,C-D,...
            validate and draw a placement; check deadlock freedom
  simulate {simulate}
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
  scenario  expand|run|describe <manifest.json>
            [--workers N] [--addr HOST:PORT] (run only)
            scenario manifests (docs/SCENARIOS.md): 'describe' summarises the
            manifest and its expansion, 'expand' prints one NDJSON line per
            resolved scenario (name, fingerprint, axes), 'run' executes the
            whole batch and streams one NDJSON result line per scenario plus
            a summary line — byte-identical for any --workers;
            with --addr the manifest is sent to a running daemon instead and
            its streamed response is printed verbatim
  frontier {frontier}
            [--addr HOST:PORT]: latency x power x link-budget Pareto frontier
            (docs/FRONTIER.md): solve K weighted scalarizations per admissible
            link limit C and print one NDJSON line per nondominated point plus
            a summary line carrying the frontier fingerprint; byte-identical
            for any --workers, and with --addr the request runs on a daemon
            whose streamed payloads print as the same bytes as the local path

the flags of solve, checkpoint, optimal, sweep, simulate and frontier are
their request kind's fields with - for _, but the daemon's checkpoint
interval (docs/PROTOCOL.md gives each field's bounds and default)

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

/// Parsed `--flag value` pairs; a later flag overrides an earlier one.
type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    Ok(spec::flag_pairs(args)?.into_iter().collect())
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
        Some(_) => get(opts, name),
    }
}

/// A number `exec` writes into every result of its kind; integers print
/// the same through `f64`, since every count a result carries is exact.
fn num(result: &Value, key: &str) -> f64 {
    result.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// The row placement a result's `links` field lists.
fn row(n: usize, result: &Value) -> Result<RowPlacement, String> {
    let links = result.get("links").and_then(Vec::from_json);
    RowPlacement::with_links(n, links.unwrap_or_default()).map_err(|e| e.to_string())
}

/// Reads the command's flags as its request and runs it through the
/// daemon's executor, printing the result as text.
fn cmd_compute(
    &(span, kind, extra): &(&'static str, &str, &[&str]),
    pairs: &[(String, String)],
    opts: &Flags,
) -> Result<(), String> {
    let kind = spec::kind(kind).ok_or("undeclared request kind")?;
    let request = spec::read_flags(kind, pairs, &[extra, &["trace-out"]].concat())?;
    let _span = express_noc::trace::span(span);
    match &request {
        Request::Solve(r) if span == "cli.checkpoint" => return cmd_checkpoint(r, opts),
        Request::Frontier(_) => return cmd_frontier(request, opts),
        _ => {}
    }
    let result = exec::execute(&request)?;
    let v = |key| num(&result, key);
    match &request {
        Request::Solve(r) => print_solved(
            (r.n, r.c, r.strategy, r.chains),
            v("objective"),
            v("evaluations"),
            &row(r.n, &result)?,
        ),
        Request::Optimal(r) => {
            let (objective, evaluations, nodes) = (v("objective"), v("evaluations"), v("nodes"));
            println!(
                "optimal P({},{}): {objective:.4} cycles ({evaluations} evaluations over {nodes} nodes)",
                r.n, r.c
            );
            print!("{}", display::render_row(&row(r.n, &result)?));
        }
        Request::Sweep(r) => {
            let best_c = v("best_c");
            let points = result
                .get("points")
                .and_then(Value::as_array)
                .unwrap_or(&[]);
            println!("   C  b(bits)      L_D      L_S    total");
            for p in points {
                let c = num(p, "c");
                let marker = if c == best_c { "  <- best" } else { "" };
                println!(
                    "{c:>4} {:>8} {:>8.2} {:>8.2} {:>8.2}{marker}",
                    num(p, "flit_bits"),
                    num(p, "avg_head"),
                    num(p, "avg_serialization"),
                    num(p, "avg_latency")
                );
            }
            let best = points.iter().find(|p| num(p, "c") == best_c);
            println!("\nbest placement (C = {best_c}):");
            print!(
                "{}",
                display::render_row(&row(r.n, best.unwrap_or(&result))?)
            );
        }
        Request::Simulate(_) => {
            let drained = result.get("drained") == Some(&Value::Bool(true));
            let (cycles, measured) = (v("cycles"), v("measured_packets"));
            let note = if drained {
                ""
            } else {
                " (NOT drained — beyond saturation?)"
            };
            println!(
                "simulated {cycles} cycles: {measured} packets measured, {} delivered{note}",
                v("completed_packets")
            );
            println!(
                "latency: avg {:.2}, p50 {:.0}, p95 {:.0}, p99 {:.0}, max {} cycles",
                v("avg_latency"),
                v("p50_latency"),
                v("p95_latency"),
                v("p99_latency"),
                v("max_latency")
            );
            println!(
                "throughput: offered {:.4}, accepted {:.4} packets/node/cycle",
                v("offered_rate"),
                v("accepted_throughput")
            );
        }
        _ => return Err("not a compute command".into()),
    }
    Ok(())
}

/// Prints a finished solve of P(n, c) under a strategy with some
/// chains, as `solve` does: the objective, then the row.
fn print_solved(
    (n, c, strategy, chains): (usize, usize, InitialStrategy, usize),
    objective: f64,
    evaluations: f64,
    best: &RowPlacement,
) {
    let chains = chains.max(1);
    println!(
        "P({n},{c}) via {strategy:?} ({chains} chain{}): objective {objective:.4} cycles ({evaluations} evaluations)",
        if chains == 1 { "" } else { "s" },
    );
    print!("{}", display::render_row(best));
}

/// Prints a finished job: `resume`, and a `checkpoint` that finishes
/// early, print the bytes a direct `solve` would.
fn print_job(job: &SolveJob) {
    let out = job.outcome();
    let head = (job.n(), job.c_limit(), job.strategy(), job.params().chains);
    print_solved(head, out.best_objective, out.evaluations as f64, &out.best);
}

/// Runs `--stages` cooling stages of a solve and writes its snapshot to
/// `--snapshot`. `resume` restores under the default hop weights only,
/// so other weights are refused here rather than in a snapshot it would
/// not resume.
fn cmd_checkpoint(r: &SolveRequest, opts: &Flags) -> Result<(), String> {
    let paper = HopWeights::PAPER;
    if r.weights != paper {
        let off = r.weights.router_cycles != paper.router_cycles;
        let flag = if off {
            "router-cycles"
        } else {
            "unit-link-cycles"
        };
        return Err(format!(
            "flag --{flag}: resume runs under the default hop weights only"
        ));
    }
    let path: String = get(opts, "snapshot")?;
    let stages: usize = get_or(opts, "stages", 1)?;
    let job = exec::suspend_solve(r, stages);
    if job.finished() {
        println!("solve finished within {stages} stage(s); nothing left to checkpoint");
        print_job(&job);
        return Ok(());
    }
    let bytes = job.snapshot();
    std::fs::write(&path, &bytes).map_err(|e| format!("write {path}: {e}"))?;
    let (at, hash) = (job.next_move(), job.state_hash());
    let (n, c, moves, size) = (r.n, r.c, r.moves, bytes.len());
    println!("checkpointed P({n},{c}) at move {at}/{moves}: state_hash {hash:016x} ({size} bytes to {path})");
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
    print_job(&job);
    Ok(())
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
    use express_noc::scenario::{expand, manifest_fingerprint, run_batch, Manifest};

    let [action, path, rest @ ..] = args else {
        return Err("scenario needs an action and a manifest, e.g. \
                    scenario run examples/scenarios/ladder.json"
            .into());
    };
    let pairs = spec::flag_pairs(rest)?;
    let takes: &[&str] = match action.as_str() {
        "run" => &["workers", "addr", "trace-out"],
        _ => &["trace-out"],
    };
    if let Some((flag, _)) = pairs.iter().find(|(f, _)| !takes.contains(&f.as_str())) {
        return Err(format!("unknown flag --{flag} for scenario {action}"));
    }
    let opts: Flags = pairs.iter().cloned().collect();
    let trace_out = opts.get("trace-out");
    if trace_out.is_some() {
        express_noc::trace::enable();
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let manifest = Manifest::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let batch = expand(&manifest).map_err(|e| format!("{path}: {e}"))?;
    match action.as_str() {
        "describe" => {
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
            for s in batch {
                let line = express_noc::json::obj! {
                    "index" => Value::Int(s.index as i128),
                    "name" => Value::Str(s.name.clone()),
                    "fingerprint" => Value::Str(format!("{:016x}", s.fingerprint)),
                    "axes" => Value::Obj(s.axes.clone()),
                };
                println!("{}", line.compact());
            }
        }
        "run" => {
            // The run is a `scenario` request: `--workers` is its field,
            // read and bounded by the kind's declaration.
            let kind = spec::kind("scenario").ok_or("undeclared request kind")?;
            let flags = [vec![("manifest".to_string(), text)], pairs].concat();
            let request = spec::read_flags(kind, &flags, &["addr", "trace-out"])?;
            let Request::Scenario(scenario) = &request else {
                unreachable!("the scenario kind reads scenario requests")
            };
            // With --addr the batch runs on a daemon and its streamed
            // NDJSON response is printed verbatim; otherwise it runs
            // in-process through the same `run_batch` the daemon uses.
            if let Some(addr) = opts.get("addr") {
                for line in stream(addr, "scenario", request)? {
                    println!("{line}");
                }
            } else {
                let results = run_batch(&scenario.manifest, scenario.workers)
                    .map_err(|e| format!("{path}: {e}"))?;
                for item in results.items.iter().chain([&results.summary]) {
                    println!("{}", item.compact());
                }
            }
        }
        other => {
            return Err(format!(
                "unknown scenario action {other:?} (expand|run|describe)"
            ))
        }
    }
    match trace_out {
        Some(path) => write_trace(path),
        None => Ok(()),
    }
}

/// Sends `request` to the daemon at `addr` and returns its response
/// lines, however many it streams.
fn stream(addr: &str, id: &str, request: Request) -> Result<Vec<String>, String> {
    let env = Envelope {
        id: id.to_string(),
        deadline_ms: protocol::MAX_DEADLINE_MS,
        forwarded: false,
        request,
    };
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .round_trip_stream(&protocol::request_line(&env))
        .map_err(|e| e.to_string())
}

/// `frontier` — the multi-objective Pareto sweep (docs/FRONTIER.md).
///
/// Both paths print identical bytes: locally the items and summary of
/// `service::exec` output directly; against a daemon, the `result`
/// payload of each streamed line (which wraps exactly those objects).
fn cmd_frontier(request: Request, opts: &Flags) -> Result<(), String> {
    if let Some(addr) = opts.get("addr") {
        let lines = stream(addr, "frontier", request)?;
        for line in &lines {
            let v = express_noc::json::parse(line).map_err(|e| format!("bad response: {e}"))?;
            if v.get("ok").and_then(Value::as_bool) != Some(true) {
                return Err(format!("daemon error: {line}"));
            }
            let result = v.get("result").ok_or("response line missing result")?;
            println!("{}", result.compact());
        }
    } else {
        let value = exec::execute(&request)?;
        let items = value.get("items").and_then(Value::as_array).unwrap_or(&[]);
        for item in items.iter().chain(value.get("summary")) {
            println!("{}", item.compact());
        }
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
    // Every field left out takes its declared default.
    let (kind, fields) = match kind.as_str() {
        "simulate" => (
            "simulate",
            r#""pattern":"ur","rate":0.01,"flit":64,"cycles":5000"#.into(),
        ),
        _ => ("solve", format!(r#""c":{c},"moves":{moves}"#)),
    };
    let make_request = |conn: usize, i: usize| -> String {
        // Cycle through `distinct` seeds so the run exercises both cache
        // misses (first pass) and hits (every later repetition).
        let seed = (conn * requests + i) as u64 % distinct;
        format!(
            r#"{{"id":"{conn}-{i}","kind":"{kind}","deadline_ms":{deadline_ms},"n":{n},"seed":{seed},{fields}}}"#
        )
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
    use express_noc::scenario::field::{parse_pattern, parse_strategy};
    use express_noc::traffic::SyntheticPattern;

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
