//! Command line of the benchmark.
//!
//! ```text
//! noc-benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//! noc-benchmark run   [--seed N] [--workload NAME]
//! noc-benchmark trace [--seed N] [--workload NAME]
//! noc-benchmark golden
//! ```
//!
//! The first form runs one workload in this process and prints one JSON
//! result line last: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics (and writes the spans to `results/`). `run` and
//! `trace` run each workload in a child process of the first form, print
//! `workload metric value unit` lines and write records to `results/`.
//! `golden` rewrites `golden.json` from the golden seed. Every form exits
//! non-zero when a correctness check fails.

use noc_benchmark::harness::Span;
use noc_benchmark::{Workload, END_TO_END, GOLDEN_SEED, PER_LAYER};
use noc_json::Value;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Timed seconds per run when none are given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 25;

const USAGE: &str = "usage:
  noc-benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1]
  noc-benchmark run   [--seed N] [--workload NAME]
  noc-benchmark trace [--seed N] [--workload NAME]
  noc-benchmark golden
workloads: place simulate batch replay";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(flags: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "golden")) => (Some(c), &argv[1..]),
        _ => (None, &argv[..]),
    };
    let args = match parse(flags) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        Some("golden") => golden(),
        Some(mode) => orchestrate(mode == "trace", &args),
        None => match args.workload {
            Some(workload) => single(workload, &args),
            None => Err(format!("--workload is required\n{USAGE}")),
        },
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// One workload in this process; the result line goes last on stdout.
fn single(workload: Workload, args: &Args) -> Result<(), String> {
    let seconds = args.seconds as f64;
    let (report, declared) = if args.trace {
        let (report, spans) = noc_benchmark::trace(workload, args.seed, seconds, 1.0);
        let path = results_dir().join(format!("trace-{}-{}.ndjson", workload.name(), args.seed));
        if let Err(e) = write_spans(&path, &spans) {
            eprintln!("cannot write {}: {e}", path.display());
        }
        (report, &PER_LAYER[..])
    } else {
        (
            noc_benchmark::measure(workload, args.seed, seconds, 1.0),
            &END_TO_END[..],
        )
    };
    for message in &report.tally.messages {
        eprintln!("{}: check failed: {message}", workload.name());
    }
    println!("{}", report.json_line(declared));
    if report.correct() {
        Ok(())
    } else {
        Err(format!(
            "{}: {} of {} requests failed the correctness gate",
            workload.name(),
            report.tally.failed,
            report.tally.attempted
        ))
    }
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(path.parent().expect("results path has a parent"))?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = match span.stage {
            noc_benchmark::harness::Stage::Request => Value::Null,
            _ => Value::Str("request".into()),
        };
        let line = noc_json::obj! {
            "name" => Value::Str(span.stage.name().into()),
            "req" => Value::Int(span.req as i128),
            "parent" => parent,
            "start_ns" => Value::Int(span.start_ns as i128),
            "end_ns" => Value::Int(span.end_ns as i128),
        };
        writeln!(out, "{}", line.compact())?;
    }
    out.flush()
}

/// Runs each workload (or the one named) in a fresh child process.
fn orchestrate(trace: bool, args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let workloads = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = git_rev();
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for workload in workloads {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = stdout.lines().last().and_then(|l| noc_json::parse(l).ok());
        if !output.status.success() || result.is_none() {
            failures.push(workload.name());
        }
        let Some(Value::Obj(metrics)) = result.as_ref().and_then(|r| r.get("metrics")) else {
            continue;
        };
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
            println!("{} {name} {value} {unit}", workload.name());
            records.push(noc_json::obj! {
                "bench" => Value::Str("noc-benchmark".into()),
                "case" => Value::Str(workload.name().into()),
                "metric" => Value::Str(name.clone()),
                "unit" => Value::Str(unit.into()),
                "value" => Value::Float(value),
                "seed" => Value::Int(args.seed as i128),
                "host_cpus" => Value::Int(host_cpus as i128),
                "rev" => Value::Str(rev.clone()),
            });
        }
    }
    let mode = if trace { "trace" } else { "run" };
    let path = results_dir().join(format!("{mode}-{}.json", args.seed));
    std::fs::create_dir_all(results_dir())
        .and_then(|()| std::fs::write(&path, Value::Arr(records).pretty() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {}", failures.join(" ")))
    }
}

/// The checked-out commit, read from `.git` beside the benchmark, or
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(&git.join(reference))
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Rewrites `golden.json` with every workload's digest on the golden seed.
fn golden() -> Result<(), String> {
    let digests = Workload::ALL
        .iter()
        .map(|&w| {
            let digest = noc_benchmark::digest(w, GOLDEN_SEED);
            println!("{} {digest:016x}", w.name());
            (w.name().to_string(), Value::Str(format!("{digest:016x}")))
        })
        .collect();
    let doc = noc_json::obj! {
        "seed" => Value::Int(GOLDEN_SEED as i128),
        "digests" => Value::Obj(digests),
    };
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json");
    std::fs::write(&path, doc.pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
