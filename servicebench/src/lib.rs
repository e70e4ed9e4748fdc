//! The repository benchmark: four workloads through the `noc-service`
//! request pipeline, measured end to end with tracing off, and attributed
//! stage by stage in a separate traced run.
//!
//! One closed-loop connection, on the calling thread, calls
//! `ServiceCore::handle_line(line, &InlineDispatch::default(), None)` and
//! then `protocol::wire_lines`: the parse → inline → cache → execute →
//! complete → serialize path every transport shares, without the channel
//! hops of `LocalServer` or the sockets of the TCP daemon. See `README.md`
//! for the workloads and metrics.

pub mod check;
pub mod harness;
pub mod probe;
pub mod stats;
pub mod workload;

use harness::{Node, Plain, Run, Span, Stage, Tally, Traced, SCRAPE, TIMED};
use noc_json::Value;
use std::time::{Duration, Instant};
pub use workload::Workload;

/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Timed requests the traced pass replays at most.
pub const TRACE_CAP: usize = 10_000;
/// The seed `golden.json` holds result digests for.
pub const GOLDEN_SEED: u64 = 1;

/// End-to-end metrics, `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, from the traced run.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("service.parse_us", "us"),
    ("service.inline_us", "us"),
    ("service.cache_get_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.exec_us", "us"),
    ("service.complete_us", "us"),
    ("service.serialize_us", "us"),
    ("service.response_bytes", "bytes"),
    ("service.cache_entries", "count"),
    ("service.stage_coverage", "ratio"),
    ("service.traced_over_e2e", "ratio"),
    ("placement.solve_ms", "ms"),
    ("placement.evals_per_s", "1/s"),
    ("placement.accept_ratio", "ratio"),
    ("placement.dnc_ms", "ms"),
    ("placement.bb_nodes_per_s", "1/s"),
    ("pareto.ms_per_scalarization", "ms"),
    ("sim.cycles_per_s", "1/s"),
    ("sim.ns_per_packet", "ns"),
    ("sim.build_ms", "ms"),
    ("sim.drain_share", "ratio"),
    ("scenario.ms_per_scenario", "ms"),
    ("sweep.ms_per_rate_point", "ms"),
    ("sweep.rate_points", "count"),
];

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Every request sent and how it fared, plus gate failures.
    pub tally: Tally,
    /// Measured values, by metric name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and each metric
    /// with its unit from `declared`.
    pub fn json_line(&self, declared: &[(&str, &str)]) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = declared
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or("", |(_, u)| *u);
                let entry = noc_json::obj! {
                    "value" => Value::Float(value),
                    "unit" => Value::Str(unit.to_string()),
                };
                (name.to_string(), entry)
            })
            .collect();
        noc_json::obj! {
            "correct" => Value::Bool(self.correct()),
            "attempted" => Value::Int(self.tally.attempted as i128),
            "failed" => Value::Int(self.tally.failed as i128),
            "metrics" => Value::Obj(metrics),
        }
        .compact()
    }
}

/// Runs `workload`'s timed phase on `node` with tracing off, for `seconds`.
fn timed_run(node: &Node, seconds: f64) -> Run {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    node.run(&mut Plain::default(), node.plan.cap, Some(deadline))
}

/// Sends the scrape, then checks the digest against `golden.json` on the
/// golden seed. Both outcomes land in `tally`, which holds everything the
/// node was sent before.
fn finish<S: harness::Serve>(node: &Node, run: &Run, seed: u64, server: &mut S, tally: &mut Tally) {
    let scraped = node.scrape(server, tally);
    tally.merge(scraped);
    if seed == GOLDEN_SEED {
        match golden(node.plan.workload) {
            Some(want) if want == run.digest => {}
            want => tally.fail(format!(
                "digest {:016x} differs from golden.json ({want:x?})",
                run.digest
            )),
        }
    }
}

/// Measures the end-to-end metrics of `workload`: [`SETUPS`] setups, then
/// a closed-loop timed phase of `seconds`. `scale` multiplies the request
/// caps, as in [`workload::Plan::generate`].
pub fn measure(workload: Workload, seed: u64, seconds: f64, scale: f64) -> Report {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut tally = Tally::default();
    let mut node = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let fresh = Node::setup(workload, seed, scale, &mut Plain::default());
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(previous) = node.replace(fresh) {
            tally.merge(previous.tally);
        }
    }
    let node = node.expect("at least one setup");
    let run = timed_run(&node, seconds);
    let mut sent = node.tally.clone();
    sent.merge(run.tally.clone());
    finish(&node, &run, seed, &mut Plain::default(), &mut sent);
    tally.merge(sent);

    let peak = peak_rss_mib();
    let mut metrics = vec![("setup_s", stats::median(&setup_s))];
    let mut samples = run.samples;
    if samples.is_empty() {
        tally.fail("no request completed inside the timed window".into());
        return Report {
            workload,
            tally,
            metrics,
        };
    }
    samples.sort_unstable();
    let ms = |q| stats::nearest_rank(&samples, q) as f64 / 1e6;
    metrics.push(("req_per_s", samples.len() as f64 / run.wall.as_secs_f64()));
    metrics.push(("p50_ms", ms(0.5)));
    metrics.push(("p90_ms", ms(0.9)));
    match peak {
        Some(mib) => metrics.push(("peak_rss_mb", mib)),
        None => tally.fail("cannot read VmHWM from /proc/self/status".into()),
    }
    Report {
        workload,
        tally,
        metrics,
    }
}

/// The traced run of `workload`: an untraced timed phase of
/// `seconds / 2`, then a fresh node that replays the same lines (at most
/// [`TRACE_CAP`]) through the stages one call at a time,
/// then the kernel probes. Returns the per-layer report and every span.
pub fn trace(workload: Workload, seed: u64, seconds: f64, scale: f64) -> (Report, Vec<Span>) {
    let node = Node::setup(workload, seed, scale, &mut Plain::default());
    let untraced = timed_run(&node, seconds / 2.0);
    let mut tally = node.tally.clone();
    tally.merge(untraced.tally.clone());
    finish(&node, &untraced, seed, &mut Plain::default(), &mut tally);

    let epoch = Instant::now();
    let mut setup_tracer = Traced::new(epoch, 0);
    let traced_node = Node::setup(workload, seed, scale, &mut setup_tracer);
    // TRACE_CAP is above every digest prefix, so the traced pass still
    // covers its prefix and the two digests compare.
    let mut tracer = Traced::new(epoch, TIMED);
    let traced = traced_node.run(&mut tracer, untraced.sent.min(TRACE_CAP), None);
    let mut traced_tally = traced_node.tally.clone();
    traced_tally.merge(traced.tally.clone());
    let mut scrape_tracer = Traced::new(epoch, SCRAPE);
    finish(
        &traced_node,
        &traced,
        seed,
        &mut scrape_tracer,
        &mut traced_tally,
    );
    tally.merge(traced_tally);
    if traced.digest != untraced.digest {
        tally.fail(format!(
            "traced digest {:016x} differs from untraced {:016x}",
            traced.digest, untraced.digest
        ));
    }

    let mut spans = setup_tracer.spans;
    spans.extend(tracer.spans);
    spans.extend(scrape_tracer.spans);
    let bytes = setup_tracer.bytes + tracer.bytes + scrape_tracer.bytes;
    let untraced_mean_ns =
        untraced.samples.iter().map(|&s| s as f64).sum::<f64>() / untraced.samples.len() as f64;
    let mut metrics = layers(&spans, bytes, untraced_mean_ns);
    metrics.push((
        "service.cache_entries",
        traced_node.core.cache().len() as f64,
    ));
    match probe::run(seed) {
        Ok(kernel) => metrics.extend(kernel),
        Err(message) => tally.fail(format!("kernel probe: {message}")),
    }
    metrics.sort_by_key(|(name, _)| PER_LAYER.iter().position(|(n, _)| n == name));
    (
        Report {
            workload,
            tally,
            metrics,
        },
        spans,
    )
}

/// The service-stage metrics of a traced pass. Spans of one request are
/// contiguous and end with its `request` span.
fn layers(spans: &[Span], bytes: u64, untraced_mean_ns: f64) -> Vec<(&'static str, f64)> {
    const STAGES: [Stage; 6] = [
        Stage::Parse,
        Stage::Inline,
        Stage::Cache,
        Stage::Exec,
        Stage::Complete,
        Stage::Serialize,
    ];
    let mut total = [0u64; 6];
    let mut calls = [0u64; 6];
    let (mut requests, mut request_ns) = (0u64, 0u64);
    let (mut timed, mut timed_ns) = (0u64, 0u64);
    let (mut answered, mut answered_ns) = (0u64, 0u64);
    let (mut lookups, mut hits) = (0u64, 0u64);
    // Per stage, the duration of the current request's call, if any.
    let mut seen: [Option<u64>; 6] = [None; 6];
    for span in spans {
        let ns = span.end_ns - span.start_ns;
        if let Some(i) = STAGES.iter().position(|&s| s == span.stage) {
            total[i] += ns;
            calls[i] += 1;
            seen[i] = Some(ns);
            continue;
        }
        requests += 1;
        request_ns += ns;
        if span.req >> 32 == TIMED {
            timed += 1;
            timed_ns += ns;
        }
        match seen {
            // Answered inline: an inline call with no cache lookup after it.
            [_, Some(inline), None, ..] => {
                answered += 1;
                answered_ns += inline;
            }
            [_, _, Some(_), exec, ..] => {
                lookups += 1;
                hits += u64::from(exec.is_none());
            }
            _ => {}
        }
        seen = [None; 6];
    }
    let mean_us = |i: usize| total[i] as f64 / calls[i].max(1) as f64 / 1e3;
    vec![
        ("service.parse_us", mean_us(0)),
        (
            "service.inline_us",
            answered_ns as f64 / answered.max(1) as f64 / 1e3,
        ),
        ("service.cache_get_us", mean_us(2)),
        (
            "service.cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
        ),
        ("service.exec_us", mean_us(3)),
        ("service.complete_us", mean_us(4)),
        ("service.serialize_us", mean_us(5)),
        (
            "service.response_bytes",
            bytes as f64 / requests.max(1) as f64,
        ),
        (
            "service.stage_coverage",
            total.iter().sum::<u64>() as f64 / request_ns.max(1) as f64,
        ),
        (
            "service.traced_over_e2e",
            timed_ns as f64 / timed.max(1) as f64 / untraced_mean_ns,
        ),
    ]
}

/// The result digests of the golden seed, from `golden.json`.
pub fn golden(workload: Workload) -> Option<u64> {
    let doc = noc_json::parse(include_str!("../golden.json")).ok()?;
    let hex = doc.get("digests")?.get(workload.name())?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// The result digest of `workload` on `seed`: its warm-up and digest
/// prefix, sent untimed.
pub fn digest(workload: Workload, seed: u64) -> u64 {
    let node = Node::setup(workload, seed, 0.0, &mut Plain::default());
    node.run(&mut Plain::default(), workload.digest_prefix(), None)
        .digest
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
