//! Drives a workload's lines through the service pipeline, untraced or
//! stage by stage, checking every response.

use crate::check;
use crate::workload::{Expect, Plan, Workload};
use noc_model::fingerprint::Fnv1a;
use noc_service::{exec, protocol, InlineDispatch, Response, ServiceCore};
use std::time::{Duration, Instant};

/// Result-cache entries and shards of the daemon's default configuration.
const CACHE_CAPACITY: usize = 1024;
const CACHE_SHARDS: usize = 8;
/// Failure messages kept for the report; failures are counted in full.
const MAX_MESSAGES: usize = 8;

const METRICS_LINE: &str = r#"{"id":"scrape-metrics","kind":"metrics"}"#;
const PROMETHEUS_LINE: &str = r#"{"id":"scrape-prometheus","kind":"prometheus"}"#;

/// Requests sent and how they fared.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose response failed its check.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
    /// Compute requests that must have been cache hits.
    hits: u64,
    /// Compute requests that must have executed.
    misses: u64,
}

impl Tally {
    fn record(&mut self, expect: &Expect, outcome: Result<(), String>) {
        self.attempted += 1;
        match expect {
            Expect::Hit(_) => self.hits += 1,
            Expect::Inline => {}
            _ => self.misses += 1,
        }
        if let Err(message) = outcome {
            self.fail(message);
        }
    }

    /// Counts a failure not tied to one request's check.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    /// Adds another tally's counts to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.hits += other.hits;
        self.misses += other.misses;
        self.failed += other.failed;
        let room = MAX_MESSAGES.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }
}

/// How the connection sends a line through the pipeline.
pub trait Serve {
    /// Answers `line` and returns the response with its wire lines.
    fn serve(&mut self, core: &ServiceCore, line: &str) -> (Response, Vec<String>);
}

/// The pipeline as every transport runs it: `handle_line` with inline
/// dispatch, then stream framing.
#[derive(Debug, Default)]
pub struct Plain(InlineDispatch);

impl Serve for Plain {
    fn serve(&mut self, core: &ServiceCore, line: &str) -> (Response, Vec<String>) {
        let response = core.handle_line(line, &self.0, None);
        let wire = protocol::wire_lines(&response);
        (response, wire)
    }
}

fn absorb(digest: &mut Fnv1a, wire: &[String]) {
    for line in wire {
        digest.write_bytes(line.as_bytes());
        digest.write_bytes(b"\n");
    }
}

/// A fresh service core after setup: warm-up sent, hot set filled.
pub struct Node {
    /// The service core.
    pub core: ServiceCore,
    /// The lines of the run.
    pub plan: Plan,
    /// Expected wire lines of each timed line that replays a hot-set key
    /// (empty for the others).
    hit_lines: Vec<Vec<String>>,
    /// Digest of the warm-up results.
    digest: Fnv1a,
    /// The warm-up requests.
    pub tally: Tally,
}

impl Node {
    /// Builds the core, generates the plan and sends the warm-up through
    /// `server`.
    pub fn setup<S: Serve>(workload: Workload, seed: u64, scale: f64, server: &mut S) -> Node {
        let core = ServiceCore::new(1, CACHE_CAPACITY, CACHE_SHARDS);
        let plan = Plan::generate(workload, seed, scale);
        let mut digest = Fnv1a::with_tag("noc-benchmark-results");
        let mut tally = Tally::default();
        let mut fills = Vec::with_capacity(plan.warmup.len());
        for req in &plan.warmup {
            let (response, wire) = server.serve(&core, &req.line);
            tally.record(
                &req.expect,
                check::response(&req.expect, &response, &wire, &[]),
            );
            absorb(&mut digest, &wire);
            fills.push(response);
        }
        let hit_lines = plan
            .lines
            .iter()
            .map(|req| match req.expect {
                // A failed fill leaves no expected lines, so its hits fail.
                Expect::Hit(k) => match &fills[k] {
                    Response::Ok { result, .. } => protocol::wire_lines(&Response::ok(
                        protocol::best_effort_id(&req.line),
                        true,
                        result.clone(),
                    )),
                    Response::Err { .. } => Vec::new(),
                },
                _ => Vec::new(),
            })
            .collect();
        Node {
            core,
            plan,
            hit_lines,
            digest,
            tally,
        }
    }

    /// Sends the timed lines through `server`, one at a time, until
    /// `count` are sent or `deadline` passes. Only requests started before
    /// the deadline are timed; the run then continues untimed until the
    /// digest prefix is complete.
    pub fn run<S: Serve>(&self, server: &mut S, count: usize, deadline: Option<Instant>) -> Run {
        let prefix = self.plan.workload.digest_prefix();
        // Written before timing so resident memory does not grow with
        // throughput.
        let mut samples = vec![u32::MAX; count];
        let mut timed = 0;
        let mut sent = 0;
        let mut tally = Tally::default();
        let mut digest = self.digest.clone();
        let begin = Instant::now();
        let mut end = begin;
        while sent < count {
            let start = Instant::now();
            let in_window = deadline.is_none_or(|d| start < d);
            if !in_window && sent >= prefix {
                break;
            }
            let index = sent % self.plan.lines.len();
            let req = &self.plan.lines[index];
            let (response, wire) = server.serve(&self.core, &req.line);
            let done = Instant::now();
            if in_window {
                samples[timed] = u32::try_from((done - start).as_nanos()).unwrap_or(u32::MAX);
                timed += 1;
                end = done;
            }
            let hit = &self.hit_lines[index];
            tally.record(
                &req.expect,
                check::response(&req.expect, &response, &wire, hit),
            );
            if sent < prefix && req.expect.is_compute() {
                absorb(&mut digest, &wire);
            }
            sent += 1;
        }
        samples.truncate(timed);
        Run {
            samples,
            sent,
            wall: end - begin,
            digest: digest.finish(),
            tally,
        }
    }

    /// Reads the node's `metrics` and `prometheus` after a run and checks
    /// the service's own counters against everything sent so far.
    pub fn scrape<S: Serve>(&self, server: &mut S, sent: &Tally) -> Tally {
        let mut tally = Tally::default();
        let (snapshot, _) = server.serve(&self.core, METRICS_LINE);
        let counted = check::metrics(&snapshot, sent.attempted, sent.hits, sent.misses);
        tally.record(&Expect::Inline, counted);
        // By now the metrics request itself has been answered too.
        let (text, wire) = server.serve(&self.core, PROMETHEUS_LINE);
        let outcome = check::response(&Expect::Inline, &text, &wire, &[])
            .and_then(|()| check::prometheus(&text, sent.attempted + 1));
        tally.record(&Expect::Inline, outcome);
        tally
    }
}

/// The timed phase.
pub struct Run {
    /// Latency of every timed request, in nanoseconds.
    pub samples: Vec<u32>,
    /// Requests sent, timed or not.
    pub sent: usize,
    /// From the start to the last timed completion.
    pub wall: Duration,
    /// Digest of the warm-up and prefix results.
    pub digest: u64,
    /// The run's requests.
    pub tally: Tally,
}

/// A pipeline stage, as the traced pass attributes time to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The whole request, from acceptance to its last wire line.
    Request,
    /// `ServiceCore::parse_line`.
    Parse,
    /// `ServiceCore::answer_inline`.
    Inline,
    /// `ServiceCore::cache_lookup`.
    Cache,
    /// `exec::execute_with_store`.
    Exec,
    /// `ServiceCore::complete`.
    Complete,
    /// `protocol::wire_lines`.
    Serialize,
}

impl Stage {
    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Parse => "service.parse",
            Stage::Inline => "service.inline",
            Stage::Cache => "service.cache_get",
            Stage::Exec => "service.exec",
            Stage::Complete => "service.complete",
            Stage::Serialize => "service.serialize",
        }
    }
}

/// One span: a stage of request `req`, in nanoseconds since the pass
/// began. Stage spans are children of their request's `request` span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The stage.
    pub stage: Stage,
    /// Request id: the part (0 setup, [`TIMED`] the timed lines, [`SCRAPE`]
    /// the scrape) in the high word, the request's index within it in the
    /// low word.
    pub req: u64,
    /// Start, in nanoseconds since the pass began.
    pub start_ns: u64,
    /// End, in nanoseconds since the pass began.
    pub end_ns: u64,
}

/// The request-id part of the timed lines.
pub const TIMED: u64 = 1;
/// The request-id part of the post-run scrape.
pub const SCRAPE: u64 = u32::MAX as u64;

/// Serves each line by calling the stages `handle_line` composes, in its
/// order, and records a span around each call.
pub struct Traced {
    epoch: Instant,
    part: u64,
    next: u64,
    /// Every span recorded, in order.
    pub spans: Vec<Span>,
    /// Wire bytes of every response, newlines included.
    pub bytes: u64,
}

impl Traced {
    /// A tracer for request-id part `part`, timing from `epoch`.
    pub fn new(epoch: Instant, part: u64) -> Traced {
        Traced {
            epoch,
            part,
            next: 0,
            spans: Vec::new(),
            bytes: 0,
        }
    }
}

impl Serve for Traced {
    fn serve(&mut self, core: &ServiceCore, line: &str) -> (Response, Vec<String>) {
        let req = self.part << 32 | self.next;
        self.next += 1;
        let epoch = self.epoch;
        let nanos = |at: Instant| (at - epoch).as_nanos() as u64;
        let spans = &mut self.spans;
        // Records a span from `start` to now around one stage call, so time
        // between the calls stays outside every stage span.
        let mut record = |stage, start| {
            let end = Instant::now();
            spans.push(Span {
                stage,
                req,
                start_ns: nanos(start),
                end_ns: nanos(end),
            });
            end
        };
        // The stages of `ServiceCore::handle_line` with `InlineDispatch`,
        // in its order (a node that is not draining, with no forwarder).
        let accepted_at = Instant::now();
        let parsed = core.parse_line(line);
        record(Stage::Parse, accepted_at);
        let response = match parsed {
            Err(response) => response,
            Ok(envelope) => {
                let start = Instant::now();
                let inline = core.answer_inline(&envelope, 0, accepted_at);
                record(Stage::Inline, start);
                match inline {
                    Some(response) => response,
                    None => {
                        let start = Instant::now();
                        let hit = core.cache_lookup(&envelope, accepted_at);
                        record(Stage::Cache, start);
                        match hit {
                            Some(response) => response,
                            None => {
                                let deadline =
                                    accepted_at + Duration::from_millis(envelope.deadline_ms);
                                let start = Instant::now();
                                let outcome = exec::execute_with_store(
                                    &envelope.request,
                                    Some(deadline),
                                    Some(core.cache().as_ref()),
                                );
                                record(Stage::Exec, start);
                                let start = Instant::now();
                                let response = core.complete(
                                    &envelope.id,
                                    &envelope.request,
                                    accepted_at,
                                    outcome,
                                );
                                record(Stage::Complete, start);
                                response
                            }
                        }
                    }
                }
            }
        };
        let start = Instant::now();
        let wire = protocol::wire_lines(&response);
        let end = record(Stage::Serialize, start);
        self.spans.push(Span {
            stage: Stage::Request,
            req,
            start_ns: nanos(accepted_at),
            end_ns: nanos(end),
        });
        self.bytes += wire.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        (response, wire)
    }
}
