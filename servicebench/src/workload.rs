//! The request lines of the four workloads.
//!
//! Every line is drawn from a `noc_rng` stream seeded with
//! `(seed, workload, part)`, and lines are generated in sequence order, so
//! the first `k` lines of a part never depend on how many are generated
//! after them: a scaled-down run sends a prefix of the full run. Request
//! kinds are fixed by the line's index, never drawn, so every seed gives
//! the same mix and the seed only moves parameters.
//!
//! Every request runs on one thread: `workers` is 1 on every line that
//! takes it. On a host of two shared cores, a second thread makes each
//! result wait for whichever core the host lends last, and the benchmark
//! would measure that instead of the program.

use noc_json::Value;
use noc_model::fingerprint::Fnv1a;
use noc_rng::rngs::SmallRng;
use noc_rng::{Rng, SeedableRng};
use noc_routing::HopWeights;

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unique `solve`/`optimal`/`sweep`/`frontier` requests: placement and
    /// annealing, and the cache write path.
    Place,
    /// Unique low-load `simulate` requests: the scalar cycle loop.
    Simulate,
    /// Unique `scenario` batches and `throughput` sweeps: lockstep lanes
    /// and sweep ladders.
    Batch,
    /// A ring of hot-set hits and inline kinds: parse, cache reads,
    /// metrics and serialization.
    Replay,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Place,
        Workload::Simulate,
        Workload::Batch,
        Workload::Replay,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Place => "place",
            Workload::Simulate => "simulate",
            Workload::Batch => "batch",
            Workload::Replay => "replay",
        }
    }

    /// The workload named `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests sent before timing starts (the replay hot-set fill).
    fn warmup(self) -> usize {
        match self {
            Workload::Place => 80,
            Workload::Simulate => 10,
            Workload::Batch => 4,
            Workload::Replay => HOT_KINDS * HOT_PER_KIND,
        }
    }

    /// Timed requests at scale 1. Runs are bounded by time; these caps
    /// leave over twice the measured throughput of a 25 s run as
    /// headroom, and a run that exhausts them ends early.
    fn timed(self) -> usize {
        match self {
            Workload::Place => 12_000,
            Workload::Simulate => 2_000,
            Workload::Batch => 600,
            Workload::Replay => 3_000_000,
        }
    }

    /// Leading timed requests whose results the digest covers, together
    /// with the warm-up results.
    pub fn digest_prefix(self) -> usize {
        match self {
            Workload::Place => 40,
            Workload::Simulate => 10,
            Workload::Batch => 4,
            Workload::Replay => RING,
        }
    }
}

/// Compute kinds in the `replay` hot set: `solve`, `simulate`, `sweep`,
/// `frontier`, in hot-set order.
const HOT_KINDS: usize = 4;
/// Hot-set keys per compute kind in `replay`.
const HOT_PER_KIND: usize = 16;
/// Distinct lines in the `replay` ring, which the run cycles through: a
/// whole number of [`RING_SLOTS`] periods, in which every hot key of a
/// kind is replayed equally often.
const RING: usize = 192 * RING_SLOTS.len();

/// One slot of the `replay` ring.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    /// An inline kind.
    Inline(&'static str),
    /// A hit on a key of hot-set kind `k`.
    Hit(usize),
}

/// Ring slot `j` sends `RING_SLOTS[j % 20]`: one each of `health`,
/// `metrics` and `prometheus`, and 6 `solve`, 5 `simulate`, 3 `sweep` and
/// 3 `frontier` hits. In the order of their latency (health, solve,
/// simulate, metrics, prometheus, sweep, frontier) these fill 5, 35, 60,
/// 65, 70, 85 and 100% of the samples, so the median falls among the
/// `simulate` hits and p90 among the `frontier` hits, never in the gap
/// between two kinds, where a small shift moves a percentile a lot.
const RING_SLOTS: [Slot; 20] = {
    use Slot::{Hit, Inline};
    [
        Hit(0),
        Hit(1),
        Hit(2),
        Hit(0),
        Hit(3),
        Inline("health"),
        Hit(1),
        Hit(0),
        Hit(2),
        Hit(1),
        Inline("metrics"),
        Hit(0),
        Hit(3),
        Hit(1),
        Hit(0),
        Inline("prometheus"),
        Hit(2),
        Hit(3),
        Hit(0),
        Hit(1),
    ]
};

/// What a response to a line must look like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A fresh `solve`: its links respect `c` and its objective matches
    /// the paper objective evaluated on them.
    Solve { n: usize, c: usize },
    /// A fresh `optimal` under `weights`.
    Optimal {
        n: usize,
        c: usize,
        weights: HopWeights,
    },
    /// A fresh per-`C` `sweep`.
    Sweep,
    /// A fresh `simulate` that must drain.
    Simulate,
    /// A fresh `throughput` saturation sweep.
    Throughput,
    /// A fresh streamed `scenario` batch of `scenarios` items.
    Scenario { scenarios: usize },
    /// A fresh streamed `frontier`.
    Frontier,
    /// A cache hit on hot-set entry `k`: byte-identical to its fill.
    Hit(usize),
    /// An inline kind (`health`, `metrics`, `prometheus`).
    Inline,
}

impl Expect {
    /// Whether the line is a compute request (cached and digested).
    pub fn is_compute(&self) -> bool {
        !matches!(self, Expect::Inline)
    }
}

/// One request line and what its response must satisfy.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The wire line, without a newline.
    pub line: String,
    /// The check its response must pass.
    pub expect: Expect,
}

/// Every line a run sends.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The workload the plan belongs to.
    pub workload: Workload,
    /// Sent in order before timing starts.
    pub warmup: Vec<Request>,
    /// Timed lines, sent in order and from the start again after the last.
    pub lines: Vec<Request>,
    /// Requests the timed phase may send.
    pub cap: usize,
}

impl Plan {
    /// Generates the plan for `workload` from `seed`. `scale` multiplies
    /// the timed request caps (tests use about 0.01); the warm-up, the
    /// replay ring and the digest prefix do not scale.
    pub fn generate(workload: Workload, seed: u64, scale: f64) -> Plan {
        let cap = ((workload.timed() as f64 * scale) as usize).max(workload.digest_prefix());
        let mut rng = stream(seed, workload, "lines");
        let (warmup, lines) = match workload {
            Workload::Replay => {
                let mut hot_rng = stream(seed, workload, "hot");
                let hot: Vec<(Vec<(&str, Value)>, Expect)> = (0..workload.warmup())
                    .map(|k| hot_request(k, &mut hot_rng))
                    .collect();
                let warmup = hot
                    .iter()
                    .enumerate()
                    .map(|(k, (fields, expect))| Request {
                        line: render(&format!("h{k}"), fields),
                        expect: expect.clone(),
                    })
                    .collect();
                // Every hot key of a kind is replayed equally often, in a
                // seeded order.
                let mut keys: Vec<_> = (0..HOT_KINDS)
                    .map(|k| {
                        let hits = (0..RING).filter(|&j| ring_slot(j) == Slot::Hit(k)).count();
                        let mut order: Vec<usize> = (0..hits)
                            .map(|h| k * HOT_PER_KIND + h % HOT_PER_KIND)
                            .collect();
                        for x in (1..order.len()).rev() {
                            order.swap(x, rng.gen_range(0..x + 1));
                        }
                        order.into_iter()
                    })
                    .collect();
                let ring = (0..RING)
                    .map(|j| ring_request(j, &hot, &mut keys))
                    .collect();
                (warmup, ring)
            }
            _ => {
                let warmup = workload.warmup();
                let lines_needed = warmup + cap;
                let mut all: Vec<Request> = (0..lines_needed)
                    .map(|i| fresh_request(workload, i, &mut rng))
                    .collect();
                let timed = all.split_off(warmup);
                (all, timed)
            }
        };
        Plan {
            workload,
            warmup,
            lines,
            cap,
        }
    }
}

/// The generator stream of one part of one workload's plan.
fn stream(seed: u64, workload: Workload, part: &str) -> SmallRng {
    let mut h = Fnv1a::with_tag("noc-benchmark-lines");
    h.write_u64(seed);
    h.write_bytes(workload.name().as_bytes());
    h.write_bytes(part.as_bytes());
    SmallRng::seed_from_u64(h.finish())
}

fn pick<T: Copy>(rng: &mut SmallRng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

/// The `i`-th entry of `options`, cyclically. Parameters that set a
/// request's cost cycle with the line index, with coprime periods where
/// they combine, so every window of lines holds the same mix for every
/// seed; the seed draws the rest.
fn cycle<T: Copy>(options: &[T], i: usize) -> T {
    options[i % options.len()]
}

/// A request seed no other line of the run shares: the line index in the
/// low word keeps every cache key of a fresh workload distinct.
fn unique_seed(rng: &mut SmallRng, index: usize) -> Value {
    Value::Int(((rng.gen::<u32>() as u64) << 32 | index as u64) as i128)
}

fn int(v: usize) -> Value {
    Value::Int(v as i128)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn links(pairs: &[(usize, usize)]) -> Value {
    Value::Arr(
        pairs
            .iter()
            .map(|&(a, b)| Value::Arr(vec![int(a), int(b)]))
            .collect(),
    )
}

/// Renders one request line with `id` first.
fn render(id: &str, fields: &[(&str, Value)]) -> String {
    let mut pairs = vec![("id".to_string(), text(id))];
    pairs.extend(fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
    Value::Obj(pairs).compact()
}

const PATTERNS: [&str; 7] = ["ur", "tp", "br", "bc", "sh", "hs", "nn"];
pub(crate) const EXPRESS_8: [&[(usize, usize)]; 3] =
    [&[], &[(0, 3), (3, 7)], &[(0, 2), (2, 4), (4, 6), (1, 5)]];

/// Line `i` of a fresh (all-miss) workload.
fn fresh_request(workload: Workload, i: usize, rng: &mut SmallRng) -> Request {
    let id = format!("{}{i}", &workload.name()[..1]);
    let (fields, expect) = match workload {
        Workload::Place => place_request(i, rng),
        Workload::Simulate => simulate_request(i, rng),
        Workload::Batch => batch_request(i, rng),
        Workload::Replay => unreachable!("replay lines come from its hot set"),
    };
    Request {
        line: render(&id, &fields),
        expect,
    }
}

/// `place`: of every 20 lines, 17 `solve`, one `optimal`, one `sweep` and
/// one streamed `frontier`.
fn place_request(i: usize, rng: &mut SmallRng) -> (Vec<(&'static str, Value)>, Expect) {
    match i % 20 {
        5 => {
            // `optimal` has no seed; distinct hop weights per line keep its
            // cache keys unique, sweeping the router/link delay ratio.
            let k = i / 20;
            let n = cycle(&[6, 7, 8], k);
            let weights = HopWeights {
                router_cycles: 1 + (k % 32) as u32,
                unit_link_cycles: 1 + (k / 32) as u32,
            };
            let fields = vec![
                ("kind", text("optimal")),
                ("n", int(n)),
                ("c", int(3)),
                ("router_cycles", int(weights.router_cycles as usize)),
                ("unit_link_cycles", int(weights.unit_link_cycles as usize)),
            ];
            (fields, Expect::Optimal { n, c: 3, weights })
        }
        10 => {
            let fields = vec![
                ("kind", text("sweep")),
                ("n", int(8)),
                ("seed", unique_seed(rng, i)),
            ];
            (fields, Expect::Sweep)
        }
        15 => {
            let fields = vec![
                ("kind", text("frontier")),
                ("n", int(8)),
                ("weight_steps", int(3)),
                ("moves", int(2_000)),
                ("seed", unique_seed(rng, i)),
                ("workers", int(1)),
            ];
            (fields, Expect::Frontier)
        }
        _ => {
            let n = cycle(&[8, 12, 16], i);
            let c = rng.gen_range(2..n / 2 + 1);
            let fields = vec![
                ("kind", text("solve")),
                ("n", int(n)),
                ("c", int(c)),
                (
                    "strategy",
                    text(cycle(&["dnc", "greedy", "dnc", "random"], i)),
                ),
                ("moves", int(10_000)),
                ("chains", int(cycle(&[1, 1, 2], i / 12))),
                ("seed", unique_seed(rng, i)),
            ];
            (fields, Expect::Solve { n, c })
        }
    }
}

/// `simulate`: an 8x8 mesh at the paper's low loads, with and without
/// express links.
fn simulate_request(i: usize, rng: &mut SmallRng) -> (Vec<(&'static str, Value)>, Expect) {
    let fields = vec![
        ("kind", text("simulate")),
        ("n", int(8)),
        ("pattern", text(cycle(&PATTERNS, i))),
        (
            "rate",
            Value::Float(cycle(&[0.005, 0.01, 0.02, 0.03, 0.04], i)),
        ),
        ("flit", int(cycle(&[64, 128, 256], i))),
        ("cycles", int(cycle(&[2_000, 5_000], i))),
        ("seed", unique_seed(rng, i)),
        ("links", links(pick(rng, &EXPRESS_8))),
    ];
    (fields, Expect::Simulate)
}

/// `batch`: of every 4 lines, 3 streamed `scenario` batches of seed
/// replicas and one `throughput` saturation sweep on a 4x4 mesh. The
/// sweeps take about 0.5 s and the batches about 30 ms, so p90 falls
/// among the sweeps; a 25 s run holds about 50 of them.
fn batch_request(i: usize, rng: &mut SmallRng) -> (Vec<(&'static str, Value)>, Expect) {
    if i % 4 == 3 {
        let t = i / 4;
        let fields = vec![
            ("kind", text("throughput")),
            ("n", int(4)),
            ("pattern", text(cycle(&PATTERNS, t))),
            ("flit", int(cycle(&[64, 128, 256], t))),
            ("seed", unique_seed(rng, i)),
            ("links", links(&[(0, 2)])),
            ("workers", int(1)),
        ];
        return (fields, Expect::Throughput);
    }
    let s = i / 4 * 3 + i % 4;
    let replicas = cycle(&[8, 16], s);
    // Replica seeds start at a per-line base, so no two batches simulate
    // the same thing.
    let base = (rng.gen_range(0..1u64 << 16) as i128) << 32 | (i as i128) << 5 | 1;
    let manifest = noc_json::obj! {
        "scenario" => int(1),
        "name" => text(&format!("batch{i}")),
        "seed" => Value::Int(base),
        "topology" => noc_json::obj! {
            "n" => int(8),
            "links" => links(pick(rng, &EXPRESS_8[..2])),
        },
        "traffic" => noc_json::obj! {
            "pattern" => text(cycle(&["ur", "tp", "br", "sh"], s / 6)),
            "rate" => Value::Float(cycle(&[0.01, 0.02, 0.04], s)),
        },
        "sim" => noc_json::obj! { "warmup" => int(300), "cycles" => int(700) },
        "matrix" => noc_json::obj! {
            "seed" => noc_json::obj! {
                "range" => Value::Arr(vec![Value::Int(base), Value::Int(base + replicas as i128 - 1)]),
            },
        },
    };
    let fields = vec![
        ("kind", text("scenario")),
        ("manifest", manifest),
        ("workers", int(1)),
    ];
    (
        fields,
        Expect::Scenario {
            scenarios: replicas,
        },
    )
}

/// Hot-set entry `k` of `replay`: 16 each of `solve` n = 8, `simulate`
/// n = 4, `sweep` n = 8 and streamed `frontier` n = 6.
fn hot_request(k: usize, rng: &mut SmallRng) -> (Vec<(&'static str, Value)>, Expect) {
    match k / HOT_PER_KIND {
        0 => {
            let c = cycle(&[2, 3, 4], k);
            let fields = vec![
                ("kind", text("solve")),
                ("n", int(8)),
                ("c", int(c)),
                (
                    "strategy",
                    text(cycle(&["dnc", "greedy", "dnc", "random"], k)),
                ),
                ("moves", int(10_000)),
                ("seed", unique_seed(rng, k)),
            ];
            (fields, Expect::Solve { n: 8, c })
        }
        1 => {
            let fields = vec![
                ("kind", text("simulate")),
                ("n", int(4)),
                ("pattern", text(cycle(&PATTERNS, k))),
                ("rate", Value::Float(cycle(&[0.01, 0.02, 0.04], k))),
                ("flit", int(64)),
                ("cycles", int(2_000)),
                ("seed", unique_seed(rng, k)),
                ("links", links(cycle(&[&[][..], &[(0, 2)]], k))),
            ];
            (fields, Expect::Simulate)
        }
        2 => {
            let fields = vec![
                ("kind", text("sweep")),
                ("n", int(8)),
                ("seed", unique_seed(rng, k)),
            ];
            (fields, Expect::Sweep)
        }
        _ => {
            let fields = vec![
                ("kind", text("frontier")),
                ("n", int(6)),
                ("weight_steps", int(3)),
                ("moves", int(2_000)),
                ("seed", unique_seed(rng, k)),
                ("workers", int(1)),
            ];
            (fields, Expect::Frontier)
        }
    }
}

fn ring_slot(j: usize) -> Slot {
    RING_SLOTS[j % RING_SLOTS.len()]
}

/// Ring slot `j` of `replay`: an inline kind, or a hit on the next key of
/// its kind's sequence in `keys`.
fn ring_request(
    j: usize,
    hot: &[(Vec<(&str, Value)>, Expect)],
    keys: &mut [impl Iterator<Item = usize>],
) -> Request {
    let id = format!("r{j}");
    match ring_slot(j) {
        Slot::Inline(kind) => Request {
            line: render(&id, &[("kind", text(kind))]),
            expect: Expect::Inline,
        },
        Slot::Hit(kind) => {
            let k = keys[kind].next().expect("one key per hit slot");
            Request {
                line: render(&id, &hot[k].0),
                expect: Expect::Hit(k),
            }
        }
    }
}
