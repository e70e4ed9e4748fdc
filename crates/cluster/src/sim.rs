//! Deterministic in-process cluster simulation.
//!
//! [`ClusterSim`] runs N [`ClusterNode`]s on a seeded logical clock:
//! every message send draws its fate — drop, latency in a configured
//! range, duplication — from one `noc-rng` stream, scripted faults
//! (partitions, heals, node kills) fire at exact ticks, and all state
//! mutation happens on the event-loop thread in `(tick, seq)` order. A
//! partition bug therefore reproduces byte-for-byte from `(config,
//! seed, script)`: same event log, same `cluster.*` counters, same
//! responses — the same discipline `noc-sim` applies to flits, applied
//! to cluster messages.
//!
//! Execution parallelism does not break this: request execution is pure
//! (`exec::execute_within` with no deadline), so each tick's ready
//! executions run as an order-preserving `noc_par::par_map_with` batch
//! *after* that tick's message events, and their side effects (cache
//! writes, counters, replies) are applied sequentially in schedule
//! order. Worker count changes wall-clock time only, never the report —
//! one of the acceptance invariants of the cluster test suite.
//!
//! What the harness models:
//!
//! * **Forwarding** — a request arriving at a non-owner is forwarded to
//!   the ring owner (`cluster.forwarded`), which executes and replies.
//! * **Failover** — a forward unanswered for `forward_timeout` ticks is
//!   re-sent to the next replica successor (`cluster.failover`); when
//!   every candidate is exhausted the origin executes locally, so an
//!   accepted request is *never* dropped.
//! * **Health gossip** — nodes heartbeat every `heartbeat_every` ticks;
//!   a peer silent for `suspect_window` ticks is removed from the local
//!   ring view (`cluster.ring_change`), and re-added the moment it is
//!   heard again. Partition-then-heal thus converges every ring view
//!   back to equality, observable via [`HashRing::fingerprint`].
//! * **Link faults** — seeded drop/duplication rates, plus the
//!   `cluster.link.send` fault point for scripted (faultpoint) overlays:
//!   `Error` drops the message, `Poison` duplicates it.
//!
//! [`HashRing::fingerprint`]: crate::ring::HashRing::fingerprint

use crate::fp;
use crate::node::{ClusterNode, Decision};
use crate::ring::{cluster_fingerprint, HashRing};
use noc_par::par_map_with;
use noc_rng::rngs::SmallRng;
use noc_rng::{Rng, SeedableRng};
use noc_service::exec;
use noc_service::protocol::{Envelope, Request, Response};
use noc_service::ServiceCore;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs of a simulated cluster.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of nodes (ids `0..nodes`).
    pub nodes: usize,
    /// Seed of the link-fate RNG stream.
    pub seed: u64,
    /// Virtual nodes per member on the consistent-hash ring.
    pub vnodes: usize,
    /// Minimum link latency in ticks (clamped to at least 1).
    pub lat_min: u64,
    /// Maximum link latency in ticks (clamped to at least `lat_min`).
    pub lat_max: u64,
    /// Probability a message is dropped in flight.
    pub drop_rate: f64,
    /// Probability a message is delivered twice.
    pub dup_rate: f64,
    /// Ticks a request execution occupies.
    pub exec_ticks: u64,
    /// Ticks between a node's heartbeat broadcasts.
    pub heartbeat_every: u64,
    /// A peer silent for more than this many ticks is removed from the
    /// ring view. Must exceed `heartbeat_every + lat_max` or healthy
    /// peers flap.
    pub suspect_window: u64,
    /// Ticks the origin waits for a forward reply before failing over.
    pub forward_timeout: u64,
    /// Replica candidates tried (owner + successors) before the origin
    /// falls back to executing locally.
    pub replicas: usize,
    /// Worker threads for the per-tick execution batch (0 = one per
    /// core). Must not — and does not — affect the report.
    pub workers: usize,
    /// Hard horizon: no event runs after this tick.
    pub max_ticks: u64,
    /// Per-node result-cache capacity.
    pub cache_capacity: usize,
    /// Per-node result-cache shards.
    pub cache_shards: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 3,
            seed: 0,
            vnodes: 16,
            lat_min: 1,
            lat_max: 4,
            drop_rate: 0.0,
            dup_rate: 0.0,
            exec_ticks: 2,
            heartbeat_every: 5,
            suspect_window: 15,
            forward_timeout: 25,
            replicas: 2,
            workers: 1,
            max_ticks: 500,
            cache_capacity: 256,
            cache_shards: 4,
        }
    }
}

/// A scripted cluster-level fault or stimulus.
#[derive(Debug, Clone)]
pub enum ScriptAction {
    /// Split the network into islands; messages between islands drop.
    /// Nodes not listed each land in their own island.
    Partition(Vec<Vec<usize>>),
    /// Remove the partition.
    Heal,
    /// Kill a node: it stops sending, receiving, and executing.
    Kill(usize),
    /// Revive a killed node with its state (cache, ring view) intact.
    Revive(usize),
    /// Migrate every in-flight solve execution from one node to another:
    /// the job is checkpointed (`noc-snapshot` bytes), handed over, and
    /// resumed on the target — with a final response byte-identical to an
    /// unmigrated run. Non-solve executions are not resumable and stay
    /// where they are.
    Migrate {
        /// Node whose in-flight solves are suspended.
        from: usize,
        /// Node that resumes them.
        to: usize,
    },
}

/// Monotonic counters of cluster-level events, also mirrored onto the
/// `noc-trace` registry (`cluster.*`) when tracing is enabled, which is
/// what surfaces them in the daemon's prometheus body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterCounters {
    /// Requests forwarded to their shard owner.
    pub forwarded: u64,
    /// Forwards re-routed (to a successor, or to local fallback) after
    /// a reply timeout.
    pub failover: u64,
    /// Ring-view membership changes (removals and re-adds) across all
    /// nodes.
    pub ring_change: u64,
    /// Messages dropped in flight (links, partitions, dead nodes).
    pub dropped: u64,
    /// In-flight executions moved between nodes by a scripted
    /// [`ScriptAction::Migrate`] (checkpoint, hand over, resume).
    pub migrated: u64,
}

fn trace_inc(name: &str) {
    if let Some(sink) = noc_trace::sink() {
        sink.registry().counter(name).inc();
    }
}

/// Result of a [`ClusterSim::run`]: everything two runs with the same
/// `(config, script)` must agree on, byte for byte.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Human-readable deterministic event log.
    pub events: Vec<String>,
    /// `(rid, answering node, response line)` per injected client
    /// request, in completion order.
    pub responses: Vec<(u64, usize, String)>,
    /// Cluster-level event counters.
    pub counters: ClusterCounters,
    /// `(node, ring fingerprint)` for every node alive at the end.
    pub ring_fingerprints: Vec<(usize, u64)>,
    /// Client requests injected at live nodes (accepted).
    pub accepted: u64,
    /// Accepted requests still unanswered when the horizon was reached
    /// — the failover acceptance criterion demands this stays 0.
    pub unanswered: u64,
    /// Tick of the last processed event.
    pub ticks: u64,
}

#[derive(Debug, Clone)]
enum Payload {
    Forward { rid: u64, line: String },
    Reply { rid: u64, line: String },
    Heartbeat,
}

#[derive(Debug)]
enum EventKind {
    Script(ScriptAction),
    Client {
        node: usize,
        rid: u64,
        line: String,
    },
    Deliver {
        from: usize,
        to: usize,
        payload: Payload,
    },
    HeartbeatTick {
        node: usize,
    },
    ForwardTimeout {
        rid: u64,
        epoch: u64,
    },
    ExecDone {
        exec_id: u64,
    },
}

struct Scheduled {
    tick: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.tick, self.seq) == (other.tick, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    /// Reversed: the `BinaryHeap` is a max-heap, we want earliest first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.tick, other.seq).cmp(&(self.tick, self.seq))
    }
}

struct PendingForward {
    origin: usize,
    envelope: Envelope,
    line: String,
    key_hash: u64,
    tried: Vec<usize>,
    /// Bumped on every re-send so stale timeouts are ignored.
    epoch: u64,
}

struct PendingExec {
    node: usize,
    rid: u64,
    envelope: Envelope,
    /// `Some((origin, rid))` when the result must be sent back as a
    /// forward reply; `None` when it answers a client at `node`.
    reply_to: Option<usize>,
    /// Checkpoint bytes carried by a migrated execution: the partially
    /// run annealing job, to be resumed instead of started fresh.
    snapshot: Option<Vec<u8>>,
}

/// The deterministic cluster: build, script, run, compare reports.
pub struct ClusterSim {
    config: SimConfig,
    nodes: Vec<ClusterNode>,
    alive: Vec<bool>,
    /// `Some(island id per node)` while partitioned.
    islands: Option<Vec<usize>>,
    heap: BinaryHeap<Scheduled>,
    seq: u64,
    rng: SmallRng,
    counters: ClusterCounters,
    events: Vec<String>,
    responses: Vec<(u64, usize, String)>,
    pending_forwards: HashMap<u64, PendingForward>,
    pending_execs: HashMap<u64, PendingExec>,
    next_exec_id: u64,
    next_rid: u64,
    accepted: u64,
}

impl ClusterSim {
    /// Builds the cluster: every node starts alive with the full
    /// membership in its ring view.
    pub fn new(config: SimConfig) -> Self {
        let n = config.nodes.max(1);
        let fp = cluster_fingerprint(
            &(0..n).map(|i| format!("sim-node-{i}")).collect::<Vec<_>>(),
            config.vnodes,
        );
        let ids: Vec<usize> = (0..n).collect();
        let nodes = ids
            .iter()
            .map(|&id| {
                let core = Arc::new(ServiceCore::new(
                    1,
                    config.cache_capacity,
                    config.cache_shards,
                ));
                ClusterNode::new(id, core, HashRing::new(fp, &ids, config.vnodes))
            })
            .collect();
        let mut sim = ClusterSim {
            rng: SmallRng::seed_from_u64(config.seed),
            nodes,
            alive: vec![true; n],
            islands: None,
            heap: BinaryHeap::new(),
            seq: 0,
            counters: ClusterCounters::default(),
            events: Vec::new(),
            responses: Vec::new(),
            pending_forwards: HashMap::new(),
            pending_execs: HashMap::new(),
            next_exec_id: 0,
            next_rid: 0,
            accepted: 0,
            config,
        };
        // Staggered heartbeat clocks so broadcasts do not all collide on
        // the same tick.
        let every = sim.config.heartbeat_every.max(1);
        for node in 0..n {
            let first = 1 + (node as u64) % every;
            sim.schedule(first, EventKind::HeartbeatTick { node });
        }
        sim
    }

    /// Schedules a scripted action at `tick`.
    pub fn script(&mut self, tick: u64, action: ScriptAction) {
        self.schedule(tick, EventKind::Script(action));
    }

    /// Injects a client request line at `node` on `tick`; returns its
    /// request id for matching against [`SimReport::responses`].
    pub fn client_request(&mut self, tick: u64, node: usize, line: impl Into<String>) -> u64 {
        let rid = self.next_rid;
        self.next_rid += 1;
        self.schedule(
            tick,
            EventKind::Client {
                node,
                rid,
                line: line.into(),
            },
        );
        rid
    }

    fn schedule(&mut self, tick: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { tick, seq, kind });
    }

    fn log(&mut self, tick: u64, line: String) {
        self.events.push(format!("t={tick:04} {line}"));
    }

    /// Runs to quiescence (or the tick horizon) and reports.
    pub fn run(mut self) -> SimReport {
        let mut last_tick = 0;
        while let Some(head) = self.heap.peek() {
            let tick = head.tick;
            if tick > self.config.max_ticks {
                break;
            }
            last_tick = tick;
            // Drain the whole tick first: nothing processed here can
            // schedule back into the same tick (latencies, execution,
            // and timeouts are all at least one tick long).
            let mut batch = Vec::new();
            while self.heap.peek().is_some_and(|s| s.tick == tick) {
                batch.push(self.heap.pop().expect("peeked"));
            }
            // Phase 1: message/script events, in schedule order.
            let mut exec_done: Vec<u64> = Vec::new();
            for ev in batch {
                match ev.kind {
                    EventKind::ExecDone { exec_id } => exec_done.push(exec_id),
                    other => self.process(tick, other),
                }
            }
            // Phase 2: this tick's finished executions as one pure
            // parallel batch; effects applied in schedule order below.
            // Executions migrated away in phase 1 of this tick are gone
            // from the map — their stale completions are skipped here.
            exec_done.retain(|id| self.pending_execs.contains_key(id));
            if !exec_done.is_empty() {
                let inputs: Vec<(Request, Option<Vec<u8>>)> = exec_done
                    .iter()
                    .map(|id| {
                        let pe = &self.pending_execs[id];
                        (pe.envelope.request.clone(), pe.snapshot.clone())
                    })
                    .collect();
                let outcomes = par_map_with(
                    inputs,
                    self.config.workers,
                    || (),
                    |_, (req, snapshot)| match snapshot {
                        // A migrated execution resumes its checkpointed
                        // job instead of starting over; the outcome is
                        // bit-identical either way.
                        Some(bytes) => {
                            let Request::Solve(r) = &req else {
                                unreachable!("only solve executions are migrated");
                            };
                            exec::resume_solve(r, &bytes)
                                .map(|value| noc_service::ExecOutput {
                                    value,
                                    degraded: false,
                                })
                                .map_err(noc_service::ExecError::Failed)
                        }
                        None => exec::execute_within(&req, None),
                    },
                );
                for (exec_id, outcome) in exec_done.into_iter().zip(outcomes) {
                    let pe = self.pending_execs.remove(&exec_id).expect("pending exec");
                    let response =
                        self.nodes[pe.node].complete(&pe.envelope, Instant::now(), outcome);
                    match pe.reply_to {
                        Some(origin) => {
                            self.log(tick, format!("reply rid={} {}->{origin}", pe.rid, pe.node));
                            self.send(
                                tick,
                                pe.node,
                                origin,
                                Payload::Reply {
                                    rid: pe.rid,
                                    line: response.to_line(),
                                },
                            );
                        }
                        None => self.finish_client(tick, pe.rid, pe.node, &response),
                    }
                }
            }
        }
        let ring_fingerprints = self
            .nodes
            .iter()
            .filter(|n| self.alive[n.id()])
            .map(|n| (n.id(), n.ring().fingerprint()))
            .collect();
        SimReport {
            events: self.events,
            unanswered: self.accepted - self.responses.len() as u64,
            responses: self.responses,
            counters: self.counters,
            ring_fingerprints,
            accepted: self.accepted,
            ticks: last_tick,
        }
    }

    fn process(&mut self, tick: u64, kind: EventKind) {
        match kind {
            EventKind::Script(action) => self.apply_script(tick, action),
            EventKind::Client { node, rid, line } => self.client_arrives(tick, node, rid, &line),
            EventKind::Deliver { from, to, payload } => self.deliver(tick, from, to, payload),
            EventKind::HeartbeatTick { node } => self.heartbeat_tick(tick, node),
            EventKind::ForwardTimeout { rid, epoch } => self.forward_timeout(tick, rid, epoch),
            EventKind::ExecDone { .. } => unreachable!("handled in the exec phase"),
        }
    }

    fn apply_script(&mut self, tick: u64, action: ScriptAction) {
        match action {
            ScriptAction::Partition(groups) => {
                let mut islands: Vec<usize> = (0..self.config.nodes)
                    .map(|n| groups.len() + n) // unlisted nodes isolate
                    .collect();
                for (island, members) in groups.iter().enumerate() {
                    for &m in members {
                        if m < islands.len() {
                            islands[m] = island;
                        }
                    }
                }
                self.log(tick, format!("partition {groups:?}"));
                self.islands = Some(islands);
            }
            ScriptAction::Heal => {
                self.log(tick, "heal".to_string());
                self.islands = None;
            }
            ScriptAction::Kill(node) => {
                if node < self.alive.len() && self.alive[node] {
                    self.alive[node] = false;
                    self.log(tick, format!("kill node={node}"));
                }
            }
            ScriptAction::Revive(node) => {
                if node < self.alive.len() && !self.alive[node] {
                    self.alive[node] = true;
                    // Fresh gossip clock: the node should not mass-evict
                    // peers on its first heartbeat after the outage.
                    for peer in 0..self.config.nodes {
                        self.nodes[node].heard(peer, tick);
                    }
                    self.log(tick, format!("revive node={node}"));
                }
            }
            ScriptAction::Migrate { from, to } => self.migrate(tick, from, to),
        }
    }

    /// Suspends every in-flight solve on `from` at its first checkpoint
    /// boundary, hands the snapshot to `to`, and schedules the resumed
    /// completion there. The already-scheduled completion on `from` goes
    /// stale (its exec id leaves the map) and is skipped.
    fn migrate(&mut self, tick: u64, from: usize, to: usize) {
        if from >= self.alive.len() || to >= self.alive.len() || !self.alive[to] || from == to {
            self.log(tick, format!("migrate {from}->{to} refused"));
            return;
        }
        // HashMap order is arbitrary; sort so two runs migrate in the
        // same order and stay byte-identical.
        let mut ids: Vec<u64> = self
            .pending_execs
            .iter()
            .filter(|(_, pe)| pe.node == from)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            let (rid, request) = {
                let pe = &self.pending_execs[&id];
                (pe.rid, pe.envelope.request.clone())
            };
            let Request::Solve(r) = &request else {
                self.log(tick, format!("migrate rid={rid} skipped (not resumable)"));
                continue;
            };
            // Materialise the progress made so far: one cooling stage. A
            // job that finishes within it has nothing left to migrate.
            let job = exec::suspend_solve(r, 1);
            if job.finished() {
                self.log(tick, format!("migrate rid={rid} skipped (finished)"));
                continue;
            }
            let bytes = job.snapshot();
            let mut pe = self.pending_execs.remove(&id).expect("listed");
            self.counters.migrated += 1;
            trace_inc("cluster.migrated");
            self.log(
                tick,
                format!("migrate rid={rid} {from}->{to} ({} bytes)", bytes.len()),
            );
            pe.node = to;
            pe.snapshot = Some(bytes);
            let exec_id = self.next_exec_id;
            self.next_exec_id += 1;
            self.pending_execs.insert(exec_id, pe);
            self.schedule(
                tick + self.config.exec_ticks.max(1),
                EventKind::ExecDone { exec_id },
            );
        }
    }

    fn client_arrives(&mut self, tick: u64, node: usize, rid: u64, line: &str) {
        if node >= self.alive.len() || !self.alive[node] {
            self.log(tick, format!("refused rid={rid} node={node} (dead)"));
            return;
        }
        self.accepted += 1;
        self.log(tick, format!("client rid={rid} node={node}"));
        match self.nodes[node].decide(line) {
            Decision::Respond(response) => self.finish_client(tick, rid, node, &response),
            Decision::Execute(envelope) => self.start_exec(tick, node, rid, envelope, None),
            Decision::Forward {
                owner,
                key_hash,
                line,
                envelope,
            } => {
                self.counters.forwarded += 1;
                trace_inc("cluster.forwarded");
                self.log(tick, format!("fwd rid={rid} {node}->{owner}"));
                self.pending_forwards.insert(
                    rid,
                    PendingForward {
                        origin: node,
                        envelope,
                        line: line.clone(),
                        key_hash,
                        tried: vec![owner],
                        epoch: 0,
                    },
                );
                self.send(tick, node, owner, Payload::Forward { rid, line });
                self.schedule(
                    tick + self.config.forward_timeout.max(1),
                    EventKind::ForwardTimeout { rid, epoch: 0 },
                );
            }
        }
    }

    fn deliver(&mut self, tick: u64, from: usize, to: usize, payload: Payload) {
        if !self.alive[to] {
            self.drop_message(tick, from, to, &payload, "dead");
            return;
        }
        if self.nodes[to].heard(from, tick) {
            self.counters.ring_change += 1;
            trace_inc("cluster.ring_change");
            self.log(tick, format!("ring node={to} +{from}"));
        }
        match payload {
            Payload::Heartbeat => {}
            Payload::Forward { rid, line } => match self.nodes[to].decide(&line) {
                Decision::Respond(response) => {
                    self.log(tick, format!("reply rid={rid} {to}->{from}"));
                    self.send(
                        tick,
                        to,
                        from,
                        Payload::Reply {
                            rid,
                            line: response.to_line(),
                        },
                    );
                }
                Decision::Execute(envelope) => {
                    self.start_exec(tick, to, rid, envelope, Some(from));
                }
                // Unreachable: forwarded lines always execute locally.
                Decision::Forward { envelope, .. } => {
                    self.start_exec(tick, to, rid, envelope, Some(from));
                }
            },
            Payload::Reply { rid, line } => {
                if self.pending_forwards.remove(&rid).is_some() {
                    self.responses.push((rid, to, line));
                    self.log(tick, format!("response rid={rid} node={to} (forwarded)"));
                } else {
                    self.log(tick, format!("late-reply rid={rid} node={to}"));
                }
            }
        }
    }

    fn heartbeat_tick(&mut self, tick: u64, node: usize) {
        let every = self.config.heartbeat_every.max(1);
        if tick + every <= self.config.max_ticks {
            self.schedule(tick + every, EventKind::HeartbeatTick { node });
        }
        if !self.alive[node] {
            return;
        }
        let removed = self.nodes[node].sweep_silent(tick, self.config.suspect_window);
        for peer in removed {
            self.counters.ring_change += 1;
            trace_inc("cluster.ring_change");
            self.log(tick, format!("ring node={node} -{peer}"));
        }
        for peer in 0..self.config.nodes {
            if peer != node {
                self.send(tick, node, peer, Payload::Heartbeat);
            }
        }
    }

    fn forward_timeout(&mut self, tick: u64, rid: u64, epoch: u64) {
        let Some(pf) = self.pending_forwards.get(&rid) else {
            return; // already answered
        };
        if pf.epoch != epoch {
            return; // stale timeout from before a failover re-send
        }
        self.counters.failover += 1;
        trace_inc("cluster.failover");
        let origin = pf.origin;
        let next = self.nodes[origin]
            .candidates(pf.key_hash, self.config.replicas)
            .into_iter()
            .find(|n| !pf.tried.contains(n));
        match next {
            Some(next) => {
                let pf = self.pending_forwards.get_mut(&rid).expect("checked");
                pf.tried.push(next);
                pf.epoch += 1;
                let (line, epoch) = (pf.line.clone(), pf.epoch);
                self.log(tick, format!("failover rid={rid} {origin}->{next}"));
                self.send(tick, origin, next, Payload::Forward { rid, line });
                self.schedule(
                    tick + self.config.forward_timeout.max(1),
                    EventKind::ForwardTimeout { rid, epoch },
                );
            }
            None => {
                // Every replica candidate failed: execute at the origin.
                // This is the zero-loss guarantee — an accepted request
                // runs *somewhere*, even with the whole ring unreachable.
                let pf = self.pending_forwards.remove(&rid).expect("checked");
                self.log(tick, format!("fallback rid={rid} node={origin}"));
                let mut envelope = pf.envelope;
                envelope.forwarded = true;
                self.start_exec(tick, origin, rid, envelope, None);
            }
        }
    }

    fn start_exec(
        &mut self,
        tick: u64,
        node: usize,
        rid: u64,
        envelope: Envelope,
        reply_to: Option<usize>,
    ) {
        let exec_id = self.next_exec_id;
        self.next_exec_id += 1;
        self.log(tick, format!("exec rid={rid} node={node}"));
        self.pending_execs.insert(
            exec_id,
            PendingExec {
                node,
                rid,
                envelope,
                reply_to,
                snapshot: None,
            },
        );
        self.schedule(
            tick + self.config.exec_ticks.max(1),
            EventKind::ExecDone { exec_id },
        );
    }

    fn finish_client(&mut self, tick: u64, rid: u64, node: usize, response: &Response) {
        let tag = match response {
            Response::Ok { cached, .. } => {
                if *cached {
                    "ok cached"
                } else {
                    "ok"
                }
            }
            Response::Err { .. } => "err",
        };
        self.log(tick, format!("response rid={rid} node={node} ({tag})"));
        self.responses.push((rid, node, response.to_line()));
    }

    fn drop_message(&mut self, tick: u64, from: usize, to: usize, payload: &Payload, why: &str) {
        self.counters.dropped += 1;
        trace_inc("cluster.dropped");
        // Heartbeat drops are counted but not logged: a long partition
        // would otherwise bury the interesting events under N² noise.
        // Injected (faultpoint) drops are always logged — they are
        // scripted, rare, and the whole point is seeing them fire.
        if why == "injected" || !matches!(payload, Payload::Heartbeat) {
            self.log(tick, format!("drop {from}->{to} ({why})"));
        }
    }

    fn send(&mut self, tick: u64, from: usize, to: usize, payload: Payload) {
        let injected = fp::hit("cluster.link.send");
        if injected == Some(fp::Injected::Error) {
            self.drop_message(tick, from, to, &payload, "injected");
            return;
        }
        if !self.alive[from] || !self.alive[to] {
            self.drop_message(tick, from, to, &payload, "dead");
            return;
        }
        if let Some(islands) = &self.islands {
            if islands[from] != islands[to] {
                self.drop_message(tick, from, to, &payload, "partition");
                return;
            }
        }
        if self.config.drop_rate > 0.0 && self.rng.gen_bool(self.config.drop_rate) {
            self.drop_message(tick, from, to, &payload, "link");
            return;
        }
        let (lo, hi) = (self.config.lat_min.max(1), self.config.lat_max.max(1));
        let latency = self.rng.gen_range(lo..hi.max(lo) + 1);
        let duplicate = injected == Some(fp::Injected::Poison)
            || (self.config.dup_rate > 0.0 && self.rng.gen_bool(self.config.dup_rate));
        if duplicate {
            let latency2 = self.rng.gen_range(lo..hi.max(lo) + 1);
            if !matches!(payload, Payload::Heartbeat) {
                self.log(tick, format!("dup {from}->{to}"));
            }
            self.schedule(
                tick + latency2,
                EventKind::Deliver {
                    from,
                    to,
                    payload: payload.clone(),
                },
            );
        }
        self.schedule(tick + latency, EventKind::Deliver { from, to, payload });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_line(id: &str, seed: u64) -> String {
        format!(r#"{{"id":"{id}","kind":"solve","n":6,"c":3,"moves":40,"seed":{seed}}}"#)
    }

    fn basic_run(seed: u64, workers: usize) -> SimReport {
        let mut sim = ClusterSim::new(SimConfig {
            nodes: 3,
            seed,
            workers,
            ..SimConfig::default()
        });
        for r in 0..9u64 {
            sim.client_request(2 + r, (r % 3) as usize, solve_line(&format!("r{r}"), r % 4));
        }
        sim.run()
    }

    #[test]
    fn every_request_is_answered() {
        let report = basic_run(7, 1);
        assert_eq!(report.accepted, 9);
        assert_eq!(report.responses.len(), 9);
        assert_eq!(report.unanswered, 0);
        for (_, _, line) in &report.responses {
            assert!(line.contains("\"ok\":true"), "unexpected response {line}");
        }
    }

    #[test]
    fn same_seed_same_report_across_workers() {
        let a = basic_run(42, 1);
        let b = basic_run(42, 4);
        assert_eq!(a.events, b.events);
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.counters, b.counters);
        let c = basic_run(43, 1);
        assert_ne!(
            a.events, c.events,
            "different seeds should differ somewhere (latency draws)"
        );
    }

    #[test]
    fn scripted_migration_answers_byte_identically() {
        // A solve big enough to span several cooling stages, so the
        // migration happens mid-job with real progress in the snapshot.
        let line = r#"{"id":"m0","kind":"solve","n":6,"c":3,"moves":2500,"seed":5}"#;
        let config = || SimConfig {
            nodes: 3,
            exec_ticks: 6,
            ..SimConfig::default()
        };

        // Reference run: no migration.
        let mut reference = ClusterSim::new(config());
        let rid = reference.client_request(2, 0, line);
        let reference = reference.run();
        assert_eq!(reference.responses.len(), 1);
        let (_, ref_node, ref_line) = &reference.responses[0];
        // Find where (and when) the execution ran so the migration can be
        // scripted mid-flight.
        let exec_event = reference
            .events
            .iter()
            .find(|e| e.contains(&format!("exec rid={rid}")))
            .expect("exec event");
        let exec_tick: u64 = exec_event[2..6].parse().unwrap();
        let exec_node: usize = exec_event
            .rsplit("node=")
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap();

        // Migrated run: same request, but the execution is checkpointed
        // and handed to the next node two ticks in.
        let target = (exec_node + 1) % 3;
        let mut sim = ClusterSim::new(config());
        let rid2 = sim.client_request(2, 0, line);
        sim.script(
            exec_tick + 2,
            ScriptAction::Migrate {
                from: exec_node,
                to: target,
            },
        );
        let report = sim.run();
        assert_eq!(report.counters.migrated, 1, "events: {:#?}", report.events);
        assert!(report
            .events
            .iter()
            .any(|e| e.contains(&format!("migrate rid={rid2} {exec_node}->{target}"))));
        assert_eq!(report.responses.len(), 1);
        let (_, node, line_out) = &report.responses[0];
        assert_eq!(
            line_out, ref_line,
            "migrated response must be byte-identical to the unmigrated one"
        );
        // The reply path differs only if the execution was forwarded; the
        // client-facing response line must not.
        let _ = (ref_node, node);

        // Migrating to a dead node is refused and changes nothing.
        let mut refused = ClusterSim::new(config());
        refused.client_request(2, 0, line);
        refused.script(1, ScriptAction::Kill(target));
        refused.script(
            exec_tick + 2,
            ScriptAction::Migrate {
                from: exec_node,
                to: target,
            },
        );
        let refused = refused.run();
        assert_eq!(refused.counters.migrated, 0);
        assert!(refused
            .events
            .iter()
            .any(|e| e.contains("migrate") && e.contains("refused")));
    }

    #[test]
    fn repeats_of_the_same_request_hit_the_owner_cache() {
        let mut sim = ClusterSim::new(SimConfig {
            nodes: 3,
            ..SimConfig::default()
        });
        // Same solve five times from different entry nodes: exactly one
        // execution, the rest served by the owner's cache.
        for r in 0..5u64 {
            sim.client_request(
                2 + 40 * r,
                (r % 3) as usize,
                solve_line(&format!("c{r}"), 9),
            );
        }
        let report = sim.run();
        assert_eq!(report.responses.len(), 5);
        let execs = report
            .events
            .iter()
            .filter(|e| e.contains(" exec "))
            .count();
        assert_eq!(execs, 1, "one execution expected:\n{:#?}", report.events);
    }
}
