//! Cycle-level wormhole NoC simulator — the substrate standing in for
//! gem5 + GARNET in the paper's evaluation (§5.1; see DESIGN.md §2 for the
//! substitution argument).
//!
//! Microarchitecture (one clock domain, one cycle granularity):
//!
//! * **Routers** follow the canonical 3-stage credit-based wormhole pipeline
//!   the paper assumes: BW+RC in the arrival cycle, VA the next cycle,
//!   SA+ST the cycle after — 3 cycles per router for an uncontended flit,
//!   matching `T_r = 3`.
//! * **Links** take `span` additional cycles (express links are repeatered
//!   into unit segments, §2.2), so an uncontended hop costs
//!   `T_r + span·T_l` — exactly the analytic hop cost of `noc-routing`.
//! * **Virtual channels** with per-VC FIFO buffers and credit-based flow
//!   control (credits return with one cycle of wire latency).
//! * **Routing** is table-based dimension-order: a per-network next-hop
//!   table compiled from `noc-routing`'s directional APSP solve (Fig. 3's
//!   router implementation).
//! * **Traffic** comes from `noc-traffic` workloads: Bernoulli injection,
//!   matrix-sampled destinations, multi-class packet sizes serialised into
//!   `ceil(bits / flit_bits)` flits.
//!
//! Measurement follows standard NoC methodology: warm up, tag packets
//! created during the measurement window, and drain until every tagged
//! packet leaves. At (near) zero load the measured packet latency equals the
//! analytic `L_D + L_S − 1` of `noc-model` exactly (the −1 is bookkeeping:
//! the analytic sum charges the head flit's delivery cycle twice — once in
//! `L_D`'s arrival and once in `L_S = ceil(S/b)`; integration tests pin this
//! identity).
//!
//! Activity counters (buffer writes/reads, crossbar traversals, link
//! flit-segments) feed the `noc-power` DSENT-substitute model.
//!
//! There is one engine: [`BatchSimulator`] runs K replicas of a topology
//! in lockstep, and [`Simulator`] is a batch of one. The golden
//! fingerprints in `tests/golden.rs` pin its cycle-exact behaviour.
//! [`simulate_many`] runs a batch of independent simulations, on any mix
//! of topologies, as lockstep passes.

pub mod batch;
pub mod config;
pub mod engine;
pub mod flit;
pub mod many;
pub mod network;
pub mod stats;
pub mod throughput;

pub use batch::{
    trace_fingerprint, workload_fingerprint, BatchSimulator, BATCH_KIND, MAX_LANES,
    MAX_PACKET_FLITS,
};
pub use config::SimConfig;
pub use engine::Simulator;
pub use many::{simulate_many, LOCKSTEP_LANES};
pub use network::NetTables;
pub use stats::{ActivityCounters, SimStats};
pub use throughput::{
    saturation_sweep, SweepRunner, SweepSample, ThroughputResult, MIN_START_RATE,
};
