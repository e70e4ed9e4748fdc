//! Multi-objective express-link placement: the latency × power ×
//! link-budget Pareto frontier as a first-class, deterministic product.
//!
//! The paper optimizes a single latency objective under a fixed express
//! link budget, but real placement decisions trade latency against power
//! and wiring cost. This crate computes the nondominated set over three
//! axes — total average packet latency (cycles), network static power
//! (mW), and express links spent per row — by reusing the existing
//! machinery as parallel *scalarizations*:
//!
//! 1. [`StaticPowerModel`] prices a row placement's replicated `n × n`
//!    network from exact integer degree moments, and
//!    [`IncrementalStaticPower`] patches that price in `O(1)` per link a
//!    connection-matrix bit flip changes, as reported by the latency
//!    kernel in `noc_placement::incremental`.
//! 2. [`ScalarizedObjective`] blends the all-pairs latency objective with
//!    the power model under a weight pair `(w_latency, w_power)`; at the
//!    extremes `(1, 0)` / `(0, 1)` it degenerates *bit-identically* to
//!    the corresponding single-objective solve, so the frontier's anchor
//!    points equal what `optimize_network` / a pure power-min solve would
//!    produce with the same seed.
//! 3. [`compute_frontier`] fans a deterministic weight lattice × every
//!    admissible link limit `C` out over order-preserving
//!    [`noc_par`] workers (seeded per scalarization from the frontier
//!    seed), then folds the candidates into a [`ParetoArchive`] — an
//!    epsilon-dominance box archive with deterministic insertion order
//!    and an FNV-1a frontier fingerprint.
//!
//! Results are byte-identical across repeated runs and across worker
//! counts; the service layer caches whole frontiers under a
//! `frontier-v1` fingerprint key and streams points over NDJSON.

#![warn(missing_docs)]

pub mod archive;
pub mod engine;
pub mod power_proxy;
pub mod scalarize;

pub use archive::{dominates_raw, InsertOutcome, ParetoArchive, ParetoPoint};
pub use engine::{
    compute_frontier, frontier_seed, scalarized_solve, FrontierConfig, FrontierResult,
    ScalarCandidate,
};
pub use power_proxy::{IncrementalStaticPower, StaticPowerModel};
pub use scalarize::{ScalarizedEvaluator, ScalarizedObjective};
