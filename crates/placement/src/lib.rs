//! Express-link placement optimization — the primary contribution of the
//! ICPP 2019 paper (§4).
//!
//! The one-dimensional problem `P̂(n, C)` asks for the set of express links
//! on a row of `n` routers, with every cross-section within the link limit
//! `C`, that minimises the all-pairs average head latency. This crate
//! provides:
//!
//! * [`objective`] — the minimised quantity: all-pairs (general-purpose) or
//!   `γ`-weighted (application-specific, §5.6.4) mean segment latency.
//! * [`sa`] — simulated annealing over the connection-matrix search space
//!   with the paper's Table 1 schedule; every candidate move (a single bit
//!   flip) stays inside the feasible region by construction (§4.4.2).
//! * [`dnc`] — the divide-and-conquer initial-solution procedure `I(n, C)`
//!   (§4.4.1): split the row, recurse with `C−1`, join with the best single
//!   cross link.
//! * [`bb`] — exhaustive search with branch-and-bound pruning, used as the
//!   D&C base case and as the optimality reference of §5.6.3 (Fig. 12).
//! * [`incremental`] — exact incremental re-evaluation under changes to
//!   the express-link set, the fast path of the annealer (whose bit flips
//!   change at most three links) and of the link searches (bit-identical
//!   to full evaluation).
//! * [`optimizer`] — end-to-end drivers: `OnlySA` vs `D&C_SA`, the per-`C`
//!   sweep of §4 ("determine all the possible values of C, and for each C
//!   the optimal placement; compare"), multi-chain best-of-K annealing,
//!   and the 2D application-specific optimizer.
//!
//! # Example: solve `P̂(8, 4)` like the paper
//!
//! ```
//! use noc_placement::{solve_row, InitialStrategy, SaParams};
//! use noc_placement::objective::AllPairsObjective;
//!
//! let objective = AllPairsObjective::paper();
//! let outcome = solve_row(8, 4, &objective, InitialStrategy::DivideAndConquer,
//!                         &SaParams::paper(), 42);
//! // The optimal P̂(8,4) objective is 6.5625 cycles (vs 10.5 for the mesh row).
//! assert!(outcome.best_objective < 7.0);
//! assert!(outcome.best.is_within_limit(4));
//! ```

#![warn(missing_docs)]

pub mod bb;
pub mod dnc;
pub mod fingerprint;
pub mod greedy;
pub mod incremental;
pub mod naive;
pub mod objective;
pub mod optimizer;
pub mod resume;
pub mod sa;

pub use bb::{exhaustive_optimal, BbOutcome};
pub use dnc::{initial_solution, DncOutcome};
pub use greedy::greedy_solution;
pub use incremental::{FlipLinks, HopRows, LinkChange, LinkChanges, LinkEvaluator};
pub use naive::{anneal_naive, NaiveSaOutcome};
pub use objective::{AllPairsObjective, Objective, WeightedObjective};
pub use optimizer::{
    evaluate_design, optimize_app_specific, optimize_network, solve_row, InitialStrategy,
    NetworkDesign, SweepPoint,
};
pub use resume::{SaChainState, SolveJob};
pub use sa::{anneal, chain_seed, SaOutcome, SaParams, TracePoint};
