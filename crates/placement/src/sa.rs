//! Simulated annealing over the connection-matrix search space (§4.4).
//!
//! The candidate generator flips one random connection point per move, so
//! every candidate is valid by construction and all valid placements remain
//! probabilistically reachable (§4.4.2). The schedule follows Table 1: start
//! at `T0 = 10` cycles, run `m = 10^4` moves total, divide the temperature by
//! `S_c = 2` after every `m_c = 10^3` moves. A move with `ΔL ≤ 0` is always
//! accepted; otherwise it is accepted with probability `e^(−ΔL/T)`.
//!
//! Two knobs extend the paper's single-chain, full-evaluation loop without
//! changing its results:
//!
//! * [`SaParams::evaluator`] selects between full per-move re-evaluation
//!   and the incremental evaluator of [`crate::incremental`]; for
//!   objectives that support it the two are bit-identical, so the mode is
//!   a pure speed choice.
//! * [`SaParams::chains`] runs `K` independent chains with derived seeds
//!   (see [`chain_seed`]) in parallel and keeps the best result —
//!   deterministic for a fixed `(seed, K)` regardless of thread count.
//!   Chain fan-out lives in [`solve_row`](crate::optimizer::solve_row);
//!   [`anneal`] itself is always one chain.

use crate::objective::Objective;
use noc_rng::rngs::SmallRng;
use noc_rng::Rng;
use noc_topology::{ConnectionMatrix, RowPlacement};

/// How the annealer computes candidate objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Use the objective's incremental evaluator when it provides one
    /// (bit-identical to full evaluation, much cheaper per move); fall
    /// back to [`EvalMode::Full`] when it does not.
    #[default]
    Incremental,
    /// Decode and fully re-evaluate every candidate, as written in the
    /// paper. Useful for cross-checks and as the reference in benchmarks.
    Full,
}

impl EvalMode {
    /// Wire name of each mode, the one table the daemon protocol and the
    /// CLI read.
    pub const NAMES: [(&'static str, EvalMode); 2] = [
        ("incremental", EvalMode::Incremental),
        ("full", EvalMode::Full),
    ];

    /// The mode a wire name denotes.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::NAMES.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// The mode's wire name.
    pub fn name(self) -> &'static str {
        let row = Self::NAMES.iter().find(|r| r.1 == self);
        row.expect("every mode has a row in NAMES").0
    }
}

/// Annealing schedule parameters (paper Table 1) plus the evaluation-mode
/// and chain-count extensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaParams {
    /// Initial temperature `T0` in cycles.
    pub initial_temperature: f64,
    /// Total number of moves `m` per chain.
    pub total_moves: usize,
    /// Cooldown scale `S_c`: temperature divisor per stage.
    pub cooldown_scale: f64,
    /// Moves per cooling stage `m_c`.
    pub moves_per_stage: usize,
    /// Number of independent annealing chains (best-of-K); `1` reproduces
    /// the paper's single chain exactly. Interpreted by
    /// [`solve_row`](crate::optimizer::solve_row).
    pub chains: usize,
    /// Candidate evaluation mode. Not part of the fingerprint: for every
    /// objective with an incremental evaluator the modes produce
    /// bit-identical results, so cached results are shared across modes.
    pub evaluator: EvalMode,
}

impl SaParams {
    /// The paper's Table 1 values: `T0 = 10`, `m = 10^4`, `S_c = 2`,
    /// `m_c = 10^3` — one chain, incremental evaluation.
    pub fn paper() -> Self {
        SaParams {
            initial_temperature: 10.0,
            total_moves: 10_000,
            cooldown_scale: 2.0,
            moves_per_stage: 1_000,
            chains: 1,
            evaluator: EvalMode::Incremental,
        }
    }

    /// Same schedule with a different move budget (used by the Fig. 7
    /// runtime sweep, which grants both schemes equal runtime).
    pub fn with_moves(self, total_moves: usize) -> Self {
        SaParams {
            total_moves,
            ..self
        }
    }

    /// Same schedule with `K` independent chains (best-of-K).
    ///
    /// ```
    /// use noc_placement::{SaParams, solve_row, InitialStrategy};
    /// use noc_placement::objective::AllPairsObjective;
    ///
    /// let objective = AllPairsObjective::paper();
    /// let base = SaParams::paper().with_moves(400);
    /// let one = solve_row(8, 4, &objective, InitialStrategy::DivideAndConquer, &base, 7);
    /// let four = solve_row(8, 4, &objective, InitialStrategy::DivideAndConquer,
    ///                      &base.with_chains(4), 7);
    /// // Chain 0 reuses the plain seed, so best-of-4 can only improve on it.
    /// assert!(four.best_objective <= one.best_objective);
    /// ```
    pub fn with_chains(self, chains: usize) -> Self {
        assert!(chains >= 1, "at least one annealing chain is required");
        SaParams { chains, ..self }
    }

    /// Same schedule with an explicit candidate evaluation mode.
    pub fn with_evaluator(self, evaluator: EvalMode) -> Self {
        SaParams { evaluator, ..self }
    }

    /// Stable fingerprint of the schedule. Together with `(n, C)`, the
    /// objective fingerprint, the initial strategy, and the seed, this
    /// pins down the annealing result exactly — the basis of the service
    /// result cache. Covers the chain count (best-of-K changes the
    /// result) but not the evaluation mode (which does not).
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv1a::with_tag("sa-params");
        h.write_u64(self.initial_temperature.to_bits());
        h.write_u64(self.total_moves as u64);
        h.write_u64(self.cooldown_scale.to_bits());
        h.write_u64(self.moves_per_stage as u64);
        h.write_u64(self.chains as u64);
        h.finish()
    }
}

/// Seed of chain `k` derived from the caller's `seed` (a golden-ratio
/// multiply keeps the streams decorrelated). Chain 0 uses `seed` itself,
/// so `chains = 1` reproduces single-chain results bit-for-bit.
pub fn chain_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Default for SaParams {
    fn default() -> Self {
        SaParams::paper()
    }
}

/// A point on the annealing convergence trace: best objective seen after a
/// given number of objective evaluations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Objective evaluations performed so far — the schedule-comparison
    /// axis of Fig. 7. One candidate costs one evaluation in either mode:
    /// a full `O(n·e)` routing solve under [`EvalMode::Full`], or a
    /// recount of only the hop sums a bit flip can change under
    /// [`EvalMode::Incremental`] (same count, cheaper wall-clock).
    pub evaluations: usize,
    /// Best objective value seen so far (cycles).
    pub best_objective: f64,
}

/// Result of one annealing run (or the best of several chains, in which
/// case `evaluations` and `accepted_moves` aggregate over all chains while
/// `trace` is the winning chain's own).
#[derive(Debug, Clone)]
pub struct SaOutcome {
    /// Best placement found.
    pub best: RowPlacement,
    /// Objective value of `best` (cycles).
    pub best_objective: f64,
    /// Total objective evaluations, including the initial solution's.
    pub evaluations: usize,
    /// Number of accepted moves.
    pub accepted_moves: usize,
    /// Convergence trace (one point per improvement, plus the endpoints).
    pub trace: Vec<TracePoint>,
}

/// Runs one simulated-annealing chain on `P̂(n, C)` from the given initial
/// placement.
///
/// `initial_cost` accounts for evaluations already spent constructing the
/// initial solution (the D&C procedure), so traces of `OnlySA` and `D&C_SA`
/// share a comparable runtime axis (Fig. 7).
///
/// Under [`EvalMode::Incremental`] (the default) the per-move objective
/// comes from the objective's [`MoveEvaluator`](crate::incremental::MoveEvaluator),
/// which updates only the
/// hop sums a bit flip can change; with `debug_assertions` every move
/// cross-checks that value bit-for-bit against a full re-evaluation. The
/// accept/reject sequence, RNG stream, counters, and outcome are identical
/// in both modes.
///
/// # Panics
/// Panics if the initial placement does not fit a `(n-2)×(C-1)` connection
/// matrix (i.e. violates the link limit).
///
/// # Example: a 4×4 row
///
/// ```
/// use noc_placement::{anneal, SaParams};
/// use noc_placement::objective::{AllPairsObjective, Objective};
/// use noc_topology::RowPlacement;
///
/// let objective = AllPairsObjective::paper();
/// let mesh = RowPlacement::new(4);
/// let out = anneal(2, &mesh, &objective, &SaParams::paper().with_moves(500), 42, 0);
/// assert!(out.best_objective <= objective.eval(&mesh));
/// assert!(out.best.is_within_limit(2));
/// ```
pub fn anneal<O: Objective + ?Sized>(
    c_limit: usize,
    initial: &RowPlacement,
    objective: &O,
    params: &SaParams,
    seed: u64,
    initial_cost: usize,
) -> SaOutcome {
    // The annealing loop itself lives in `SaChainState` (crate::resume) so
    // the one-shot and checkpoint/resume paths are the same code and
    // cannot drift apart; running the whole budget in one call is
    // bit-identical to the historical inline loop.
    let mut chain =
        crate::resume::SaChainState::new(c_limit, initial, objective, params, seed, initial_cost);
    chain.run_moves(objective, usize::MAX);
    chain.into_outcome()
}

/// Emits one `sa.epoch` convergence point: the schedule state at the end
/// of a cooling stage, keyed by the chain's RNG seed (chain index → seed
/// is published separately as `sa.chain` by
/// [`solve_row`](crate::optimizer::solve_row)).
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_epoch(
    seed: u64,
    epoch: u64,
    temperature: f64,
    stage_accepted: usize,
    stage_moves: usize,
    current_obj: f64,
    best_obj: f64,
    evaluations: usize,
) {
    use noc_trace::FieldValue;
    let acceptance = if stage_moves == 0 {
        0.0
    } else {
        stage_accepted as f64 / stage_moves as f64
    };
    noc_trace::emit(
        "series",
        "sa.epoch",
        vec![
            ("seed", FieldValue::U64(seed)),
            ("epoch", FieldValue::U64(epoch)),
            ("temperature", FieldValue::F64(temperature)),
            ("acceptance", FieldValue::F64(acceptance)),
            ("current", FieldValue::F64(current_obj)),
            ("best", FieldValue::F64(best_obj)),
            ("evaluations", FieldValue::U64(evaluations as u64)),
        ],
    );
}

/// Draws a uniformly random connection matrix and decodes it — the random
/// initial placement used by the `OnlySA` baseline (§5.1's scheme 3).
pub fn random_placement(n: usize, c_limit: usize, rng: &mut SmallRng) -> RowPlacement {
    let mut matrix = ConnectionMatrix::new(n, c_limit);
    for i in 0..matrix.bit_count() {
        if rng.gen::<bool>() {
            matrix.flip_flat(i);
        }
    }
    matrix.decode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::AllPairsObjective;
    use noc_rng::SeedableRng;

    #[test]
    fn sa_never_returns_worse_than_initial() {
        let obj = AllPairsObjective::paper();
        let initial = RowPlacement::new(8);
        let initial_obj = obj.eval(&initial);
        let out = anneal(4, &initial, &obj, &SaParams::paper(), 7, 0);
        assert!(out.best_objective <= initial_obj);
        assert!(out.best.is_within_limit(4));
    }

    #[test]
    fn sa_improves_mesh_substantially() {
        // With C = 4 on 8 routers the optimum is ~5.84; SA from a mesh start
        // must get well below the mesh's 10.5.
        let obj = AllPairsObjective::paper();
        let out = anneal(4, &RowPlacement::new(8), &obj, &SaParams::paper(), 1, 0);
        assert!(
            out.best_objective < 7.0,
            "SA stuck at {}",
            out.best_objective
        );
    }

    #[test]
    fn degenerate_c1_returns_initial() {
        let obj = AllPairsObjective::paper();
        let initial = RowPlacement::new(8);
        let out = anneal(1, &initial, &obj, &SaParams::paper(), 3, 0);
        assert_eq!(out.best, initial);
        assert_eq!(out.evaluations, 1);
        assert_eq!(out.accepted_moves, 0);
    }

    #[test]
    fn trace_is_monotone_in_both_axes() {
        let obj = AllPairsObjective::paper();
        let out = anneal(8, &RowPlacement::new(16), &obj, &SaParams::paper(), 11, 5);
        assert!(out.trace.len() >= 2);
        for w in out.trace.windows(2) {
            assert!(w[0].evaluations <= w[1].evaluations);
            assert!(w[0].best_objective >= w[1].best_objective);
        }
        // Initial cost is charged to the first trace point.
        assert_eq!(out.trace[0].evaluations, 6);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let obj = AllPairsObjective::paper();
        let params = SaParams::paper().with_moves(2_000);
        let a = anneal(4, &RowPlacement::new(8), &obj, &params, 99, 0);
        let b = anneal(4, &RowPlacement::new(8), &obj, &params, 99, 0);
        assert_eq!(a.best, b.best);
        assert_eq!(a.accepted_moves, b.accepted_moves);
    }

    #[test]
    fn tracing_preserves_determinism_and_emits_epochs() {
        let obj = AllPairsObjective::paper();
        let params = SaParams::paper().with_moves(3_000);
        let off = anneal(4, &RowPlacement::new(8), &obj, &params, 21, 0);

        noc_trace::enable_with_capacity(16_384);
        let on = anneal(4, &RowPlacement::new(8), &obj, &params, 21, 0);
        let events = noc_trace::drain_events();
        noc_trace::disable();

        // Telemetry never touches the RNG stream or accept/reject path.
        assert_eq!(off.best, on.best);
        assert_eq!(off.accepted_moves, on.accepted_moves);
        assert_eq!(off.best_objective.to_bits(), on.best_objective.to_bits());

        // Other tests may anneal concurrently; key on our seed.
        use noc_trace::FieldValue;
        let epochs: Vec<_> = events
            .iter()
            .filter(|e| e.name == "sa.epoch" && e.field("seed") == Some(&FieldValue::U64(21)))
            .collect();
        // 3000 moves at 1000/stage: two cooldown boundaries plus the final.
        assert_eq!(epochs.len(), 3);
        for (i, epoch) in epochs.iter().enumerate() {
            assert_eq!(epoch.field("epoch"), Some(&FieldValue::U64(i as u64)));
            for key in ["temperature", "acceptance", "current", "best"] {
                assert!(
                    matches!(epoch.field(key), Some(FieldValue::F64(_))),
                    "epoch missing {key}"
                );
            }
        }
    }

    #[test]
    fn random_placement_is_valid_and_varied() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..32 {
            let row = random_placement(8, 4, &mut rng);
            assert!(row.is_within_limit(4));
            distinct.insert(row);
        }
        assert!(distinct.len() > 5, "random placements suspiciously uniform");
    }
}
