//! Resumable simulated annealing: checkpointable chain state and
//! multi-chain solve jobs.
//!
//! [`SaChainState`] is the annealing loop of [`crate::anneal`] reified as
//! a stepping machine: the RNG state, connection matrix, temperature
//! schedule position, and counters live in a struct that can run any
//! number of moves at a time, serialize itself into the
//! [`noc_snapshot`] format at a move boundary, and restore to continue
//! **bit-identically** to an uninterrupted run. [`crate::anneal`] itself
//! is now a thin wrapper (construct, run to completion, convert), so the
//! resumable path and the one-shot path cannot drift apart.
//!
//! [`SolveJob`] lifts this to the multi-chain
//! [`solve_row`](crate::optimizer::solve_row) shape: K chains with
//! derived seeds and strategy-dependent initial placements, stepped in
//! lockstep stages and snapshotted as one unit. `solve_row` builds its
//! chains and reduces their outcomes (winner selection, aggregated
//! counters, `sa.chain` telemetry) with the same two functions, so the
//! job produces the same [`SaOutcome`].
//!
//! Both expose a cheap rolling [`SaChainState::state_hash`]: an FNV-1a
//! digest over the full dynamic state, emitted as the `sa.state_hash`
//! trace series at cooldown boundaries when tracing is on. Golden tests
//! pin these hashes at fixed epochs so nondeterminism is caught mid-run
//! rather than at end-of-run fingerprint time.

use crate::dnc::DivisibleObjective;
use crate::incremental::{FlipLinks, LinkEvaluator};
use crate::objective::Objective;
use crate::optimizer::{best_of_chains, start_chains, InitialStrategy};
use crate::sa::{emit_epoch, SaOutcome, SaParams, TracePoint};
use noc_rng::rngs::SmallRng;
use noc_rng::{Rng, SeedableRng};
use noc_snapshot::{Reader, SnapshotError, Writer};
use noc_topology::{ConnectionMatrix, RowPlacement};

/// Snapshot kind tag of a standalone annealing chain.
pub const CHAIN_KIND: &str = "sa-chain";
/// Snapshot kind tag of a multi-chain solve job.
pub const JOB_KIND: &str = "sa-job";

/// One simulated-annealing chain as a resumable stepping machine.
///
/// Construction mirrors the prologue of [`crate::anneal`]; each
/// [`run_moves`](Self::run_moves) call executes the same loop body over a
/// bounded move range. Stopping and resuming at any move boundary — in
/// the same process or via [`snapshot`](Self::snapshot) /
/// [`restore`](Self::restore) across processes — yields the exact
/// accept/reject sequence, RNG stream, counters, and outcome of an
/// uninterrupted run.
pub struct SaChainState {
    c_limit: usize,
    seed: u64,
    params: SaParams,
    rng: SmallRng,
    matrix: ConnectionMatrix,
    current_obj: f64,
    best: RowPlacement,
    best_obj: f64,
    evaluations: usize,
    accepted_moves: usize,
    trace: Vec<TracePoint>,
    /// Index of the next move to execute (0-based; `total_moves` when the
    /// move loop is exhausted).
    next_move: usize,
    temperature: f64,
    epoch: u64,
    stage_accepted: usize,
    stage_moves: usize,
    /// Whether finalisation (closing trace point, final epoch emission)
    /// has run. Distinct from `next_move == total_moves`: a degenerate
    /// search space finishes at construction without a closing point.
    done: bool,
    /// The objective's link evaluator and the flip tracker that feeds it
    /// the links each flip changes. Rebuilt lazily from `matrix` on
    /// demand — a pure function of the matrix, so it is deliberately
    /// *not* serialized; a restored chain rebuilds it and continues
    /// bit-identically.
    evaluator: Option<(Box<dyn LinkEvaluator>, FlipLinks)>,
}

impl SaChainState {
    /// Starts a chain exactly as [`crate::anneal`] does: evaluates the
    /// initial placement (charging `initial_cost` construction
    /// evaluations), encodes it, and seeds the schedule.
    ///
    /// # Panics
    /// Panics if the initial placement violates the link limit, as
    /// `anneal` does.
    pub fn new<O: Objective + ?Sized>(
        c_limit: usize,
        initial: &RowPlacement,
        objective: &O,
        params: &SaParams,
        seed: u64,
        initial_cost: usize,
    ) -> Self {
        let rng = SmallRng::seed_from_u64(seed);
        let matrix = ConnectionMatrix::encode(initial, c_limit)
            .expect("initial placement must satisfy the link limit");
        let current_obj = objective.eval(initial);
        let evaluations = initial_cost + 1;
        let trace = vec![TracePoint {
            evaluations,
            best_objective: current_obj,
        }];
        // Degenerate search space: C = 1 or n = 2 admits no express links;
        // the chain is born finished (no closing trace point, as in
        // `anneal`).
        let done = matrix.bit_count() == 0;
        SaChainState {
            c_limit,
            seed,
            params: *params,
            rng,
            next_move: if done { params.total_moves } else { 0 },
            matrix,
            current_obj,
            best: initial.clone(),
            best_obj: current_obj,
            evaluations,
            accepted_moves: 0,
            trace,
            temperature: params.initial_temperature,
            epoch: 0,
            stage_accepted: 0,
            stage_moves: 0,
            done,
            evaluator: None,
        }
    }

    /// Runs up to `budget` further moves (saturating at the schedule's
    /// total), finalising the chain when the budget reaches the end.
    /// Returns whether the chain is finished.
    ///
    /// The loop body is the annealing loop of [`crate::anneal`] verbatim;
    /// splitting a run across calls changes nothing observable.
    pub fn run_moves<O: Objective + ?Sized>(&mut self, objective: &O, budget: usize) -> bool {
        if self.done {
            return true;
        }
        if self.evaluator.is_none() {
            self.evaluator = objective
                .link_evaluator(&self.matrix.decode())
                .zip(FlipLinks::try_new(&self.matrix));
            if let Some((rows, _)) = &self.evaluator {
                debug_assert_eq!(
                    rows.objective().to_bits(),
                    self.current_obj.to_bits(),
                    "link evaluator disagrees with the full evaluator on the current placement"
                );
            }
        }

        // Telemetry is sampled once per call; none of the emission below
        // touches the RNG stream or the accept/reject sequence.
        let tracing = noc_trace::enabled();
        let move_hist = if tracing {
            noc_trace::sink().map(|sink| {
                sink.registry().histogram(match self.evaluator {
                    Some(_) => "sa.move.incremental",
                    None => "sa.move.full",
                })
            })
        } else {
            None
        };

        let end = self
            .next_move
            .saturating_add(budget)
            .min(self.params.total_moves);
        while self.next_move < end {
            let mv = self.next_move;
            if mv > 0 && mv.is_multiple_of(self.params.moves_per_stage) {
                if tracing {
                    emit_epoch(
                        self.seed,
                        self.epoch,
                        self.temperature,
                        self.stage_accepted,
                        self.stage_moves,
                        self.current_obj,
                        self.best_obj,
                        self.evaluations,
                    );
                    self.epoch += 1;
                    self.stage_accepted = 0;
                    self.stage_moves = 0;
                }
                self.temperature /= self.params.cooldown_scale;
                if tracing {
                    self.emit_state_hash();
                }
            }
            let bit = self.rng.gen_range(0..self.matrix.bit_count());
            self.matrix.flip_flat(bit);
            let move_start = move_hist.as_ref().map(|_| std::time::Instant::now());
            let candidate_obj = match &mut self.evaluator {
                Some((rows, links)) => {
                    rows.apply(links.flip(bit).as_slice());
                    let fast = rows.objective();
                    debug_assert_eq!(
                        fast.to_bits(),
                        objective.eval(&self.matrix.decode()).to_bits(),
                        "link evaluator diverged from the full evaluator at move {mv}"
                    );
                    fast
                }
                None => objective.eval(&self.matrix.decode()),
            };
            if let (Some(hist), Some(start)) = (&move_hist, move_start) {
                hist.record(start.elapsed().as_nanos() as u64);
            }
            self.evaluations += 1;
            self.stage_moves += 1;

            let delta = candidate_obj - self.current_obj;
            let accept = delta <= 0.0 || self.rng.gen::<f64>() < (-delta / self.temperature).exp();
            if accept {
                self.current_obj = candidate_obj;
                self.accepted_moves += 1;
                self.stage_accepted += 1;
                if self.current_obj < self.best_obj {
                    self.best = self.matrix.decode();
                    self.best_obj = self.current_obj;
                    self.trace.push(TracePoint {
                        evaluations: self.evaluations,
                        best_objective: self.best_obj,
                    });
                }
            } else {
                // Undo the flip: the matrix (and evaluator) mirror the
                // current placement.
                self.matrix.flip_flat(bit);
                if let Some((rows, links)) = &mut self.evaluator {
                    rows.apply(links.flip(bit).as_slice());
                }
            }
            self.next_move = mv + 1;
        }

        if end == self.params.total_moves {
            if tracing && self.stage_moves > 0 {
                emit_epoch(
                    self.seed,
                    self.epoch,
                    self.temperature,
                    self.stage_accepted,
                    self.stage_moves,
                    self.current_obj,
                    self.best_obj,
                    self.evaluations,
                );
            }
            self.trace.push(TracePoint {
                evaluations: self.evaluations,
                best_objective: self.best_obj,
            });
            self.done = true;
        }
        self.done
    }

    /// Whether the chain has finished (and finalised) its schedule.
    pub fn finished(&self) -> bool {
        self.done
    }

    /// The chain's seed (as derived by
    /// [`chain_seed`](crate::sa::chain_seed) for job chains).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The next move index (0-based; equals the total when exhausted).
    pub fn next_move(&self) -> usize {
        self.next_move
    }

    /// Rolling FNV-1a hash of the chain's full dynamic state: RNG words,
    /// connection matrix, current/best objectives, best placement,
    /// schedule position, and counters. Equal hashes at equal move
    /// indices are the mid-run determinism check; a divergence localises
    /// nondeterminism to a move range instead of an end-of-run
    /// fingerprint mismatch.
    pub fn state_hash(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv1a::with_tag("sa-state");
        h.write_u64(self.seed);
        h.write_u64(self.next_move as u64);
        h.write_u64(self.temperature.to_bits());
        for w in self.rng.state() {
            h.write_u64(w);
        }
        for &b in self.matrix.bits() {
            h.write_u64(b as u64);
        }
        h.write_u64(self.current_obj.to_bits());
        h.write_u64(self.best_obj.to_bits());
        h.write_u64(self.evaluations as u64);
        h.write_u64(self.accepted_moves as u64);
        h.finish()
    }

    /// Emits the `sa.state_hash` trace series point for the current
    /// state (called at cooldown boundaries when tracing is on).
    fn emit_state_hash(&self) {
        use noc_trace::FieldValue;
        noc_trace::emit(
            "series",
            "sa.state_hash",
            vec![
                ("seed", FieldValue::U64(self.seed)),
                ("move", FieldValue::U64(self.next_move as u64)),
                ("hash", FieldValue::U64(self.state_hash())),
            ],
        );
    }

    /// Converts a finished chain into its [`SaOutcome`].
    ///
    /// # Panics
    /// Panics if the chain has not finished.
    pub fn into_outcome(self) -> SaOutcome {
        assert!(self.done, "chain has moves remaining");
        SaOutcome {
            best: self.best,
            best_objective: self.best_obj,
            evaluations: self.evaluations,
            accepted_moves: self.accepted_moves,
            trace: self.trace,
        }
    }

    fn outcome_clone(&self) -> SaOutcome {
        assert!(self.done, "chain has moves remaining");
        SaOutcome {
            best: self.best.clone(),
            best_objective: self.best_obj,
            evaluations: self.evaluations,
            accepted_moves: self.accepted_moves,
            trace: self.trace.clone(),
        }
    }

    fn write(&self, w: &mut Writer) {
        w.write_u64(self.c_limit as u64);
        w.write_u64(self.seed);
        write_params(w, &self.params);
        w.write_u64s(&self.rng.state());
        w.write_u64(self.matrix.n() as u64);
        w.write_bools(self.matrix.bits());
        w.write_f64(self.current_obj);
        let best_bits = ConnectionMatrix::encode(&self.best, self.c_limit)
            .expect("best placement is always within the link limit");
        w.write_bools(best_bits.bits());
        w.write_f64(self.best_obj);
        w.write_u64(self.evaluations as u64);
        w.write_u64(self.accepted_moves as u64);
        w.write_len(self.trace.len());
        for p in &self.trace {
            w.write_u64(p.evaluations as u64);
            w.write_f64(p.best_objective);
        }
        w.write_u64(self.next_move as u64);
        w.write_f64(self.temperature);
        w.write_u64(self.epoch);
        w.write_u64(self.stage_accepted as u64);
        w.write_u64(self.stage_moves as u64);
        w.write_bool(self.done);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let c_limit = r.read_u64()? as usize;
        let seed = r.read_u64()?;
        let params = read_params(r)?;
        let rng_state = r.read_u64s()?;
        let rng_state: [u64; 4] = rng_state
            .as_slice()
            .try_into()
            .map_err(|_| SnapshotError::Corrupt { field: "rng state" })?;
        let n = r.read_u64()? as usize;
        let matrix = ConnectionMatrix::from_bits(n, c_limit, r.read_bools()?).map_err(|_| {
            SnapshotError::Mismatch {
                field: "connection matrix",
            }
        })?;
        let current_obj = r.read_f64()?;
        let best = ConnectionMatrix::from_bits(n, c_limit, r.read_bools()?)
            .map_err(|_| SnapshotError::Mismatch {
                field: "best placement",
            })?
            .decode();
        let best_obj = r.read_f64()?;
        let evaluations = r.read_u64()? as usize;
        let accepted_moves = r.read_u64()? as usize;
        let trace_len = r.read_len(16)?;
        let mut trace = Vec::with_capacity(trace_len);
        for _ in 0..trace_len {
            trace.push(TracePoint {
                evaluations: r.read_u64()? as usize,
                best_objective: r.read_f64()?,
            });
        }
        let next_move = r.read_u64()? as usize;
        if next_move > params.total_moves {
            return Err(SnapshotError::Corrupt { field: "next_move" });
        }
        let temperature = r.read_f64()?;
        let epoch = r.read_u64()?;
        let stage_accepted = r.read_u64()? as usize;
        let stage_moves = r.read_u64()? as usize;
        let done = r.read_bool()?;
        Ok(SaChainState {
            c_limit,
            seed,
            params,
            rng: SmallRng::from_state(rng_state),
            matrix,
            current_obj,
            best,
            best_obj,
            evaluations,
            accepted_moves,
            trace,
            next_move,
            temperature,
            epoch,
            stage_accepted,
            stage_moves,
            done,
            evaluator: None,
        })
    }

    /// Serialises the chain into a standalone `sa-chain` snapshot.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new(CHAIN_KIND);
        self.write(&mut w);
        w.finish()
    }

    /// Restores a chain from a `sa-chain` snapshot. The caller supplies
    /// the objective on the next [`run_moves`](Self::run_moves) call; the
    /// evaluator cache is rebuilt there.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes, CHAIN_KIND)?;
        let chain = Self::read(&mut r)?;
        r.finish()?;
        Ok(chain)
    }
}

fn write_params(w: &mut Writer, p: &SaParams) {
    w.write_f64(p.initial_temperature);
    w.write_u64(p.total_moves as u64);
    w.write_f64(p.cooldown_scale);
    w.write_u64(p.moves_per_stage as u64);
    w.write_u64(p.chains as u64);
}

fn read_params(r: &mut Reader<'_>) -> Result<SaParams, SnapshotError> {
    let initial_temperature = r.read_f64()?;
    let total_moves = r.read_u64()? as usize;
    let cooldown_scale = r.read_f64()?;
    let moves_per_stage = r.read_u64()? as usize;
    if moves_per_stage == 0 {
        return Err(SnapshotError::Corrupt {
            field: "moves_per_stage",
        });
    }
    let chains = r.read_u64()? as usize;
    Ok(SaParams {
        initial_temperature,
        total_moves,
        cooldown_scale,
        moves_per_stage,
        chains,
    })
}

fn strategy_tag(s: InitialStrategy) -> u8 {
    match s {
        InitialStrategy::Random => 0,
        InitialStrategy::DivideAndConquer => 1,
        InitialStrategy::Greedy => 2,
    }
}

fn strategy_from_tag(t: u8) -> Result<InitialStrategy, SnapshotError> {
    match t {
        0 => Ok(InitialStrategy::Random),
        1 => Ok(InitialStrategy::DivideAndConquer),
        2 => Ok(InitialStrategy::Greedy),
        _ => Err(SnapshotError::Corrupt {
            field: "initial strategy",
        }),
    }
}

/// A resumable multi-chain solve: the
/// [`solve_row`](crate::optimizer::solve_row) computation as a
/// checkpointable job.
///
/// Construction is `solve_row`'s own chain fan-out (per-chain random
/// initial placements for [`InitialStrategy::Random`]; one shared
/// deterministic initial solution with its build cost charged to chain 0
/// otherwise), and [`outcome`](Self::outcome) is its own reduction, so
/// running every chain to completion produces the same [`SaOutcome`] —
/// bit-identical best placement, aggregated counters, and `sa.chain`
/// telemetry — as a direct `solve_row` call.
pub struct SolveJob {
    n: usize,
    c_limit: usize,
    strategy: InitialStrategy,
    params: SaParams,
    seed: u64,
    /// Fingerprint of the objective the job was built against; stored in
    /// snapshots so a restore against a different objective is rejected
    /// by the caller (the objective itself is not serializable).
    objective_fp: u64,
    chains: Vec<SaChainState>,
}

impl SolveJob {
    /// Builds the job's chains the way `solve_row` does. `objective_fp`
    /// is the caller's stable fingerprint of `objective` (e.g.
    /// [`AllPairsObjective::fingerprint`](crate::objective::AllPairsObjective::fingerprint));
    /// it travels with snapshots for restore-time validation.
    pub fn new<O: DivisibleObjective>(
        n: usize,
        c_limit: usize,
        objective: &O,
        strategy: InitialStrategy,
        params: &SaParams,
        seed: u64,
        objective_fp: u64,
    ) -> Self {
        SolveJob {
            n,
            c_limit,
            strategy,
            params: *params,
            seed,
            objective_fp,
            chains: start_chains(n, c_limit, objective, strategy, params, seed),
        }
    }

    /// Steps every chain by `stages` cooling stages' worth of moves.
    /// Returns whether all chains have finished.
    pub fn run_stages<O: Objective + ?Sized>(&mut self, objective: &O, stages: usize) -> bool {
        let budget = stages.saturating_mul(self.params.moves_per_stage);
        self.run_moves(objective, budget)
    }

    /// Steps every chain by up to `budget` moves. Returns whether all
    /// chains have finished.
    pub fn run_moves<O: Objective + ?Sized>(&mut self, objective: &O, budget: usize) -> bool {
        let mut all_done = true;
        for chain in &mut self.chains {
            all_done &= chain.run_moves(objective, budget);
        }
        all_done
    }

    /// Whether every chain has finished its schedule.
    pub fn finished(&self) -> bool {
        self.chains.iter().all(|c| c.finished())
    }

    /// Problem size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Link limit `C`.
    pub fn c_limit(&self) -> usize {
        self.c_limit
    }

    /// The caller's seed (chain `k` runs at
    /// [`chain_seed`](crate::sa::chain_seed)`(seed, k)`).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The initial-solution strategy.
    pub fn strategy(&self) -> InitialStrategy {
        self.strategy
    }

    /// The annealing schedule.
    pub fn params(&self) -> &SaParams {
        &self.params
    }

    /// The objective fingerprint the job was built against.
    pub fn objective_fp(&self) -> u64 {
        self.objective_fp
    }

    /// The move index the slowest chain has reached.
    pub fn next_move(&self) -> usize {
        self.chains.iter().map(|c| c.next_move()).min().unwrap_or(0)
    }

    /// Rolling FNV-1a hash over every chain's [`SaChainState::state_hash`]
    /// plus the job's identity fields.
    pub fn state_hash(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv1a::with_tag("sa-job-state");
        h.write_u64(self.n as u64);
        h.write_u64(self.c_limit as u64);
        h.write_u64(self.seed);
        h.write_u64(self.objective_fp);
        for chain in &self.chains {
            h.write_u64(chain.state_hash());
        }
        h.finish()
    }

    /// Reduces the finished chains to the `solve_row` outcome: emits the
    /// `sa.chain` series when tracing, keeps the first chain attaining
    /// the minimal objective, and aggregates counters across chains.
    ///
    /// # Panics
    /// Panics if any chain has moves remaining.
    pub fn outcome(&self) -> SaOutcome {
        let outcomes = self.chains.iter().map(|c| c.outcome_clone()).collect();
        best_of_chains(self.seed, outcomes)
    }

    /// Serialises the job (identity fields plus every chain) into a
    /// `sa-job` snapshot.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new(JOB_KIND);
        w.write_u64(self.n as u64);
        w.write_u64(self.c_limit as u64);
        w.write_u8(strategy_tag(self.strategy));
        write_params(&mut w, &self.params);
        w.write_u64(self.seed);
        w.write_u64(self.objective_fp);
        w.write_len(self.chains.len());
        for chain in &self.chains {
            chain.write(&mut w);
        }
        w.finish()
    }

    /// Restores a job from a `sa-job` snapshot. Callers must check
    /// [`objective_fp`](Self::objective_fp) (and any other identity
    /// fields they key on) against the request before resuming.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes, JOB_KIND)?;
        let n = r.read_u64()? as usize;
        let c_limit = r.read_u64()? as usize;
        let strategy = strategy_from_tag(r.read_u8()?)?;
        let params = read_params(&mut r)?;
        let seed = r.read_u64()?;
        let objective_fp = r.read_u64()?;
        let count = r.read_len(64)?;
        if count == 0 {
            return Err(SnapshotError::Corrupt {
                field: "chain count",
            });
        }
        let mut chains = Vec::with_capacity(count);
        for _ in 0..count {
            chains.push(SaChainState::read(&mut r)?);
        }
        r.finish()?;
        Ok(SolveJob {
            n,
            c_limit,
            strategy,
            params,
            seed,
            objective_fp,
            chains,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::AllPairsObjective;
    use crate::optimizer::solve_row;
    use crate::sa::anneal;

    #[test]
    fn stepping_matches_one_shot_anneal() {
        let obj = AllPairsObjective::paper();
        let params = SaParams::paper().with_moves(2_500);
        let initial = RowPlacement::new(8);
        let whole = anneal(4, &initial, &obj, &params, 17, 0);

        let mut chain = SaChainState::new(4, &initial, &obj, &params, 17, 0);
        let mut steps = 0;
        while !chain.run_moves(&obj, 333) {
            steps += 1;
            assert!(steps < 100, "chain failed to terminate");
        }
        let stepped = chain.into_outcome();
        assert_eq!(whole.best, stepped.best);
        assert_eq!(
            whole.best_objective.to_bits(),
            stepped.best_objective.to_bits()
        );
        assert_eq!(whole.evaluations, stepped.evaluations);
        assert_eq!(whole.accepted_moves, stepped.accepted_moves);
        assert_eq!(whole.trace, stepped.trace);
    }

    #[test]
    fn chain_snapshot_roundtrip_is_bit_identical() {
        let obj = AllPairsObjective::paper();
        let params = SaParams::paper().with_moves(2_000);
        let initial = RowPlacement::new(8);
        let whole = anneal(4, &initial, &obj, &params, 23, 0);

        let mut chain = SaChainState::new(4, &initial, &obj, &params, 23, 0);
        chain.run_moves(&obj, 700);
        let bytes = chain.snapshot();
        let mut restored = SaChainState::restore(&bytes).unwrap();
        assert_eq!(restored.state_hash(), chain.state_hash());
        while !restored.run_moves(&obj, 450) {}
        let resumed = restored.into_outcome();
        assert_eq!(whole.best, resumed.best);
        assert_eq!(
            whole.best_objective.to_bits(),
            resumed.best_objective.to_bits()
        );
        assert_eq!(whole.evaluations, resumed.evaluations);
        assert_eq!(whole.accepted_moves, resumed.accepted_moves);
        assert_eq!(whole.trace, resumed.trace);
    }

    #[test]
    fn job_matches_solve_row_for_every_strategy() {
        let obj = AllPairsObjective::paper();
        let params = SaParams::paper().with_moves(800).with_chains(3);
        for strategy in [
            InitialStrategy::Random,
            InitialStrategy::DivideAndConquer,
            InitialStrategy::Greedy,
        ] {
            let direct = solve_row(8, 4, &obj, strategy, &params, 5);
            let mut job = SolveJob::new(8, 4, &obj, strategy, &params, 5, obj.fingerprint());
            while !job.run_stages(&obj, 1) {}
            let resumed = job.outcome();
            assert_eq!(direct.best, resumed.best, "{strategy:?}");
            assert_eq!(
                direct.best_objective.to_bits(),
                resumed.best_objective.to_bits()
            );
            assert_eq!(direct.evaluations, resumed.evaluations);
            assert_eq!(direct.accepted_moves, resumed.accepted_moves);
            assert_eq!(direct.trace, resumed.trace);
        }
    }

    #[test]
    fn job_snapshot_roundtrip_resumes_bit_identically() {
        let obj = AllPairsObjective::paper();
        let params = SaParams::paper().with_moves(1_200).with_chains(2);
        let direct = solve_row(8, 4, &obj, InitialStrategy::DivideAndConquer, &params, 9);

        let mut job = SolveJob::new(
            8,
            4,
            &obj,
            InitialStrategy::DivideAndConquer,
            &params,
            9,
            obj.fingerprint(),
        );
        job.run_stages(&obj, 1);
        let bytes = job.snapshot();
        let mut restored = SolveJob::restore(&bytes).unwrap();
        assert_eq!(restored.objective_fp(), obj.fingerprint());
        assert_eq!(restored.state_hash(), job.state_hash());
        while !restored.run_stages(&obj, 1) {}
        let resumed = restored.outcome();
        assert_eq!(direct.best, resumed.best);
        assert_eq!(direct.evaluations, resumed.evaluations);
        assert_eq!(direct.accepted_moves, resumed.accepted_moves);
    }

    #[test]
    fn degenerate_chain_is_born_finished() {
        let obj = AllPairsObjective::paper();
        let initial = RowPlacement::new(8);
        let chain = SaChainState::new(1, &initial, &obj, &SaParams::paper(), 3, 0);
        assert!(chain.finished());
        let out = chain.into_outcome();
        assert_eq!(out.best, initial);
        assert_eq!(out.evaluations, 1);
        assert_eq!(out.trace.len(), 1);
    }

    #[test]
    fn state_hash_tracks_progress_and_restores() {
        let obj = AllPairsObjective::paper();
        let params = SaParams::paper().with_moves(1_000);
        let initial = RowPlacement::new(8);
        let mut a = SaChainState::new(4, &initial, &obj, &params, 31, 0);
        let mut b = SaChainState::new(4, &initial, &obj, &params, 31, 0);
        assert_eq!(a.state_hash(), b.state_hash());
        a.run_moves(&obj, 200);
        assert_ne!(
            a.state_hash(),
            b.state_hash(),
            "progress must move the hash"
        );
        b.run_moves(&obj, 200);
        assert_eq!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn corrupt_job_snapshots_are_structured_errors() {
        let obj = AllPairsObjective::paper();
        let params = SaParams::paper().with_moves(500);
        let mut job = SolveJob::new(
            8,
            4,
            &obj,
            InitialStrategy::Random,
            &params,
            1,
            obj.fingerprint(),
        );
        job.run_stages(&obj, 0);
        let bytes = job.snapshot();
        assert!(SolveJob::restore(&bytes).is_ok());
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 1;
        assert!(SolveJob::restore(&flipped).is_err());
        assert!(SolveJob::restore(&bytes[..bytes.len() - 3]).is_err());
    }
}
