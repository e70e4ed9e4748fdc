//! Property-based tests for the optimizer: feasibility of every produced
//! placement, monotonicity of the objective in the link set, SA never
//! regressing its initial solution, D&C bounded by the exact optimum, and
//! the link searches answering the same on the hop-count rows as under
//! full evaluation.
//!
//! Cases are generated with the in-repo deterministic PRNG (`noc-rng`)
//! instead of proptest, so the suite runs in hermetic offline builds.

use noc_placement::dnc::DivisibleObjective;
use noc_placement::objective::{AllPairsObjective, Objective};
use noc_placement::{
    anneal, exhaustive_optimal, greedy_solution, initial_solution, sa::random_placement,
    DncOutcome, FlipLinks, SaParams,
};
use noc_rng::rngs::SmallRng;
use noc_rng::{Rng, SeedableRng};
use noc_routing::{HopWeights, INF};
use noc_topology::{ConnectionMatrix, RowPlacement};

/// Random valid placement plus its link limit.
fn valid_placement(rng: &mut SmallRng) -> (RowPlacement, usize) {
    let n = rng.gen_range(4usize..13);
    let c = rng.gen_range(2usize..7);
    let nbits = (c - 1) * (n - 2);
    let bits: Vec<bool> = (0..nbits).map(|_| rng.gen::<bool>()).collect();
    (ConnectionMatrix::from_bits(n, c, bits).unwrap().decode(), c)
}

/// The paper's objective without its link evaluator: the annealer and the
/// link searches score every candidate of it by full re-evaluation, the
/// reference the incremental paths must match.
struct FullOnly(AllPairsObjective);

impl Objective for FullOnly {
    fn eval(&self, row: &RowPlacement) -> f64 {
        self.0.eval(row)
    }
}

impl DivisibleObjective for FullOnly {
    fn restrict(&self, lo: usize, hi: usize) -> Self {
        FullOnly(self.0.restrict(lo, hi))
    }
}

fn for_cases(cases: u64, test_salt: u64, mut body: impl FnMut(&mut SmallRng)) {
    for case in 0..cases {
        let mut rng = SmallRng::seed_from_u64(test_salt ^ (case * 0x9E37_79B9));
        body(&mut rng);
    }
}

/// Adding any feasible express link never increases the all-pairs
/// objective — the monotonicity the branch-and-bound relies on.
#[test]
fn objective_is_monotone_in_links() {
    for_cases(24, 0xA1, |rng| {
        let (row, _c) = valid_placement(rng);
        let obj = AllPairsObjective::paper();
        let n = row.len();
        let a = rng.gen_range(0usize..12);
        let span = rng.gen_range(2usize..6);
        let b = a + span;
        if b >= n {
            return;
        }
        let before = obj.eval(&row);
        let mut bigger = row.clone();
        bigger.add_link(a, b).unwrap();
        assert!(obj.eval(&bigger) <= before + 1e-12);
    });
}

/// SA's result is never worse than its initial placement and always
/// respects the link limit.
#[test]
fn sa_result_feasible_and_no_regression() {
    for_cases(24, 0xA2, |rng| {
        let (row, c) = valid_placement(rng);
        let seed = rng.gen::<u64>();
        let obj = AllPairsObjective::paper();
        let params = SaParams::paper().with_moves(200);
        let out = anneal(c, &row, &obj, &params, seed, 0);
        assert!(out.best_objective <= obj.eval(&row) + 1e-12);
        assert!(out.best.validate(c).is_ok());
    });
}

/// D&C initial solutions are feasible and never worse than the mesh.
#[test]
fn dnc_feasible_and_beats_mesh() {
    for_cases(24, 0xA3, |rng| {
        let n = rng.gen_range(5usize..15);
        let c = rng.gen_range(2usize..6);
        let obj = AllPairsObjective::paper();
        let out = initial_solution(n, c, &obj);
        assert!(out.placement.validate(c).is_ok());
        assert!(out.objective <= obj.eval(&RowPlacement::new(n)) + 1e-12);
    });
}

/// A uniformly random connection matrix for `P̂(n, C)`.
fn random_matrix(n: usize, c: usize, rng: &mut SmallRng) -> ConnectionMatrix {
    let nbits = (c - 1) * (n - 2);
    let bits: Vec<bool> = (0..nbits).map(|_| rng.gen::<bool>()).collect();
    ConnectionMatrix::from_bits(n, c, bits).unwrap()
}

/// Drives the paper objective's link evaluator through `flips` from
/// `matrix` the way the annealer does, one `apply` of each flip's link
/// changes, and checks it against [`AllPairsObjective::eval`] bit for bit
/// after every flip.
fn assert_agrees(
    mut matrix: ConnectionMatrix,
    weights: HopWeights,
    flips: impl IntoIterator<Item = usize>,
) {
    let (n, c) = (matrix.routers(), matrix.link_limit());
    let obj = AllPairsObjective::with_weights(weights);
    let mut links = FlipLinks::try_new(&matrix).unwrap();
    let mut inc = obj.link_evaluator(&matrix.decode()).unwrap();
    assert_eq!(
        inc.objective().to_bits(),
        obj.eval(&matrix.decode()).to_bits(),
        "P({n},{c}) {weights:?}: fresh evaluator"
    );
    for (step, bit) in flips.into_iter().enumerate() {
        matrix.flip_flat(bit);
        inc.apply(links.flip(bit).as_slice());
        let fast = inc.objective();
        let slow = obj.eval(&matrix.decode());
        assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "P({n},{c}) {weights:?} step {step} flip {bit}: incremental {fast} vs full {slow}"
        );
    }
}

/// `count` random flat bit indices of `matrix`, none if it has no bits.
fn random_flips(matrix: &ConnectionMatrix, count: usize, rng: &mut SmallRng) -> Vec<usize> {
    let bits = matrix.bit_count();
    let count = if bits == 0 { 0 } else { count };
    (0..count).map(|_| rng.gen_range(0..bits)).collect()
}

/// The link evaluator agrees with the full evaluator bit-for-bit
/// after arbitrary flip sequences, starting from random valid placements,
/// for every feasible link limit on small rows.
#[test]
fn incremental_matches_full_after_random_flips() {
    for n in [4usize, 6, 8] {
        for c in 2..=n {
            for_cases(6, 0xA5 ^ ((n * 31 + c) as u64), |rng| {
                let matrix = random_matrix(n, c, rng);
                let flips = random_flips(&matrix, 40, rng);
                assert_agrees(matrix, HopWeights::PAPER, flips);
            });
        }
    }
}

/// Every row length the bitset evaluator takes, from 2 routers to the
/// full mask width of 64 (where a mask of all routers must never be
/// built as `1 << 64`), with link limits up to `C = n`.
#[test]
fn incremental_matches_full_on_every_row_length() {
    for n in 2usize..=64 {
        for_cases(1, 0xA7 ^ n as u64, |rng| {
            let c = rng.gen_range(2..n + 1);
            let matrix = random_matrix(n, c, rng);
            let flips = random_flips(&matrix, 24, rng);
            assert_agrees(matrix, HopWeights::PAPER, flips);
        });
    }
}

/// Spans encoded by several layers at once: a flip that removes one copy
/// of a span leaves its link in place, and only the last copy's removal
/// changes the row.
#[test]
fn incremental_matches_full_with_spans_duplicated_across_layers() {
    for n in [5usize, 8, 13, 63, 64] {
        for_cases(2, 0xA8 ^ n as u64, |rng| {
            let c = n;
            let points = n - 2;
            // Every layer copies layer 0, so every span starts with C − 1
            // copies.
            let layer: Vec<bool> = (0..points).map(|_| rng.gen::<bool>()).collect();
            let bits = (0..c - 1).flat_map(|_| layer.iter().copied()).collect();
            let matrix = ConnectionMatrix::from_bits(n, c, bits).unwrap();
            // Flip one point in every layer in turn, then back, then at
            // random.
            let point = rng.gen_range(0..points);
            let mut flips: Vec<usize> = (0..c - 1).map(|l| l * points + point).collect();
            flips.extend(flips.clone().into_iter().rev());
            flips.extend(random_flips(&matrix, 40, rng));
            assert_agrees(matrix, HopWeights::PAPER, flips);
        });
    }
}

/// Hop weights at their edges: free routers, free links, both free, and
/// the largest weight a request may carry (1,000,000 cycles, the
/// service's `MAX_HOP_CYCLES`) on the longest row.
#[test]
fn incremental_matches_full_at_the_weight_edges() {
    const MAX: u32 = 1_000_000;
    for (router_cycles, unit_link_cycles) in
        [(0, 0), (0, 1), (3, 0), (MAX, MAX), (MAX, 0), (0, MAX)]
    {
        let weights = HopWeights {
            router_cycles,
            unit_link_cycles,
        };
        for n in [2usize, 9, 33, 64] {
            for_cases(1, 0xA9 ^ n as u64, |rng| {
                let c = rng.gen_range(2..n.min(9) + 1);
                let matrix = random_matrix(n, c, rng);
                let flips = random_flips(&matrix, 30, rng);
                assert_agrees(matrix, weights, flips);
            });
        }
    }
}

/// The annealer's undo is a second flip of the same bit, which splits
/// the span it merged or merges the spans it split. Repeats and
/// interleavings of that pattern must still agree: `X X`, `X X X` and
/// `X Y Y X`.
#[test]
fn incremental_matches_full_through_undo_sequences() {
    for n in [3usize, 8, 16, 64] {
        for_cases(8, 0xAA ^ n as u64, |rng| {
            let c = rng.gen_range(2..n.min(6) + 1);
            let matrix = random_matrix(n, c, rng);
            let bits = matrix.bit_count();
            let x = rng.gen_range(0..bits);
            let y = (x + rng.gen_range(1..bits.max(2))) % bits;
            for sequence in [vec![x, x], vec![x, x, x], vec![x, y, y, x]] {
                // Random moves first, so the sequence starts from a
                // scrambled placement.
                let mut flips = random_flips(&matrix, 5, rng);
                flips.extend(sequence);
                flips.extend(random_flips(&matrix, 5, rng));
                assert_agrees(matrix.clone(), HopWeights::PAPER, flips);
            }
        });
    }
}

/// Rows longer than the 64-bit masks get no link evaluator, so the
/// paper's objective anneals them in full, as the full-only one does.
#[test]
fn rows_past_the_mask_width_anneal_identically_in_both_modes() {
    let obj = AllPairsObjective::paper();
    assert!(obj.link_evaluator(&RowPlacement::new(64)).is_some());
    assert!(obj.link_evaluator(&RowPlacement::new(65)).is_none());
    for n in [64usize, 65] {
        let row = RowPlacement::new(n);
        let base = SaParams::paper().with_moves(300);
        let fast = anneal(4, &row, &obj, &base, 65, 0);
        let slow = anneal(4, &row, &FullOnly(obj), &base, 65, 0);
        assert_eq!(fast.best, slow.best, "n={n}");
        assert_eq!(fast.best_objective.to_bits(), slow.best_objective.to_bits());
        assert_eq!(fast.accepted_moves, slow.accepted_moves);
        assert_eq!(fast.trace, slow.trace);
        assert!(
            fast.best_objective < obj.eval(&row),
            "n={n}: no improvement"
        );
    }
}

/// Annealing with the link evaluator and with full re-evaluation
/// takes the same trajectory: same best placement, objective bits, and
/// counters.
#[test]
fn sa_evaluation_modes_agree_bit_for_bit() {
    for_cases(16, 0xA6, |rng| {
        let (row, c) = valid_placement(rng);
        let seed = rng.gen::<u64>();
        let obj = AllPairsObjective::paper();
        let base = SaParams::paper().with_moves(400);
        let fast = anneal(c, &row, &obj, &base, seed, 0);
        let slow = anneal(c, &row, &FullOnly(obj), &base, seed, 0);
        assert_eq!(fast.best, slow.best);
        assert_eq!(fast.best_objective.to_bits(), slow.best_objective.to_bits());
        assert_eq!(fast.evaluations, slow.evaluations);
        assert_eq!(fast.accepted_moves, slow.accepted_moves);
        assert_eq!(fast.trace, slow.trace);
    });
}

/// On every instance small enough for the branch-and-bound oracle, the
/// paper-budget annealer reaches the exact optimum with the link
/// evaluator and with full re-evaluation — the incremental fast path
/// changes the speed, not the optima.
#[test]
fn incremental_sa_reaches_bb_optima() {
    let obj = AllPairsObjective::paper();
    let params = SaParams::paper();
    let dnc = noc_placement::InitialStrategy::DivideAndConquer;
    for (n, c) in [(4usize, 2usize), (4, 3), (6, 2), (6, 3), (8, 3), (8, 4)] {
        let opt = exhaustive_optimal(n, c, &obj);
        let fast = noc_placement::solve_row(n, c, &obj, dnc, &params, 42);
        let slow = noc_placement::solve_row(n, c, &FullOnly(obj), dnc, &params, 42);
        for (sa, label) in [(fast, "incremental"), (slow, "full")] {
            assert_eq!(
                sa.best_objective.to_bits(),
                opt.best_objective.to_bits(),
                "P({n},{c}) {label}: SA {} vs optimum {}",
                sa.best_objective,
                opt.best_objective
            );
        }
    }
}

/// The exhaustive optimum lower-bounds both D&C and SA outcomes, and the
/// reported objective matches re-evaluating the reported placement.
#[test]
fn exhaustive_is_a_true_lower_bound() {
    for_cases(12, 0xA4, |rng| {
        let n = rng.gen_range(4usize..8);
        let c = rng.gen_range(2usize..4);
        let seed = rng.gen::<u64>();
        let obj = AllPairsObjective::paper();
        let opt = exhaustive_optimal(n, c, &obj);
        assert!((obj.eval(&opt.best) - opt.best_objective).abs() < 1e-12);

        let dnc = initial_solution(n, c, &obj);
        assert!(opt.best_objective <= dnc.objective + 1e-12);

        let mut rng2 = SmallRng::seed_from_u64(seed);
        let start = random_placement(n, c, &mut rng2);
        let sa = anneal(c, &start, &obj, &SaParams::paper().with_moves(300), seed, 0);
        assert!(opt.best_objective <= sa.best_objective + 1e-12);
    });
}

/// Hop weights for a row of `n` routers: the paper's, small random ones,
/// or a per-segment cost `T_r + T_l` one cycle under, at or over the
/// largest with which every path stays within the DP's distance cap
/// `INF`. Over it the paper's objective has no link evaluator, and the
/// searches take the full path.
fn weights_to_the_edge(n: usize, rng: &mut SmallRng) -> HopWeights {
    let per_segment = match rng.gen_range(0u32..5) {
        0 => return HopWeights::PAPER,
        1 => rng.gen_range(0u32..9),
        k => INF / (n as u32 - 1) + k - 3,
    };
    let unit_link_cycles = rng.gen_range(0..per_segment.min(4) + 1);
    let weights = HopWeights {
        router_cycles: per_segment - unit_link_cycles,
        unit_link_cycles,
    };
    let fits = (n as u64 - 1) * per_segment as u64 <= INF as u64;
    let rows = AllPairsObjective::with_weights(weights).link_evaluator(&RowPlacement::new(n));
    assert_eq!(rows.is_some(), fits, "n = {n}, {weights:?}");
    weights
}

fn assert_same_construction(what: &str, rows: &DncOutcome, full: &DncOutcome) {
    assert_eq!(rows.placement, full.placement, "{what}: placement");
    assert_eq!(
        rows.objective.to_bits(),
        full.objective.to_bits(),
        "{what}: objective {} vs {}",
        rows.objective,
        full.objective
    );
    assert_eq!(rows.evaluations, full.evaluations, "{what}: evaluations");
}

/// Greedy insertion and D&C score their candidate links on the hop-count
/// rows, and return what full evaluation of every candidate returns:
/// the same placement, objective bits and evaluation count.
#[test]
fn constructions_answer_the_same_on_rows_as_in_full() {
    for_cases(40, 0xAB, |rng| {
        let n = rng.gen_range(2usize..25);
        let c = rng.gen_range(1usize..9);
        let obj = AllPairsObjective::with_weights(weights_to_the_edge(n, rng));
        let what = format!("P({n},{c}) {:?}", obj.weights());
        assert_same_construction(
            &format!("greedy {what}"),
            &greedy_solution(n, c, &obj),
            &greedy_solution(n, c, &FullOnly(obj)),
        );
        assert_same_construction(
            &format!("D&C {what}"),
            &initial_solution(n, c, &obj),
            &initial_solution(n, c, &FullOnly(obj)),
        );
    });
}

/// The branch-and-bound scores its maximal leaves on the hop-count rows,
/// and visits and evaluates exactly what it does under full evaluation.
#[test]
fn branch_and_bound_answers_the_same_on_rows_as_in_full() {
    for_cases(40, 0xAC, |rng| {
        let n = rng.gen_range(2usize..9);
        let c = rng.gen_range(1usize..7);
        let obj = AllPairsObjective::with_weights(weights_to_the_edge(n, rng));
        let what = format!("P({n},{c}) {:?}", obj.weights());
        let rows = exhaustive_optimal(n, c, &obj);
        let full = exhaustive_optimal(n, c, &FullOnly(obj));
        assert_eq!(rows.best, full.best, "{what}: placement");
        assert_eq!(
            rows.best_objective.to_bits(),
            full.best_objective.to_bits(),
            "{what}: objective"
        );
        assert_eq!(rows.evaluations, full.evaluations, "{what}: evaluations");
        assert_eq!(rows.nodes, full.nodes, "{what}: nodes");
    });
}

fn links(placement: &RowPlacement) -> Vec<(usize, usize)> {
    placement.express_links().map(|l| (l.a, l.b)).collect()
}

/// Construction outputs recorded under full evaluation of every
/// candidate, before the searches scored on the hop-count rows.
#[test]
fn constructions_keep_their_recorded_outputs() {
    let obj = AllPairsObjective::paper();
    let greedy = greedy_solution(32, 8, &obj);
    #[rustfmt::skip]
    let greedy_links = [
        (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (1, 9), (2, 5), (3, 7), (3, 9),
        (4, 6), (5, 10), (5, 12), (5, 21), (6, 9), (7, 12), (9, 14), (9, 19), (9, 21),
        (10, 16), (12, 18), (12, 21), (14, 18), (16, 21), (18, 20), (18, 21), (19, 21),
        (21, 23), (21, 24), (21, 25), (21, 26), (21, 27), (21, 29), (21, 30), (23, 25),
        (24, 28), (25, 27), (25, 30), (26, 29), (27, 29), (27, 31), (28, 31), (29, 31),
    ];
    assert_eq!(links(&greedy.placement), greedy_links);
    assert_eq!(greedy.objective, 18.056640625);
    assert_eq!(greedy.evaluations, 10_458);

    let dnc = initial_solution(64, 8, &obj);
    #[rustfmt::skip]
    let dnc_links = [
        (0, 2), (0, 3), (1, 3), (2, 5), (3, 10), (4, 6), (4, 7), (5, 7), (8, 10), (8, 11),
        (9, 11), (10, 13), (10, 19), (12, 14), (12, 15), (13, 15), (16, 18), (16, 19),
        (17, 19), (18, 21), (19, 26), (20, 22), (20, 23), (21, 23), (24, 26), (24, 27),
        (25, 27), (26, 29), (26, 42), (28, 30), (28, 31), (29, 31), (32, 34), (32, 35),
        (33, 35), (34, 37), (35, 42), (36, 38), (36, 39), (37, 39), (40, 42), (40, 43),
        (41, 43), (42, 45), (42, 51), (44, 46), (44, 47), (45, 47), (48, 50), (48, 51),
        (49, 51), (50, 53), (51, 58), (52, 54), (52, 55), (53, 55), (56, 58), (56, 59),
        (57, 59), (58, 61), (60, 62), (60, 63), (61, 63),
    ];
    assert_eq!(links(&dnc.placement), dnc_links);
    assert_eq!(dnc.objective, 37.353515625);
    assert_eq!(dnc.evaluations, 1_952);

    let optimal = exhaustive_optimal(8, 4, &obj);
    assert_eq!(
        links(&optimal.best),
        [(0, 2), (0, 5), (1, 4), (2, 4), (4, 6), (4, 7), (5, 7)]
    );
    assert_eq!(optimal.best_objective, 6.5625);
    assert_eq!(optimal.evaluations, 1_587);
    assert_eq!(optimal.nodes, 30_257);
}
