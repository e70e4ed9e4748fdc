//! Greedy-insertion initial solution: an alternative heuristic used as an
//! ablation baseline against the paper's divide-and-conquer procedure.
//!
//! Starting from the mesh row, repeatedly add the single feasible express
//! link with the largest objective improvement, until no feasible link
//! improves the objective. `O(L²)` evaluations for `L = (n-1)(n-2)/2`
//! candidate links — more expensive than `I(n, C)` at equal `n` and without
//! its recursive structure, but a natural straw-man.
//!
//! Feasibility comes from per-cut express-link counts. A candidate is
//! scored on the objective's [link evaluator] when it has one: add the
//! link, read the objective, remove it again, which recomputes only the
//! hop-count rows the link reaches. Objectives without one evaluate an
//! extended copy of the placement in full. Both paths see the same
//! values, so they pick the same links and count the same evaluations.
//!
//! [link evaluator]: crate::objective::Objective::link_evaluator

use crate::dnc::DncOutcome;
use crate::incremental::LinkChange;
use crate::objective::{current, with_link, Objective};
use noc_topology::{Link, RowPlacement};

/// Builds a placement by greedy link insertion.
pub fn greedy_solution<O: Objective + ?Sized>(
    n: usize,
    c_limit: usize,
    objective: &O,
) -> DncOutcome {
    assert!(n >= 2 && c_limit >= 1);
    let candidates: Vec<Link> = (0..n)
        .flat_map(|a| (a + 2..n).map(move |b| Link { a, b }))
        .collect();

    let mut placement = RowPlacement::new(n);
    let mut rows = objective.link_evaluator(&placement);
    let mut best_obj = current(objective, rows.as_deref(), &placement);
    let mut evaluations = 1usize;
    // Express links crossing each cut; a link fits while every cut it
    // crosses keeps one layer for the local link.
    let mut sections = vec![0usize; n - 1];

    loop {
        let mut round_best: Option<(Link, f64)> = None;
        for link in &candidates {
            if placement.has_express(link.a, link.b)
                || sections[link.a..link.b].iter().any(|&s| s + 1 >= c_limit)
            {
                continue;
            }
            let obj = with_link(objective, rows.as_mut(), &placement, (link.a, link.b));
            evaluations += 1;
            if obj < round_best.map_or(best_obj, |(_, o)| o) {
                round_best = Some((*link, obj));
            }
        }
        match round_best {
            Some((link, obj)) if obj < best_obj - 1e-12 => {
                placement.add_link(link.a, link.b).expect("valid pair");
                if let Some(rows) = rows.as_mut() {
                    let (a, b) = (link.a, link.b);
                    rows.apply(&[LinkChange { a, b, added: true }]);
                }
                sections[link.a..link.b].iter_mut().for_each(|s| *s += 1);
                best_obj = obj;
            }
            _ => break,
        }
    }

    DncOutcome {
        placement,
        objective: best_obj,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::AllPairsObjective;

    #[test]
    fn greedy_respects_limit_and_beats_mesh() {
        let obj = AllPairsObjective::paper();
        for (n, c) in [(8usize, 2usize), (8, 4), (16, 4)] {
            let out = greedy_solution(n, c, &obj);
            assert!(out.placement.validate(c).is_ok(), "greedy({n},{c})");
            assert!(out.objective < obj.eval(&RowPlacement::new(n)));
        }
    }

    #[test]
    fn greedy_c1_returns_mesh() {
        let obj = AllPairsObjective::paper();
        let out = greedy_solution(8, 1, &obj);
        assert_eq!(out.placement, RowPlacement::new(8));
        assert_eq!(out.evaluations, 1);
    }

    #[test]
    fn greedy_is_locally_maximal() {
        // No single additional feasible link may improve the result.
        let obj = AllPairsObjective::paper();
        let out = greedy_solution(8, 3, &obj);
        for a in 0..8 {
            for b in a + 2..8 {
                if out.placement.has_express(a, b) {
                    continue;
                }
                let mut bigger = out.placement.clone();
                bigger.add_link(a, b).unwrap();
                if bigger.is_within_limit(3) {
                    assert!(
                        obj.eval(&bigger) >= out.objective - 1e-12,
                        "greedy missed improving link ({a},{b})"
                    );
                }
            }
        }
    }
}
