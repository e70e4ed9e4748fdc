//! Channel-dependency-graph deadlock verification (§4.5.1).
//!
//! The paper's deadlock-freedom argument: packets traverse each dimension
//! unidirectionally (no U-turns), and route X before Y, so every channel
//! depends only on same-direction downstream channels within a dimension or
//! on Y channels after an X channel — never cyclically. Rather than trusting
//! the argument, this module *checks* it: it builds the channel dependency
//! graph induced by the deterministic routing function over a topology and
//! searches for a cycle (Dally & Seitz's criterion — the routing relation is
//! deadlock-free iff its CDG is acyclic).

use crate::dor::DorRouter;
use noc_topology::MeshTopology;
use std::collections::HashMap;

/// A directed channel: the ordered pair of flat router ids `(from, to)`.
pub type Channel = (usize, usize);

/// Builds the channel dependency graph induced by `router` on `topology` and
/// returns a dependency cycle as a channel sequence if one exists, or `None`
/// when the routing relation is deadlock-free.
pub fn channel_dependency_cycle(
    topology: &MeshTopology,
    router: &DorRouter,
) -> Option<Vec<Channel>> {
    // Enumerate directed channels.
    let mut channel_ids: HashMap<Channel, usize> = HashMap::new();
    let mut channels: Vec<Channel> = Vec::new();
    for link in topology.links() {
        for ch in [(link.a, link.b), (link.b, link.a)] {
            channel_ids.entry(ch).or_insert_with(|| {
                channels.push(ch);
                channels.len() - 1
            });
        }
    }

    // Dependencies: consecutive channels on any routed path.
    let n_routers = topology.routers();
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); channels.len()];
    for src in 0..n_routers {
        for dst in 0..n_routers {
            if src == dst {
                continue;
            }
            let route = router.route(src, dst);
            for pair in route.hops.windows(2) {
                let a = channel_ids[&(pair[0].from, pair[0].to)];
                let b = channel_ids[&(pair[1].from, pair[1].to)];
                deps[a].push(b);
            }
        }
    }
    for d in &mut deps {
        d.sort_unstable();
        d.dedup();
    }

    // Iterative DFS cycle detection with colour marking.
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour = vec![Colour::White; channels.len()];
    let mut parent: Vec<usize> = vec![usize::MAX; channels.len()];
    for start in 0..channels.len() {
        if colour[start] != Colour::White {
            continue;
        }
        // Stack of (node, next-child index).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        colour[start] = Colour::Grey;
        while let Some(&mut (node, ref mut child)) = stack.last_mut() {
            if *child < deps[node].len() {
                let next = deps[node][*child];
                *child += 1;
                match colour[next] {
                    Colour::White => {
                        colour[next] = Colour::Grey;
                        parent[next] = node;
                        stack.push((next, 0));
                    }
                    Colour::Grey => {
                        // Found a back edge: reconstruct the cycle.
                        let mut cycle = vec![channels[next]];
                        let mut cur = node;
                        while cur != next {
                            cycle.push(channels[cur]);
                            cur = parent[cur];
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Colour::Black => {}
                }
            } else {
                colour[node] = Colour::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HopWeights;
    use noc_topology::{hfb_mesh, RowPlacement};

    const W: HopWeights = HopWeights::PAPER;

    /// Whether the DOR routing over `topology` is deadlock-free (acyclic
    /// CDG).
    fn is_deadlock_free(topology: &MeshTopology, weights: HopWeights) -> bool {
        let router = DorRouter::new(topology, weights);
        channel_dependency_cycle(topology, &router).is_none()
    }

    #[test]
    fn plain_mesh_is_deadlock_free() {
        assert!(is_deadlock_free(&MeshTopology::mesh(4), W));
        assert!(is_deadlock_free(&MeshTopology::mesh(8), W));
    }

    #[test]
    fn paper_solution_is_deadlock_free() {
        let row =
            RowPlacement::with_links(8, [(1, 3), (3, 7), (0, 3), (3, 6), (0, 2), (4, 7)]).unwrap();
        assert!(is_deadlock_free(&MeshTopology::uniform(8, &row), W));
    }

    #[test]
    fn hfb_is_deadlock_free() {
        assert!(is_deadlock_free(&hfb_mesh(8), W));
    }

    #[test]
    fn cycle_detector_finds_synthetic_cycle() {
        // Sanity-check the detector itself on a hand-built cyclic graph by
        // exercising the internal DFS through a crafted dependency set.
        // A ring of 3 "channels" 0 -> 1 -> 2 -> 0 must be reported.
        // (Exercised indirectly: the public API only sees real topologies,
        // where DOR is cycle-free, so here we check detection logic via a
        // tiny standalone DFS replica over the same algorithm.)
        let deps = [vec![1usize], vec![2], vec![0]];
        let mut colour = [0u8; 3]; // 0 white, 1 grey, 2 black
        let mut found = false;
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        colour[0] = 1;
        while let Some(&mut (node, ref mut child)) = stack.last_mut() {
            if *child < deps[node].len() {
                let next = deps[node][*child];
                *child += 1;
                match colour[next] {
                    0 => {
                        colour[next] = 1;
                        stack.push((next, 0));
                    }
                    1 => {
                        found = true;
                        break;
                    }
                    _ => {}
                }
            } else {
                colour[node] = 2;
                stack.pop();
            }
        }
        assert!(found);
    }
}
