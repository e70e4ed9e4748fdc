//! The batch runner: many independent simulations packed into lockstep
//! passes. A figure's (scheme × benchmark) cells and every phase of every
//! scenario in a manifest go through [`simulate_many`].

use crate::batch::BatchSimulator;
use crate::config::SimConfig;
use crate::network::NetTables;
use crate::stats::SimStats;
use noc_routing::{DorRouter, HopWeights};
use noc_topology::MeshTopology;
use noc_traffic::Workload;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};

/// Replicas per lockstep pass of [`simulate_many`].
pub const LOCKSTEP_LANES: usize = 8;

/// Runs every `(topology, workload, config)` job and returns `keep` of its
/// statistics, in job order. Each job's statistics equal
/// `Simulator::new(topology, workload, config).run()`, whatever the worker
/// count and whatever else the batch holds: lanes never interact.
///
/// Jobs that share a topology, a VC count and hop weights form one group
/// and one set of [`NetTables`]. Each group is packed [`LOCKSTEP_LANES`]
/// jobs at a time into [`BatchSimulator`] passes, and the passes are fanned
/// over `workers` threads (`0` = one per core). A group's tables are built
/// by the first pass that needs them and freed once no pass holds them, so
/// at most one set per worker is alive. `keep` runs as each pass finishes;
/// a caller that needs a few fields drops the rest (the per-router
/// activity counters) before the next pass starts.
pub fn simulate_many<T, F>(
    jobs: Vec<(&MeshTopology, Workload, SimConfig)>,
    workers: usize,
    keep: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(SimStats) -> T + Sync,
{
    let total = jobs.len();
    // Groups in order of first appearance, each its jobs in job order.
    let mut index: HashMap<(&MeshTopology, usize, HopWeights), usize> = HashMap::new();
    let mut topologies: Vec<&MeshTopology> = Vec::new();
    let mut groups: Vec<Vec<(usize, Workload, SimConfig)>> = Vec::new();
    for (i, (topology, workload, config)) in jobs.into_iter().enumerate() {
        let key = (topology, config.vcs_per_port, config.weights);
        let g = *index.entry(key).or_insert_with(|| {
            topologies.push(topology);
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push((i, workload, config));
    }
    let mut passes = Vec::with_capacity(total.div_ceil(LOCKSTEP_LANES));
    for (g, members) in groups.into_iter().enumerate() {
        let mut members = members.into_iter().peekable();
        while members.peek().is_some() {
            passes.push((g, members.by_ref().take(LOCKSTEP_LANES).collect::<Vec<_>>()));
        }
    }
    let tables: Vec<Mutex<Weak<NetTables>>> = topologies.iter().map(|_| Mutex::default()).collect();

    // Each worker holds the tables of the group it ran last: passes come
    // group by group, so a group's tables stay alive until its last pass
    // is claimed, and are built once whatever the worker count.
    let done = noc_par::par_map_with(
        passes,
        workers,
        || None::<(usize, Arc<NetTables>)>,
        |held, (g, pass)| {
            let shared = match held {
                Some((h, t)) if *h == g => Arc::clone(t),
                _ => {
                    let t = group_tables(&tables[g], topologies[g], &pass[0].2);
                    *held = Some((g, Arc::clone(&t)));
                    t
                }
            };
            let (order, replicas): (Vec<usize>, Vec<_>) =
                pass.into_iter().map(|(i, w, c)| (i, (w, c))).unzip();
            let stats = BatchSimulator::with_tables(shared, replicas).run();
            order
                .into_iter()
                .zip(stats.into_iter().map(&keep))
                .collect::<Vec<_>>()
        },
    );

    let mut out: Vec<Option<T>> = (0..total).map(|_| None).collect();
    for (i, kept) in done.into_iter().flatten() {
        out[i] = Some(kept);
    }
    out.into_iter()
        .map(|kept| kept.expect("every job simulated"))
        .collect()
}

/// The group's tables: the live set if a pass still holds one, else a
/// fresh build that the group's later passes share.
fn group_tables(
    cell: &Mutex<Weak<NetTables>>,
    topology: &MeshTopology,
    config: &SimConfig,
) -> Arc<NetTables> {
    let mut live = cell.lock().expect("tables cell poisoned");
    if let Some(tables) = live.upgrade() {
        return tables;
    }
    let dor = DorRouter::new(topology, config.weights);
    let tables = Arc::new(NetTables::build(topology, &dor, config.vcs_per_port));
    *live = Arc::downgrade(&tables);
    tables
}
