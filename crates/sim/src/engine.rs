//! [`Simulator`]: one cycle-level run of one workload (or recorded trace)
//! on one topology — a one-lane [`BatchSimulator`]. The engine, its
//! snapshot codec and its state hash live in [`crate::batch`]; this type
//! only fixes the lane count at one and reports the lane's own verdict.

use crate::batch::{BatchSimulator, Source};
use crate::config::SimConfig;
use crate::network::NetTables;
use crate::stats::SimStats;
use noc_routing::DorRouter;
use noc_snapshot::SnapshotError;
use noc_topology::MeshTopology;
use noc_traffic::{Trace, Workload};
use std::sync::Arc;

/// A cycle-level simulation of one workload on one topology.
pub struct Simulator {
    batch: BatchSimulator,
}

impl Simulator {
    /// Builds a simulator for a topology and workload. The DOR routing solve
    /// is performed internally with the config's hop weights.
    ///
    /// # Panics
    /// Panics if the workload's largest packet class would exceed
    /// [`crate::MAX_PACKET_FLITS`] flits at the config's flit width (the
    /// trace constructors apply the same limit to the largest event).
    pub fn new(topology: &MeshTopology, workload: Workload, config: SimConfig) -> Self {
        let dor = DorRouter::new(topology, config.weights);
        Self::with_router(topology, &dor, workload, config)
    }

    /// Builds a simulator reusing an existing routing solve.
    fn with_router(
        topology: &MeshTopology,
        dor: &DorRouter,
        workload: Workload,
        config: SimConfig,
    ) -> Self {
        let tables = Arc::new(NetTables::build(topology, dor, config.vcs_per_port));
        Self::with_tables(tables, workload, config)
    }

    /// Builds a simulator over pre-built shared network tables (see
    /// [`NetTables`]): the routing solve and port wiring are reused
    /// read-only, so a sweep or batch builds them once per topology.
    pub fn with_tables(tables: Arc<NetTables>, workload: Workload, config: SimConfig) -> Self {
        Self::with_source(tables, Source::Workload(workload), config)
    }

    /// Builds a simulator that replays a recorded [`Trace`] cycle-exactly
    /// (the packet stream is deterministic; the RNG only breaks arbitration
    /// ties, of which the engine has none — runs are fully reproducible).
    pub fn from_trace(topology: &MeshTopology, trace: Trace, config: SimConfig) -> Self {
        assert_eq!(
            trace.side(),
            topology.side(),
            "trace and topology sizes must match"
        );
        let dor = DorRouter::new(topology, config.weights);
        let tables = Arc::new(NetTables::build(topology, &dor, config.vcs_per_port));
        Self::with_source(tables, Source::Trace { trace, next: 0 }, config)
    }

    fn with_source(tables: Arc<NetTables>, source: Source, config: SimConfig) -> Self {
        Simulator {
            batch: BatchSimulator::with_sources(tables, vec![(source, config)]),
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.batch.cycle()
    }

    /// Runs the full warmup + measurement + drain schedule and returns the
    /// collected statistics.
    pub fn run(self) -> SimStats {
        self.finish()
    }

    /// Runs until the cycle counter reaches `target_cycle` or the schedule
    /// completes, whichever comes first. Returns `Some(drained)` once the
    /// run is over (no further cycles are simulated after that point), and
    /// `None` at an intermediate cycle boundary — a safe point to call
    /// [`Simulator::snapshot`]. Interleaving `run_until` calls at any cycle
    /// granularity is bit-identical to [`Simulator::run`].
    pub fn run_until(&mut self, target_cycle: u64) -> Option<bool> {
        self.batch.run_until(target_cycle);
        self.batch.lane_verdict(0)
    }

    /// Runs the remaining schedule to completion and returns the collected
    /// statistics. `run_until` followed by `finish` (possibly across a
    /// snapshot/restore boundary) is bit-identical to [`Simulator::run`].
    pub fn finish(self) -> SimStats {
        self.batch.run().pop().expect("one lane")
    }

    /// Rolling FNV-1a digest of the complete dynamic engine state at the
    /// current cycle boundary; a snapshot/restore round trip preserves it
    /// exactly.
    pub fn state_hash(&self) -> u64 {
        self.batch.state_hash()
    }

    /// Serializes the complete dynamic engine state at the current cycle
    /// boundary into a versioned, digest-protected one-lane snapshot (kind
    /// [`crate::BATCH_KIND`]). Restoring with the same topology, source,
    /// and config and running to completion is bit-identical to never
    /// having stopped. Call only between cycles — after construction or
    /// [`Simulator::run_until`].
    pub fn snapshot(&self) -> Vec<u8> {
        self.batch.snapshot()
    }

    /// Rebuilds a simulator from a [`Simulator::snapshot`], re-solving the
    /// routing for `topology`. The topology, workload, and config must be
    /// the ones the snapshot was taken under (validated by fingerprint and
    /// dimension checks). Running the restored simulator to completion is
    /// bit-identical to the uninterrupted run.
    pub fn restore(
        topology: &MeshTopology,
        workload: Workload,
        config: SimConfig,
        bytes: &[u8],
    ) -> Result<Self, SnapshotError> {
        Self::new(topology, workload, config).apply_snapshot(bytes)
    }

    /// Like [`Simulator::restore`], but over pre-built shared network
    /// tables (the [`Simulator::with_tables`] counterpart).
    pub fn restore_with_tables(
        tables: Arc<NetTables>,
        workload: Workload,
        config: SimConfig,
        bytes: &[u8],
    ) -> Result<Self, SnapshotError> {
        Self::with_tables(tables, workload, config).apply_snapshot(bytes)
    }

    /// Like [`Simulator::restore`], but for a trace-replay simulator (the
    /// [`Simulator::from_trace`] counterpart). The replay cursor is part of
    /// the snapshot.
    pub fn restore_trace(
        topology: &MeshTopology,
        trace: Trace,
        config: SimConfig,
        bytes: &[u8],
    ) -> Result<Self, SnapshotError> {
        Self::from_trace(topology, trace, config).apply_snapshot(bytes)
    }

    fn apply_snapshot(self, bytes: &[u8]) -> Result<Self, SnapshotError> {
        Ok(Simulator {
            batch: self.batch.apply_snapshot(bytes)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::{LatencyModel, PacketMix};
    use noc_routing::HopWeights;
    use noc_topology::RowPlacement;
    use noc_traffic::{SyntheticPattern, TrafficMatrix};

    fn workload(n: usize, rate: f64) -> Workload {
        Workload::new(
            TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, n),
            rate,
            PacketMix::paper(),
        )
    }

    #[test]
    fn zero_rate_run_is_empty() {
        let topo = MeshTopology::mesh(4);
        let sim = Simulator::new(&topo, workload(4, 0.0), SimConfig::latency_run(256, 1));
        let stats = sim.run();
        assert_eq!(stats.measured_packets, 0);
        assert_eq!(stats.completed_packets, 0);
        assert!(stats.drained);
        assert_eq!(stats.total_activity().crossbar_traversals, 0);
    }

    #[test]
    fn low_load_latency_matches_analytic_zero_load() {
        // At 0.1% injection the mesh is effectively contention-free: the
        // measured mean packet latency must match the analytic
        // L_D,avg + L_S,avg − 1 within a small contention epsilon.
        let topo = MeshTopology::mesh(4);
        let mut config = SimConfig::latency_run(256, 3);
        config.warmup_cycles = 2_000;
        config.measure_cycles = 30_000;
        let stats = Simulator::new(&topo, workload(4, 0.001), config).run();
        assert!(stats.drained);
        assert!(stats.measured_packets > 100, "too few samples");

        let dor = DorRouter::new(&topo, HopWeights::PAPER);
        let model = LatencyModel::paper();
        // UR excludes self-pairs; recompute the analytic mean over src != dst.
        let mut head = 0.0;
        let mut pairs = 0;
        for s in 0..16 {
            for d in 0..16 {
                if s != d {
                    head += model.head_pair(&dor, s, d) as f64;
                    pairs += 1;
                }
            }
        }
        let analytic = head / pairs as f64 + PacketMix::paper().serialization_latency(256) - 1.0;
        let diff = (stats.avg_packet_latency - analytic).abs();
        assert!(
            diff < 0.5,
            "sim {} vs analytic {analytic}",
            stats.avg_packet_latency
        );
    }

    #[test]
    fn single_pair_latency_is_exact() {
        // A deterministic single flow at negligible rate: latency must equal
        // the closed form exactly (no contention at all).
        let n = 4;
        let mut rates = vec![0.0; 256];
        rates[3] = 1.0; // router 0 -> router 3 (three X hops)
        let matrix = TrafficMatrix::from_rates(n, rates);
        let w = Workload::new(matrix, 0.002, PacketMix::uniform(256));
        let topo = MeshTopology::mesh(n);
        let stats = Simulator::new(&topo, w, SimConfig::latency_run(256, 9)).run();
        assert!(stats.measured_packets > 10);
        // Head: 3 hops · 4 + T_r = 15; single-flit packet => tail == head.
        assert!(
            (stats.avg_packet_latency - 15.0).abs() < 1e-9,
            "got {}",
            stats.avg_packet_latency
        );
        assert_eq!(stats.max_packet_latency, 15);
    }

    #[test]
    fn express_link_lowers_simulated_latency() {
        let n = 8;
        let mesh = MeshTopology::mesh(n);
        let row = RowPlacement::with_links(8, [(0, 3), (3, 7)]).unwrap();
        let express = MeshTopology::uniform(n, &row);
        let config = SimConfig::latency_run(256, 11);
        let mesh_stats = Simulator::new(&mesh, workload(n, 0.005), config).run();
        let express_stats = Simulator::new(&express, workload(n, 0.005), config).run();
        assert!(mesh_stats.drained && express_stats.drained);
        assert!(
            express_stats.avg_packet_latency < mesh_stats.avg_packet_latency,
            "express {} !< mesh {}",
            express_stats.avg_packet_latency,
            mesh_stats.avg_packet_latency
        );
    }

    #[test]
    fn multi_flit_packets_add_serialization() {
        // Same flow, 512-bit packets at 128-bit flits: 4 flits; packet
        // latency = head + 3.
        let n = 4;
        let mut rates = vec![0.0; 256];
        rates[3] = 1.0;
        let matrix = TrafficMatrix::from_rates(n, rates);
        let w = Workload::new(matrix, 0.002, PacketMix::uniform(512));
        let topo = MeshTopology::mesh(n);
        let stats = Simulator::new(&topo, w, SimConfig::latency_run(128, 13)).run();
        assert!(
            (stats.avg_packet_latency - 18.0).abs() < 1e-9,
            "got {}",
            stats.avg_packet_latency
        );
        assert!((stats.avg_flits_per_packet - 4.0).abs() < 1e-12);
    }

    #[test]
    fn conservation_all_measured_packets_drain() {
        let topo = MeshTopology::mesh(4);
        let stats = Simulator::new(&topo, workload(4, 0.05), SimConfig::latency_run(256, 17)).run();
        assert!(stats.drained);
        assert_eq!(stats.completed_packets, stats.measured_packets);
        assert!(stats.measured_packets > 1000);
    }

    #[test]
    fn determinism_same_seed_same_stats() {
        let topo = MeshTopology::mesh(4);
        let a = Simulator::new(&topo, workload(4, 0.02), SimConfig::latency_run(256, 5)).run();
        let b = Simulator::new(&topo, workload(4, 0.02), SimConfig::latency_run(256, 5)).run();
        assert_eq!(a.avg_packet_latency, b.avg_packet_latency);
        assert_eq!(a.measured_packets, b.measured_packets);
        assert_eq!(a.total_activity(), b.total_activity());
    }

    #[test]
    fn run_until_and_finish_match_one_shot_run() {
        let topo = MeshTopology::mesh(4);
        let config = SimConfig::latency_run(256, 7);
        let reference = Simulator::new(&topo, workload(4, 0.03), config).run();

        let mut sim = Simulator::new(&topo, workload(4, 0.03), config);
        // Step in uneven chunks, overshooting the schedule's end.
        let mut target = 97;
        while sim.run_until(target).is_none() {
            target += 1231;
        }
        let stats = sim.finish();
        assert_eq!(stats.fingerprint(), reference.fingerprint());
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let topo = MeshTopology::mesh(4);
        let config = SimConfig::latency_run(256, 31);
        let reference = Simulator::new(&topo, workload(4, 0.04), config).run();

        for cut in [1, 500, 2_000] {
            let mut sim = Simulator::new(&topo, workload(4, 0.04), config);
            sim.run_until(cut);
            let hash_before = sim.state_hash();
            let bytes = sim.snapshot();
            let restored =
                Simulator::restore(&topo, workload(4, 0.04), config, &bytes).expect("restore");
            assert_eq!(restored.state_hash(), hash_before, "hash at cut {cut}");
            assert_eq!(restored.cycle(), cut);
            let stats = restored.finish();
            assert_eq!(
                stats.fingerprint(),
                reference.fingerprint(),
                "resume from cut {cut} diverged"
            );
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_bytes() {
        let topo = MeshTopology::mesh(4);
        let config = SimConfig::latency_run(256, 5);
        let mut sim = Simulator::new(&topo, workload(4, 0.05), config);
        sim.run_until(800);
        let bytes = sim.snapshot();
        let restored = Simulator::restore(&topo, workload(4, 0.05), config, &bytes).unwrap();
        assert_eq!(restored.snapshot(), bytes);
    }

    #[test]
    fn restore_rejects_mismatched_context() {
        let topo = MeshTopology::mesh(4);
        let config = SimConfig::latency_run(256, 5);
        let mut sim = Simulator::new(&topo, workload(4, 0.05), config);
        sim.run_until(100);
        let bytes = sim.snapshot();

        // Wrong config (different seed).
        let other = SimConfig::latency_run(256, 6);
        assert!(matches!(
            Simulator::restore(&topo, workload(4, 0.05), other, &bytes),
            Err(SnapshotError::Mismatch {
                field: "lane config"
            })
        ));
        // Wrong workload (different rate).
        assert!(matches!(
            Simulator::restore(&topo, workload(4, 0.06), config, &bytes),
            Err(SnapshotError::Mismatch {
                field: "lane workload"
            })
        ));
        // Wrong source kind.
        let trace = Trace::new(4, Vec::new());
        assert!(matches!(
            Simulator::restore_trace(&topo, trace, config, &bytes),
            Err(SnapshotError::Mismatch {
                field: "lane source kind"
            })
        ));
    }

    #[test]
    fn trace_snapshot_resumes_replay_cursor() {
        use noc_traffic::TraceEvent;
        let events: Vec<TraceEvent> = (0..40)
            .map(|i| TraceEvent {
                cycle: 5 + 13 * i,
                src: (i % 16) as usize,
                dst: ((i * 7 + 3) % 16) as usize,
                bits: 256,
            })
            .collect();
        let trace = Trace::new(4, events);
        let mut config = SimConfig::latency_run(256, 3);
        config.warmup_cycles = 0;
        config.measure_cycles = 2_000;
        let topo = MeshTopology::mesh(4);
        let reference = Simulator::from_trace(&topo, trace.clone(), config).run();

        let mut sim = Simulator::from_trace(&topo, trace.clone(), config);
        sim.run_until(260);
        let bytes = sim.snapshot();
        let restored = Simulator::restore_trace(&topo, trace, config, &bytes).unwrap();
        let stats = restored.finish();
        assert_eq!(stats.fingerprint(), reference.fingerprint());
    }

    #[test]
    fn state_hash_evolves_and_is_deterministic() {
        let topo = MeshTopology::mesh(4);
        let config = SimConfig::latency_run(256, 11);
        let mut a = Simulator::new(&topo, workload(4, 0.05), config);
        let mut b = Simulator::new(&topo, workload(4, 0.05), config);
        assert_eq!(a.state_hash(), b.state_hash());
        let h0 = a.state_hash();
        a.run_until(300);
        b.run_until(300);
        assert_ne!(a.state_hash(), h0, "hash must track progress");
        assert_eq!(a.state_hash(), b.state_hash(), "same seed, same state");
    }

    #[test]
    fn activity_counters_are_plausible() {
        let topo = MeshTopology::mesh(4);
        let stats = Simulator::new(&topo, workload(4, 0.02), SimConfig::latency_run(256, 23)).run();
        let total = stats.total_activity();
        // Every link arrival is eventually read out.
        assert!(total.buffer_writes > 0);
        // Crossbar counts include injection and ejection traversals, so they
        // exceed buffer reads.
        assert!(total.crossbar_traversals > total.buffer_reads);
        // Mesh links are unit-length: segments == hops taken over links.
        assert!(total.link_flit_segments > 0);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use noc_model::PacketMix;
    use noc_traffic::{SyntheticPattern, TraceEvent, TrafficMatrix};

    #[test]
    fn trace_replay_is_cycle_exact() {
        // A single 2-hop packet injected at cycle 100: latency must be the
        // closed-form 2·4 + 3 = 11 cycles.
        let trace = Trace::new(
            4,
            vec![TraceEvent {
                cycle: 100,
                src: 0,
                dst: 2,
                bits: 128,
            }],
        );
        let mut config = SimConfig::latency_run(256, 1);
        config.warmup_cycles = 0;
        config.measure_cycles = 2_000;
        let stats = Simulator::from_trace(&MeshTopology::mesh(4), trace, config).run();
        assert_eq!(stats.measured_packets, 1);
        assert_eq!(stats.completed_packets, 1);
        assert_eq!(stats.max_packet_latency, 11);
    }

    #[test]
    fn record_then_replay_matches_live_statistics() {
        // Record a workload into a trace, replay it: the replayed run sees
        // the same packet population, so latency statistics agree closely.
        let workload = Workload::new(
            TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, 4),
            0.01,
            PacketMix::paper(),
        );
        let mut config = SimConfig::latency_run(256, 9);
        config.warmup_cycles = 500;
        config.measure_cycles = 8_000;
        let live = Simulator::new(&MeshTopology::mesh(4), workload.clone(), config).run();

        let trace = Trace::record(&workload, 10_000, config.seed);
        let replay = Simulator::from_trace(&MeshTopology::mesh(4), trace, config).run();
        assert!(replay.drained);
        assert!(
            (live.avg_packet_latency - replay.avg_packet_latency).abs() < 1.0,
            "live {} vs replay {}",
            live.avg_packet_latency,
            replay.avg_packet_latency
        );
    }

    #[test]
    fn bursty_trace_queues_and_drains() {
        // 20 packets injected the same cycle at one source: they serialise
        // through the NI but all drain.
        let events = (0..20)
            .map(|i| TraceEvent {
                cycle: 10,
                src: 0,
                dst: 12 + (i % 4) as usize,
                bits: 256,
            })
            .collect();
        let trace = Trace::new(4, events);
        let mut config = SimConfig::latency_run(256, 2);
        config.warmup_cycles = 0;
        config.measure_cycles = 1_000;
        let stats = Simulator::from_trace(&MeshTopology::mesh(4), trace, config).run();
        assert!(stats.drained);
        assert_eq!(stats.completed_packets, 20);
        // Later packets queue behind earlier ones.
        assert!(stats.max_packet_latency > stats.p50_latency as u64);
    }

    /// One packet of `flits` 64-bit flits from router 0 to router 5 of a
    /// 4×4 mesh (two hops), replayed from a one-event trace.
    fn long_packet_run(flits: u32) -> SimStats {
        let trace = Trace::new(
            4,
            vec![TraceEvent {
                cycle: 0,
                src: 0,
                dst: 5,
                bits: flits * 64,
            }],
        );
        let mut config = SimConfig::latency_run(64, 1);
        config.warmup_cycles = 0;
        config.measure_cycles = 10;
        config.drain_cycles_max = 100_000;
        Simulator::from_trace(&MeshTopology::mesh(4), trace, config).run()
    }

    #[test]
    fn longest_packet_keeps_its_head_latency() {
        // The last flit of the longest packet has sequence number 32,767,
        // the top of the packed 15-bit field: it must not read as a head
        // at ejection, so the head latency stays the two-hop 2·4 + 3.
        let stats = long_packet_run(crate::MAX_PACKET_FLITS);
        assert!(stats.drained);
        assert_eq!(stats.completed_packets, 1);
        assert_eq!(stats.avg_head_latency, 11.0);
    }

    #[test]
    #[should_panic(expected = "32768-flit packet limit")]
    fn trace_packets_over_the_flit_limit_are_rejected() {
        long_packet_run(crate::MAX_PACKET_FLITS + 1);
    }

    #[test]
    #[should_panic(expected = "32768-flit packet limit")]
    fn workload_packets_over_the_flit_limit_are_rejected() {
        let workload = Workload::new(
            TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, 4),
            0.01,
            PacketMix::uniform((crate::MAX_PACKET_FLITS + 1) * 64),
        );
        Simulator::new(
            &MeshTopology::mesh(4),
            workload,
            SimConfig::latency_run(64, 1),
        );
    }
}
