//! Measurement results and activity accounting.

/// Per-router switching-activity counters over the measurement window.
/// These are the inputs to the `noc-power` dynamic-power model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActivityCounters {
    /// Flits written into link-input VC buffers.
    pub buffer_writes: u64,
    /// Flits read out of link-input VC buffers.
    pub buffer_reads: u64,
    /// Flits through the crossbar (every SA/ST win, incl. inject/eject).
    pub crossbar_traversals: u64,
    /// Flit·segment products on outgoing links (energy scales with length).
    pub link_flit_segments: u64,
    /// VC allocations performed.
    pub vc_allocations: u64,
}

impl ActivityCounters {
    /// Appends the five counters to a snapshot payload.
    pub fn write_snapshot(&self, w: &mut noc_snapshot::Writer) {
        w.write_u64(self.buffer_writes);
        w.write_u64(self.buffer_reads);
        w.write_u64(self.crossbar_traversals);
        w.write_u64(self.link_flit_segments);
        w.write_u64(self.vc_allocations);
    }

    /// Reads the five counters back from a snapshot payload.
    pub fn read_snapshot(
        r: &mut noc_snapshot::Reader,
    ) -> Result<Self, noc_snapshot::SnapshotError> {
        Ok(ActivityCounters {
            buffer_writes: r.read_u64()?,
            buffer_reads: r.read_u64()?,
            crossbar_traversals: r.read_u64()?,
            link_flit_segments: r.read_u64()?,
            vc_allocations: r.read_u64()?,
        })
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &ActivityCounters) {
        self.buffer_writes += other.buffer_writes;
        self.buffer_reads += other.buffer_reads;
        self.crossbar_traversals += other.crossbar_traversals;
        self.link_flit_segments += other.link_flit_segments;
        self.vc_allocations += other.vc_allocations;
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimStats {
    /// Cycles simulated in total (warmup + measurement + drain).
    pub cycles: u64,
    /// Length of the measurement window in cycles.
    pub measure_cycles: u64,
    /// Number of network nodes.
    pub nodes: usize,
    /// Packets created during the measurement window.
    pub measured_packets: u64,
    /// Measured packets fully delivered before the run ended.
    pub completed_packets: u64,
    /// Mean creation-to-tail-delivery latency of completed measured packets.
    pub avg_packet_latency: f64,
    /// Mean creation-to-head-delivery latency.
    pub avg_head_latency: f64,
    /// Maximum packet latency observed among measured packets.
    pub max_packet_latency: u64,
    /// Median packet latency of completed measured packets.
    pub p50_latency: f64,
    /// 95th-percentile packet latency.
    pub p95_latency: f64,
    /// 99th-percentile packet latency.
    pub p99_latency: f64,
    /// Packets (any) ejected during the measurement window, per node per
    /// cycle — the accepted throughput.
    pub accepted_throughput: f64,
    /// Offered injection rate (packets per node per cycle).
    pub offered_rate: f64,
    /// Mean hop contention: extra cycles beyond zero-load, per completed
    /// packet (diagnostic; the paper reports <1 cycle per hop for PARSEC).
    pub avg_flits_per_packet: f64,
    /// Per-router activity during the measurement window.
    pub activity: Vec<ActivityCounters>,
    /// Whether every measured packet drained before the cycle cap.
    pub drained: bool,
}

impl SimStats {
    /// Stable FNV-1a fingerprint of every field, including the exact bit
    /// patterns of the floating-point aggregates and every per-router
    /// activity counter. Two runs with equal fingerprints produced
    /// bit-identical statistics — the contract the golden regression tests
    /// and the sweep determinism tests pin the engine against.
    pub fn fingerprint(&self) -> u64 {
        // Untagged: this digest predates domain tagging and its historical
        // values are pinned by the golden regression tests.
        let mut h = noc_model::fingerprint::Fnv1a::new();
        h.write_u64(self.cycles);
        h.write_u64(self.measure_cycles);
        h.write_u64(self.nodes as u64);
        h.write_u64(self.measured_packets);
        h.write_u64(self.completed_packets);
        h.write_f64(self.avg_packet_latency);
        h.write_f64(self.avg_head_latency);
        h.write_u64(self.max_packet_latency);
        h.write_f64(self.p50_latency);
        h.write_f64(self.p95_latency);
        h.write_f64(self.p99_latency);
        h.write_f64(self.accepted_throughput);
        h.write_f64(self.offered_rate);
        h.write_f64(self.avg_flits_per_packet);
        for a in &self.activity {
            h.write_u64(a.buffer_writes);
            h.write_u64(a.buffer_reads);
            h.write_u64(a.crossbar_traversals);
            h.write_u64(a.link_flit_segments);
            h.write_u64(a.vc_allocations);
        }
        h.write_u64(self.drained as u64);
        h.finish()
    }

    /// Appends every field to a snapshot payload (the exact float bit
    /// patterns, so a round trip preserves [`SimStats::fingerprint`]).
    pub fn write_snapshot(&self, w: &mut noc_snapshot::Writer) {
        w.write_u64(self.cycles);
        w.write_u64(self.measure_cycles);
        w.write_u64(self.nodes as u64);
        w.write_u64(self.measured_packets);
        w.write_u64(self.completed_packets);
        w.write_f64(self.avg_packet_latency);
        w.write_f64(self.avg_head_latency);
        w.write_u64(self.max_packet_latency);
        w.write_f64(self.p50_latency);
        w.write_f64(self.p95_latency);
        w.write_f64(self.p99_latency);
        w.write_f64(self.accepted_throughput);
        w.write_f64(self.offered_rate);
        w.write_f64(self.avg_flits_per_packet);
        w.write_len(self.activity.len());
        for a in &self.activity {
            a.write_snapshot(w);
        }
        w.write_bool(self.drained);
    }

    /// Reads a full statistics record back from a snapshot payload.
    pub fn read_snapshot(
        r: &mut noc_snapshot::Reader,
    ) -> Result<Self, noc_snapshot::SnapshotError> {
        let cycles = r.read_u64()?;
        let measure_cycles = r.read_u64()?;
        let nodes = r.read_u64()? as usize;
        let measured_packets = r.read_u64()?;
        let completed_packets = r.read_u64()?;
        let avg_packet_latency = r.read_f64()?;
        let avg_head_latency = r.read_f64()?;
        let max_packet_latency = r.read_u64()?;
        let p50_latency = r.read_f64()?;
        let p95_latency = r.read_f64()?;
        let p99_latency = r.read_f64()?;
        let accepted_throughput = r.read_f64()?;
        let offered_rate = r.read_f64()?;
        let avg_flits_per_packet = r.read_f64()?;
        let activity_len = r.read_len(40)?;
        let mut activity = Vec::with_capacity(activity_len);
        for _ in 0..activity_len {
            activity.push(ActivityCounters::read_snapshot(r)?);
        }
        let drained = r.read_bool()?;
        Ok(SimStats {
            cycles,
            measure_cycles,
            nodes,
            measured_packets,
            completed_packets,
            avg_packet_latency,
            avg_head_latency,
            max_packet_latency,
            p50_latency,
            p95_latency,
            p99_latency,
            accepted_throughput,
            offered_rate,
            avg_flits_per_packet,
            activity,
            drained,
        })
    }

    /// Total activity across all routers.
    pub fn total_activity(&self) -> ActivityCounters {
        let mut total = ActivityCounters::default();
        for a in &self.activity {
            total.add(a);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut a = ActivityCounters {
            buffer_writes: 1,
            buffer_reads: 2,
            crossbar_traversals: 3,
            link_flit_segments: 4,
            vc_allocations: 5,
        };
        a.add(&a.clone());
        assert_eq!(a.buffer_writes, 2);
        assert_eq!(a.link_flit_segments, 8);
    }
}
