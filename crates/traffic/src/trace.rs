//! Traffic traces: recorded packet streams for replay.
//!
//! The paper's application-specific flow (§5.6.4) is "first run each
//! benchmark on a baseline network once to collect traffic statistics, then
//! apply the revised scheme". A [`Trace`] is that collection step's output:
//! a time-ordered list of injections that replays cycle-exactly through the
//! simulator, and whose empirical `γ` matrix converges to the recorded
//! workload's.

use crate::workload::Workload;
use noc_rng::rngs::SmallRng;
use noc_rng::SeedableRng;

/// One packet injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Injection cycle.
    pub cycle: u64,
    /// Source router (flat id).
    pub src: usize,
    /// Destination router (flat id).
    pub dst: usize,
    /// Payload size in bits.
    pub bits: u32,
}

/// A time-ordered packet trace over an `n × n` mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    side: usize,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Builds a trace from events, sorting them by cycle (stably: ties keep
    /// their order).
    ///
    /// # Panics
    /// Panics if any endpoint is out of range or a packet is self-addressed.
    pub fn new(side: usize, mut events: Vec<TraceEvent>) -> Self {
        let routers = side * side;
        for e in &events {
            assert!(e.src < routers && e.dst < routers, "endpoint out of range");
            assert!(e.src != e.dst, "self-addressed packet in trace");
            assert!(e.bits > 0, "empty packet in trace");
        }
        events.sort_by_key(|e| e.cycle);
        Trace { side, events }
    }

    /// Mesh side length the trace was recorded on.
    pub fn side(&self) -> usize {
        self.side
    }

    /// The events, cycle-ordered.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of packets in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Last injection cycle (0 for an empty trace).
    pub fn horizon(&self) -> u64 {
        self.events.last().map_or(0, |e| e.cycle)
    }

    /// Records a trace by sampling a workload for `cycles` cycles — the
    /// "collect traffic statistics" step run against a baseline network.
    pub fn record(workload: &Workload, cycles: u64, seed: u64) -> Self {
        let side = workload.matrix().side();
        let nodes = side * side;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for cycle in 0..cycles {
            for src in 0..nodes {
                if let Some(spec) = workload.generate(src, &mut rng) {
                    events.push(TraceEvent {
                        cycle,
                        src,
                        dst: spec.dst,
                        bits: spec.bits,
                    });
                }
            }
        }
        Trace { side, events }
    }

    /// Mean injection rate in packets per node per cycle over the recorded
    /// horizon.
    pub fn mean_rate(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        let horizon = (self.horizon() + 1) as f64;
        self.events.len() as f64 / (horizon * (self.side * self.side) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::TrafficMatrix;
    use crate::patterns::SyntheticPattern;
    use noc_model::PacketMix;

    /// The trace collapsed into an empirical traffic matrix `γ` (packet
    /// counts, row-normalised).
    fn empirical_matrix(trace: &Trace) -> TrafficMatrix {
        let routers = trace.side * trace.side;
        let mut rates = vec![0.0; routers * routers];
        for e in &trace.events {
            rates[e.src * routers + e.dst] += 1.0;
        }
        TrafficMatrix::from_rates(trace.side, rates)
    }

    fn sample_trace() -> Trace {
        Trace::new(
            4,
            vec![
                TraceEvent {
                    cycle: 5,
                    src: 0,
                    dst: 3,
                    bits: 128,
                },
                TraceEvent {
                    cycle: 1,
                    src: 2,
                    dst: 9,
                    bits: 512,
                },
                TraceEvent {
                    cycle: 5,
                    src: 1,
                    dst: 0,
                    bits: 128,
                },
            ],
        )
    }

    #[test]
    fn events_are_cycle_sorted() {
        let t = sample_trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t.events()[0].cycle, 1);
        assert_eq!(t.horizon(), 5);
    }

    #[test]
    fn recorded_trace_matches_workload_statistics() {
        let workload = Workload::new(
            TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, 4),
            0.05,
            PacketMix::paper(),
        );
        let trace = Trace::record(&workload, 20_000, 3);
        assert!(
            (trace.mean_rate() - 0.05).abs() < 0.005,
            "rate {}",
            trace.mean_rate()
        );
        // The empirical matrix approaches the true (uniform) matrix.
        let empirical = empirical_matrix(&trace);
        for src in 0..16 {
            for dst in 0..16 {
                if src == dst {
                    assert_eq!(empirical.rate(src, dst), 0.0);
                } else {
                    // ~1000 samples/source: allow ~4 sigma over 240 cells.
                    assert!(
                        (empirical.rate(src, dst) - 1.0 / 15.0).abs() < 0.033,
                        "rate({src},{dst}) = {}",
                        empirical.rate(src, dst)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-addressed")]
    fn rejects_self_traffic() {
        let _ = Trace::new(
            4,
            vec![TraceEvent {
                cycle: 0,
                src: 1,
                dst: 1,
                bits: 64,
            }],
        );
    }
}
