//! Workloads: what the cycle-level simulator samples packets from.

use crate::matrix::TrafficMatrix;
use noc_model::PacketMix;
use noc_rng::Rng;

/// A packet to inject: destination and payload size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSpec {
    /// Destination router (flat id).
    pub dst: usize,
    /// Payload size in bits.
    pub bits: u32,
}

/// A complete traffic workload: spatial distribution, temporal intensity,
/// and packet-size population.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    matrix: TrafficMatrix,
    injection_rate: f64,
    mix: PacketMix,
}

impl Workload {
    /// Builds a workload.
    ///
    /// # Panics
    /// Panics unless `0 <= injection_rate <= 1` (packets per node per
    /// cycle — a node can start at most one packet per cycle).
    pub fn new(matrix: TrafficMatrix, injection_rate: f64, mix: PacketMix) -> Self {
        assert!(
            (0.0..=1.0).contains(&injection_rate),
            "injection rate must be in 0..=1 packets/node/cycle"
        );
        Workload {
            matrix,
            injection_rate,
            mix,
        }
    }

    /// The spatial traffic matrix.
    pub fn matrix(&self) -> &TrafficMatrix {
        &self.matrix
    }

    /// Packets per node per cycle offered by every source.
    pub fn injection_rate(&self) -> f64 {
        self.injection_rate
    }

    /// The packet-size population.
    pub fn mix(&self) -> &PacketMix {
        &self.mix
    }

    /// A copy of this workload at a different injection rate (throughput
    /// sweeps hold the matrix and mix fixed while scaling the rate).
    pub fn at_rate(&self, injection_rate: f64) -> Self {
        Workload::new(self.matrix.clone(), injection_rate, self.mix.clone())
    }

    /// Bernoulli injection: samples whether node `src` starts a packet this
    /// cycle, and if so its destination and size.
    pub fn generate<R: Rng>(&self, src: usize, rng: &mut R) -> Option<PacketSpec> {
        if rng.gen::<f64>() >= self.injection_rate {
            return None;
        }
        let dst = self.matrix.sample_destination(src, rng)?;
        Some(PacketSpec {
            dst,
            bits: self.sample_bits(rng),
        })
    }

    /// Samples a packet size from the mix.
    pub fn sample_bits<R: Rng>(&self, rng: &mut R) -> u32 {
        let mut x = rng.gen::<f64>();
        let classes = self.mix.classes();
        for c in classes {
            if x < c.fraction {
                return c.bits;
            }
            x -= c.fraction;
        }
        classes.last().expect("mix is non-empty").bits
    }

    /// Offered load in bits per node per cycle, which tests scale.
    #[cfg(test)]
    fn offered_bits_per_node(&self) -> f64 {
        self.injection_rate * self.mix.mean_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::SyntheticPattern;
    use noc_rng::rngs::SmallRng;
    use noc_rng::SeedableRng;

    fn ur_workload(rate: f64) -> Workload {
        Workload::new(
            TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, 4),
            rate,
            PacketMix::paper(),
        )
    }

    #[test]
    fn injection_rate_is_respected() {
        let w = ur_workload(0.25);
        let mut rng = SmallRng::seed_from_u64(3);
        let trials = 40_000;
        let injected = (0..trials)
            .filter(|_| w.generate(5, &mut rng).is_some())
            .count();
        let rate = injected as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.01, "measured rate {rate}");
    }

    #[test]
    fn zero_rate_never_injects() {
        let w = ur_workload(0.0);
        let mut rng = SmallRng::seed_from_u64(4);
        assert!((0..1000).all(|_| w.generate(0, &mut rng).is_none()));
    }

    #[test]
    fn packet_sizes_follow_the_mix() {
        let w = ur_workload(1.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let trials = 50_000;
        let long = (0..trials)
            .filter(|_| w.sample_bits(&mut rng) == 512)
            .count();
        let frac = long as f64 / trials as f64;
        assert!((frac - 0.2).abs() < 0.01, "long fraction {frac}");
    }

    #[test]
    fn destinations_never_self() {
        let w = ur_workload(1.0);
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..1000 {
            if let Some(spec) = w.generate(7, &mut rng) {
                assert_ne!(spec.dst, 7);
            }
        }
    }

    #[test]
    fn at_rate_scales_offered_load() {
        let w = ur_workload(0.01);
        let w2 = w.at_rate(0.02);
        assert!((w2.offered_bits_per_node() - 2.0 * w.offered_bits_per_node()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "injection rate")]
    fn rejects_super_unit_rates() {
        let _ = ur_workload(1.5);
    }
}
