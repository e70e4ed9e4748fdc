//! Synthetic traffic patterns.
//!
//! Destinations are defined over the flat router id space of an `n × n`
//! mesh (`id = y·n + x`). Bit-indexed patterns (bit-reverse, bit-complement,
//! shuffle) require the router count to be a power of two, which every
//! `2^k × 2^k` mesh satisfies.

/// A synthetic spatial traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SyntheticPattern {
    /// Every destination (other than the source) equally likely — UR.
    #[default]
    UniformRandom,
    /// `(x, y)` sends to `(y, x)` — TP.
    Transpose,
    /// The flat id's bits reversed — BR.
    BitReverse,
    /// The flat id's bits complemented.
    BitComplement,
    /// The flat id rotated left by one bit (perfect shuffle).
    Shuffle,
    /// A fraction of traffic targets a fixed set of hotspot routers (the
    /// memory-controller corners by default); the rest is uniform.
    Hotspot {
        /// Probability mass sent to the hotspot set (0..=1).
        weight: f64,
    },
    /// Uniform over the source's mesh-adjacent routers.
    NearNeighbour,
}

impl SyntheticPattern {
    /// Wire name of each pattern, the one table the daemon protocol, the
    /// CLI and scenario manifests read. `hs` is the hotspot pattern at
    /// its default weight.
    pub const NAMES: [(&'static str, SyntheticPattern); 7] = [
        ("ur", SyntheticPattern::UniformRandom),
        ("tp", SyntheticPattern::Transpose),
        ("br", SyntheticPattern::BitReverse),
        ("bc", SyntheticPattern::BitComplement),
        ("sh", SyntheticPattern::Shuffle),
        ("hs", SyntheticPattern::Hotspot { weight: 0.4 }),
        ("nn", SyntheticPattern::NearNeighbour),
    ];

    /// The pattern a wire name denotes (names are lowercase).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::NAMES.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// The pattern's wire name; a hotspot of any weight is `hs`.
    pub fn name(&self) -> &'static str {
        let variant = |p: &Self| std::mem::discriminant(p);
        let row = Self::NAMES.iter().find(|r| variant(&r.1) == variant(self));
        row.expect("every pattern variant has a row in NAMES").0
    }

    /// Short label used in experiment tables ("UR", "TP", "BR", ...).
    pub fn label(&self) -> &'static str {
        match self {
            SyntheticPattern::UniformRandom => "UR",
            SyntheticPattern::Transpose => "TP",
            SyntheticPattern::BitReverse => "BR",
            SyntheticPattern::BitComplement => "BC",
            SyntheticPattern::Shuffle => "SH",
            SyntheticPattern::Hotspot { .. } => "HS",
            SyntheticPattern::NearNeighbour => "NN",
        }
    }

    /// The deterministic partner of `src` for permutation patterns, or
    /// `None` for distribution patterns (UR, hotspot, near-neighbour).
    pub fn permutation_target(&self, src: usize, n: usize) -> Option<usize> {
        let routers = n * n;
        match self {
            SyntheticPattern::Transpose => {
                let (x, y) = (src % n, src / n);
                Some(x * n + y)
            }
            SyntheticPattern::BitReverse => {
                let bits = routers.trailing_zeros();
                debug_assert!(routers.is_power_of_two());
                Some((src.reverse_bits() >> (usize::BITS - bits)) & (routers - 1))
            }
            SyntheticPattern::BitComplement => Some(!src & (routers - 1)),
            SyntheticPattern::Shuffle => {
                let bits = routers.trailing_zeros();
                Some(((src << 1) | (src >> (bits - 1))) & (routers - 1))
            }
            _ => None,
        }
    }

    /// The default hotspot set: the four corner routers, standing in for
    /// edge memory controllers.
    pub fn default_hotspots(n: usize) -> Vec<usize> {
        vec![0, n - 1, n * (n - 1), n * n - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_swaps_coordinates() {
        let p = SyntheticPattern::Transpose;
        // (1, 2) on 4x4: id 9 -> (2, 1): id 6.
        assert_eq!(p.permutation_target(2 * 4 + 1, 4), Some(4 + 2));
        // Diagonal maps to itself.
        assert_eq!(p.permutation_target(5, 4), Some(5));
    }

    #[test]
    fn bit_reverse_is_involutive() {
        let p = SyntheticPattern::BitReverse;
        for n in [4usize, 8] {
            for src in 0..n * n {
                let dst = p.permutation_target(src, n).unwrap();
                assert_eq!(p.permutation_target(dst, n), Some(src));
            }
        }
        // 6-bit example on 8x8: 0b000001 -> 0b100000.
        assert_eq!(p.permutation_target(1, 8), Some(32));
    }

    #[test]
    fn bit_complement_is_involutive_and_maximal_distance() {
        let p = SyntheticPattern::BitComplement;
        assert_eq!(p.permutation_target(0, 8), Some(63));
        assert_eq!(p.permutation_target(63, 8), Some(0));
        for src in 0..64 {
            let dst = p.permutation_target(src, 8).unwrap();
            assert_eq!(p.permutation_target(dst, 8), Some(src));
        }
    }

    #[test]
    fn shuffle_rotates_bits() {
        let p = SyntheticPattern::Shuffle;
        // 6-bit space: 0b100000 -> 0b000001.
        assert_eq!(p.permutation_target(32, 8), Some(1));
        assert_eq!(p.permutation_target(3, 8), Some(6));
    }

    #[test]
    fn permutations_are_bijective() {
        for p in [
            SyntheticPattern::Transpose,
            SyntheticPattern::BitReverse,
            SyntheticPattern::BitComplement,
            SyntheticPattern::Shuffle,
        ] {
            let mut seen = [false; 64];
            for src in 0..64 {
                let dst = p.permutation_target(src, 8).unwrap();
                assert!(!seen[dst], "{p:?} not a bijection");
                seen[dst] = true;
            }
        }
    }

    #[test]
    fn distribution_patterns_have_no_fixed_target() {
        assert_eq!(
            SyntheticPattern::UniformRandom.permutation_target(5, 4),
            None
        );
        assert_eq!(
            SyntheticPattern::Hotspot { weight: 0.4 }.permutation_target(5, 4),
            None
        );
    }

    #[test]
    fn default_hotspots_are_corners() {
        assert_eq!(SyntheticPattern::default_hotspots(8), vec![0, 7, 56, 63]);
    }
}
