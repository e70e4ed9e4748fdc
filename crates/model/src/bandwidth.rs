//! Bisection-bandwidth budgeting (Eq. 3 / Eq. 4 and §4.1).
//!
//! The bisection budget fixes the product `b·C`: with `C` links at every
//! cross-section of an `n`-router row, each link is `b = B/(C·n)` bits wide.
//! Normalising to the baseline mesh (whose single-link cross-sections carry
//! `base_flit_bits`-wide links), `b(C) = base_flit_bits / C`. Because flit
//! widths are power-of-two divisors of the packet sizes, only a handful of
//! `C` values are admissible per network size (§4.1: 1, 2, 4 for 4×4 and
//! 1, 2, 4, 8, 16 for 8×8).

/// Bandwidth budget for an `n × n` network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkBudget {
    /// Network side length `n`.
    pub n: usize,
    /// Flit width (bits) of the baseline mesh at `C = 1` — 256 in the
    /// paper's main evaluation (§5.1); 128 and 512 for Fig. 11's 2 KGb/s and
    /// 8 KGb/s settings at 1 GHz.
    pub base_flit_bits: u32,
}

impl LinkBudget {
    /// The paper's main evaluation budget for a given network size.
    pub fn paper(n: usize) -> Self {
        LinkBudget {
            n,
            base_flit_bits: 256,
        }
    }

    /// Maximum useful link limit `C_full = ⌈n/2⌉·⌊n/2⌋ = n²/4` (Eq. 4):
    /// full row connectivity saturates the middle cross-section.
    fn c_full(&self) -> usize {
        (self.n / 2) * self.n.div_ceil(2)
    }

    /// Flit width `b(C)` in bits forced by link limit `C`, or `None` when the
    /// budget cannot be split `C` ways into power-of-two flits of >= 1 bit.
    pub fn flit_bits(&self, c_limit: usize) -> Option<u32> {
        if c_limit == 0 || !c_limit.is_power_of_two() {
            return None;
        }
        let c = c_limit as u32;
        if c > self.base_flit_bits {
            return None;
        }
        Some(self.base_flit_bits / c)
    }

    /// All admissible link limits in increasing order: powers of two from 1
    /// to `C_full` that still leave a positive flit width (§4.1's list).
    pub fn link_limits(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut c = 1usize;
        while c <= self.c_full() {
            if self.flit_bits(c).is_some() {
                out.push(c);
            }
            c *= 2;
        }
        out
    }

    /// Total bisection bandwidth in bits/cycle, counting both directions of
    /// the `n` per-row links (`2·b·C·n`). At 1 GHz this is Gbit/s — the unit
    /// Fig. 11 quotes (8×8 with 128-bit base flits ⇒ 2 KGb/s).
    pub fn bisection_bits_per_cycle(&self) -> u64 {
        2 * self.base_flit_bits as u64 * self.n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_full_matches_eq4() {
        assert_eq!(LinkBudget::paper(4).c_full(), 4);
        assert_eq!(LinkBudget::paper(8).c_full(), 16);
        assert_eq!(LinkBudget::paper(16).c_full(), 64);
        // Odd rows: ⌈n/2⌉·⌊n/2⌋.
        assert_eq!(
            LinkBudget {
                n: 5,
                base_flit_bits: 256
            }
            .c_full(),
            6
        );
    }

    #[test]
    fn paper_link_limit_lists() {
        // §4.1: C in {1, 2, 4} for 4×4 and {1, 2, 4, 8, 16} for 8×8.
        assert_eq!(LinkBudget::paper(4).link_limits(), vec![1, 2, 4]);
        assert_eq!(LinkBudget::paper(8).link_limits(), vec![1, 2, 4, 8, 16]);
        assert_eq!(
            LinkBudget::paper(16).link_limits(),
            vec![1, 2, 4, 8, 16, 32, 64]
        );
    }

    #[test]
    fn flit_width_halves_as_links_double() {
        let budget = LinkBudget::paper(8);
        assert_eq!(budget.flit_bits(1), Some(256));
        assert_eq!(budget.flit_bits(2), Some(128));
        assert_eq!(budget.flit_bits(4), Some(64));
        assert_eq!(budget.flit_bits(16), Some(16));
        assert_eq!(budget.flit_bits(3), None); // not a power of two
        assert_eq!(budget.flit_bits(0), None);
        assert_eq!(budget.flit_bits(512), None); // flit would vanish
    }

    #[test]
    fn fig11_bandwidth_settings() {
        // 8×8 at 1 GHz: 128-bit base flit ⇔ 2 KGb/s, 512-bit ⇔ 8 KGb/s.
        let low = LinkBudget {
            n: 8,
            base_flit_bits: 128,
        };
        let high = LinkBudget {
            n: 8,
            base_flit_bits: 512,
        };
        assert_eq!(low.bisection_bits_per_cycle(), 2048);
        assert_eq!(high.bisection_bits_per_cycle(), 8192);
    }
}
