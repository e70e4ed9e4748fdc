//! Cross-crate property tests: invariants that must hold for *arbitrary*
//! valid placements across the whole stack — routing, simulation, and the
//! analytic model must agree with each other.
//!
//! Cases are generated with the in-repo deterministic PRNG (`noc-rng`)
//! instead of proptest, so the suite runs in hermetic offline builds.

use express_noc::model::{LatencyModel, PacketMix};
use express_noc::placement::{AllPairsObjective, FlipLinks, Objective};
use express_noc::routing::{channel_dependency_cycle, DorRouter, HopWeights};
use express_noc::sim::{SimConfig, Simulator};
use express_noc::topology::{ConnectionMatrix, MeshTopology};
use express_noc::traffic::{SyntheticPattern, TrafficMatrix, Workload};
use noc_rng::rngs::SmallRng;
use noc_rng::{Rng, SeedableRng};

/// Random valid placement on a row of `n` routers (n in 4..=6 keeps the
/// CDG check and simulations CI-sized).
fn small_mesh(rng: &mut SmallRng) -> (MeshTopology, usize) {
    let n = rng.gen_range(4usize..7);
    let c = rng.gen_range(2usize..5);
    let nbits = (c - 1) * (n - 2);
    let bits: Vec<bool> = (0..nbits).map(|_| rng.gen::<bool>()).collect();
    let row = ConnectionMatrix::from_bits(n, c, bits).unwrap().decode();
    (MeshTopology::uniform(n, &row), c)
}

fn for_cases(cases: u64, test_salt: u64, mut body: impl FnMut(&mut SmallRng)) {
    for case in 0..cases {
        let mut rng = SmallRng::seed_from_u64(test_salt ^ (case * 0x9E37_79B9));
        body(&mut rng);
    }
}

/// Any valid placement routes deadlock-free under DOR tables.
#[test]
fn any_valid_placement_is_deadlock_free() {
    for_cases(12, 0xE1, |rng| {
        let (topo, _c) = small_mesh(rng);
        let dor = DorRouter::new(&topo, HopWeights::PAPER);
        assert!(channel_dependency_cycle(&topo, &dor).is_none());
    });
}

/// Conservation: at a safe load every measured packet drains, and the
/// simulated latency is bounded below by the analytic zero-load latency.
#[test]
fn simulation_conserves_and_bounds() {
    for_cases(12, 0xE2, |rng| {
        let (topo, _c) = small_mesh(rng);
        let seed = rng.gen::<u64>();
        let n = topo.side();
        let workload = Workload::new(
            TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, n),
            0.01,
            PacketMix::paper(),
        );
        let mut config = SimConfig::latency_run(64, seed);
        config.warmup_cycles = 500;
        config.measure_cycles = 3_000;
        let stats = Simulator::new(&topo, workload, config).run();
        assert!(stats.drained, "undrained at 1% load");
        assert_eq!(stats.completed_packets, stats.measured_packets);

        if stats.measured_packets > 50 {
            // Zero-load head latency averaged over UR pairs lower-bounds the
            // simulated packet latency (which adds serialization and queuing).
            let dor = DorRouter::new(&topo, HopWeights::PAPER);
            let model = LatencyModel::paper();
            let mut head = 0.0;
            let mut pairs = 0u32;
            let routers = n * n;
            for s in 0..routers {
                for d in 0..routers {
                    if s != d {
                        head += model.head_pair(&dor, s, d) as f64;
                        pairs += 1;
                    }
                }
            }
            let zero_load_head = head / pairs as f64;
            assert!(
                stats.avg_packet_latency > zero_load_head - 1.0,
                "sim {} below zero-load head {}",
                stats.avg_packet_latency,
                zero_load_head
            );
        }
    });
}

/// Every connection matrix reachable by SA bit flips decodes to a valid
/// placement (§4.4.2): local links present in every cut, all cross
/// sections within the bisection limit `C`, express links well-formed,
/// and the decoded row re-encodes losslessly under the same limit.
#[test]
fn sa_reachable_matrices_stay_valid() {
    for_cases(24, 0xE4, |rng| {
        let n = rng.gen_range(4usize..13);
        let c = rng.gen_range(2usize..6);
        let mut matrix = ConnectionMatrix::new(n, c);
        let walk = rng.gen_range(50usize..200);
        for _ in 0..walk {
            matrix.flip_flat(rng.gen_range(0..matrix.bit_count()));
            let row = matrix.decode();
            assert_eq!(row.len(), n);
            row.validate(c)
                .unwrap_or_else(|e| panic!("decoded row invalid for (n={n}, c={c}): {e:?}"));
            assert!(row.is_within_limit(c));
            let sections = row.cross_sections();
            assert_eq!(sections.len(), n - 1);
            for (cut, &width) in sections.iter().enumerate() {
                // The mesh's local link is always present, so every cut
                // carries at least one wire and at most C.
                assert!(
                    (1..=c).contains(&width),
                    "cut {cut} width {width} outside 1..={c} (n={n})"
                );
            }
            for link in row.express_links() {
                assert!(
                    link.is_express(),
                    "non-express link {link:?} in express set"
                );
                assert!(
                    link.a + 2 <= link.b && link.b < n,
                    "link {link:?} out of row"
                );
            }
            // Round trip: a decoded placement must be representable again
            // under the same limit, and re-decode to the same topology.
            let encoded = ConnectionMatrix::encode(&row, c)
                .unwrap_or_else(|| panic!("decoded row not re-encodable (n={n}, c={c})"));
            assert_eq!(encoded.decode(), row);
        }
    });
}

/// The link evaluator, fed each flip's link changes as the annealer
/// feeds it, must stay *bit-identical* to the full all-pairs objective
/// across arbitrary random flip bursts — this is the contract SA relies
/// on when it skips full re-evaluation.
#[test]
fn link_evaluator_matches_full_eval_after_flip_bursts() {
    for_cases(10, 0xE5, |rng| {
        let n = rng.gen_range(4usize..11);
        let c = rng.gen_range(2usize..5);
        let mut matrix = ConnectionMatrix::new(n, c);
        let full = AllPairsObjective::paper();
        let mut links = FlipLinks::try_new(&matrix).unwrap();
        let mut eval = full.link_evaluator(&matrix.decode()).unwrap();
        assert_eq!(
            eval.objective().to_bits(),
            full.eval(&matrix.decode()).to_bits(),
            "fresh evaluator disagrees with full eval (n={n}, c={c})"
        );
        for _ in 0..20 {
            let burst = rng.gen_range(1usize..8);
            let mut incremental = f64::NAN;
            for _ in 0..burst {
                let bit = rng.gen_range(0..matrix.bit_count());
                matrix.flip_flat(bit);
                eval.apply(links.flip(bit).as_slice());
                incremental = eval.objective();
            }
            let reference = full.eval(&matrix.decode());
            assert_eq!(
                incremental.to_bits(),
                reference.to_bits(),
                "incremental {incremental} != full {reference} after burst (n={n}, c={c})"
            );
            assert_eq!(eval.objective().to_bits(), reference.to_bits());
        }
    });
}

/// The analytic max head latency is an upper bound for mesh distances:
/// express links never make any pair slower than the plain mesh.
#[test]
fn express_never_slower_than_mesh_anywhere() {
    for_cases(12, 0xE3, |rng| {
        let (topo, _c) = small_mesh(rng);
        let n = topo.side();
        let dor = DorRouter::new(&topo, HopWeights::PAPER);
        let mesh_dor = DorRouter::new(&MeshTopology::mesh(n), HopWeights::PAPER);
        let model = LatencyModel::paper();
        for s in 0..n * n {
            for d in 0..n * n {
                assert!(
                    model.head_pair(&dor, s, d) <= model.head_pair(&mesh_dor, s, d),
                    "pair ({s}, {d}) slower than mesh"
                );
            }
        }
    });
}
