//! Deterministic snapshot-decoder fuzzing: seeded truncations, bit
//! flips, and header mutations over real engine snapshots must always
//! yield a structured [`SnapshotError`] — never a panic, never a
//! silently-accepted corrupt state. The mutation schedule is drawn from
//! a fixed seed, so a failure reproduces exactly.

use express_noc::model::PacketMix;
use express_noc::placement::objective::AllPairsObjective;
use express_noc::placement::{InitialStrategy, SaParams, SolveJob};
use express_noc::rng::rngs::SmallRng;
use express_noc::rng::{Rng, SeedableRng};
use express_noc::sim::{BatchSimulator, SimConfig, Simulator};
use express_noc::snapshot::{SnapshotError, Writer, MAGIC, VERSION};
use express_noc::topology::MeshTopology;
use express_noc::traffic::{SyntheticPattern, TrafficMatrix, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn workload(n: usize, rate: f64) -> Workload {
    Workload::new(
        TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, n),
        rate,
        PacketMix::paper(),
    )
}

fn sim_config(seed: u64) -> SimConfig {
    let mut config = SimConfig::latency_run(128, seed);
    config.warmup_cycles = 200;
    config.measure_cycles = 600;
    config
}

/// One decoder under test: restores `bytes` into its engine and reports
/// the structured outcome (the mutated input context stays fixed).
type Decoder = Box<dyn Fn(&[u8]) -> Result<(), SnapshotError>>;

/// Builds (name, pristine snapshot bytes, decoder) for each engine.
fn subjects() -> Vec<(&'static str, Vec<u8>, Decoder)> {
    let mut out: Vec<(&'static str, Vec<u8>, Decoder)> = Vec::new();

    // Simulator (a one-lane batch), paused mid-measurement.
    let topo = MeshTopology::mesh(4);
    let mut sim = Simulator::new(&topo, workload(4, 0.05), sim_config(1));
    sim.run_until(300);
    let bytes = sim.snapshot();
    out.push((
        "sim",
        bytes,
        Box::new(move |b| {
            Simulator::restore(&MeshTopology::mesh(4), workload(4, 0.05), sim_config(1), b)
                .map(|_| ())
        }),
    ));

    // Batch simulator, two lanes.
    let replicas = || {
        vec![
            (workload(4, 0.04), sim_config(2)),
            (workload(4, 0.06), sim_config(3)),
        ]
    };
    let mut batch = BatchSimulator::new(&topo, replicas());
    batch.run_until(300);
    let bytes = batch.snapshot();
    out.push((
        "sim-batch",
        bytes,
        Box::new(move |b| {
            BatchSimulator::restore(&MeshTopology::mesh(4), replicas(), b).map(|_| ())
        }),
    ));

    // Resumable annealing job, cut mid-schedule.
    let objective = AllPairsObjective::paper();
    let mut job = SolveJob::new(
        8,
        4,
        &objective,
        InitialStrategy::DivideAndConquer,
        &SaParams::paper(),
        42,
        objective.fingerprint(),
    );
    job.run_moves(&objective, 1_500);
    let bytes = job.snapshot();
    out.push((
        "sa-job",
        bytes,
        Box::new(|b| SolveJob::restore(b).map(|_| ())),
    ));

    out
}

/// Decodes a mutated input, demanding a structured error: `Ok` is only
/// acceptable when the mutation was a no-op (`bytes` unchanged).
fn must_reject(name: &str, what: &str, decoder: &Decoder, bytes: &[u8], pristine: &[u8]) {
    let result = catch_unwind(AssertUnwindSafe(|| decoder(bytes)));
    match result {
        Err(_) => panic!("{name}: {what} PANICKED instead of returning SnapshotError"),
        Ok(Ok(())) => assert_eq!(
            bytes, pristine,
            "{name}: {what} decoded successfully despite changing the bytes"
        ),
        Ok(Err(_)) => {} // structured rejection — the contract
    }
}

#[test]
fn pristine_snapshots_decode() {
    for (name, bytes, decoder) in subjects() {
        assert!(decoder(&bytes).is_ok(), "{name}: pristine snapshot refused");
    }
}

#[test]
fn truncation_never_panics() {
    let mut pick = SmallRng::seed_from_u64(0xfa22_0001);
    for (name, bytes, decoder) in subjects() {
        // Every short prefix up to a cap, then random sampling beyond it:
        // the first bytes exercise the header paths, the samples the body.
        for cut in 0..bytes.len().min(64) {
            must_reject(
                name,
                &format!("truncation to {cut}"),
                &decoder,
                &bytes[..cut],
                &bytes,
            );
        }
        for _ in 0..200 {
            let cut = pick.gen_range(0..bytes.len());
            must_reject(
                name,
                &format!("truncation to {cut}"),
                &decoder,
                &bytes[..cut],
                &bytes,
            );
        }
        // The empty input and a bare header are corrupt too.
        must_reject(name, "empty input", &decoder, &[], &bytes);
        must_reject(name, "bare magic", &decoder, &MAGIC, &bytes);
    }
}

#[test]
fn bit_flips_never_panic_and_never_pass_the_digest() {
    let mut pick = SmallRng::seed_from_u64(0xfa22_0002);
    for (name, bytes, decoder) in subjects() {
        for _ in 0..400 {
            let pos = pick.gen_range(0..bytes.len());
            let bit = pick.gen_range(0..8u64) as u32;
            let mut mutated = bytes.clone();
            mutated[pos] ^= 1 << bit;
            must_reject(
                name,
                &format!("bit flip at byte {pos} bit {bit}"),
                &decoder,
                &mutated,
                &bytes,
            );
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut pick = SmallRng::seed_from_u64(0xfa22_0003);
    for (name, bytes, decoder) in subjects() {
        for _ in 0..100 {
            let len = pick.gen_range(0..2 * bytes.len());
            let garbage: Vec<u8> = (0..len).map(|_| pick.gen_range(0..256u64) as u8).collect();
            must_reject(
                name,
                &format!("{len} garbage bytes"),
                &decoder,
                &garbage,
                &bytes,
            );
        }
    }
}

#[test]
fn version_bump_reports_unsupported_version() {
    for (name, bytes, decoder) in subjects() {
        // A stream from a newer writer, and one from the version before,
        // whose layout this reader no longer has.
        for version in [VERSION + 1, VERSION - 1] {
            let mut mutated = bytes.clone();
            mutated[4..6].copy_from_slice(&version.to_le_bytes());
            // Recompute nothing: the digest now mismatches too, but the
            // header is validated first so the version error must win — a
            // reader should say "unsupported version", not "corrupt".
            let err = decoder(&mutated).expect_err("other version accepted");
            match err {
                SnapshotError::UnsupportedVersion { found, supported } => {
                    assert_eq!((found, supported), (version, VERSION), "{name}");
                }
                other => {
                    panic!("{name}: version {version} produced {other:?}, not UnsupportedVersion")
                }
            }
        }
    }
}

#[test]
fn docs_spec_matches_the_code() {
    // docs/SNAPSHOTS.md is the format's human-readable spec; keep its
    // load-bearing constants reconciled with the code so a version bump
    // or magic change cannot ship undocumented.
    let root = env!("CARGO_MANIFEST_DIR");
    let spec = std::fs::read_to_string(format!("{root}/docs/SNAPSHOTS.md"))
        .expect("docs/SNAPSHOTS.md exists");
    let magic = std::str::from_utf8(&MAGIC).expect("magic is ascii");
    assert!(
        spec.contains(magic),
        "docs/SNAPSHOTS.md no longer names the `{magic}` magic"
    );
    for needle in [
        format!("(`NSNP`, version {VERSION})"),
        format!("currently **{VERSION}**"),
    ] {
        assert!(
            spec.contains(&needle),
            "docs/SNAPSHOTS.md does not document format version {VERSION} ({needle:?})"
        );
    }
    for counter in [
        "snapshot.saved",
        "snapshot.resumed",
        "snapshot.corrupt_dropped",
    ] {
        assert!(spec.contains(counter), "docs lost the {counter} counter");
    }
    // The README and architecture overview must point readers at it.
    for doc in ["README.md", "docs/ARCHITECTURE.md"] {
        let text = std::fs::read_to_string(format!("{root}/{doc}")).expect(doc);
        assert!(
            text.contains("SNAPSHOTS.md"),
            "{doc} does not reference docs/SNAPSHOTS.md"
        );
    }
}

#[test]
fn wrong_kind_is_a_structured_mismatch() {
    // A valid snapshot of one engine fed to another decoder must be
    // rejected by kind, not by digest (the digest is fine!).
    let mut all = subjects();
    let (_, sa_bytes, _) = all.pop().expect("sa-job subject");
    let (name, _, sim_decoder) = all.remove(0);
    match sim_decoder(&sa_bytes) {
        Err(SnapshotError::Mismatch { .. }) => {}
        other => panic!("{name}: cross-engine restore produced {other:?}, not Mismatch"),
    }
}

#[test]
fn retired_scalar_kind_is_a_structured_mismatch() {
    // Snapshots of the retired scalar engine (kind `sim-scalar`) are
    // well-formed streams the simulator no longer reads: refused by kind,
    // never a panic.
    let mut w = Writer::new("sim-scalar");
    w.write_u64(sim_config(1).fingerprint());
    w.write_u8(0);
    w.write_u64(0);
    let bytes = w.finish();
    let result = catch_unwind(AssertUnwindSafe(|| {
        Simulator::restore(
            &MeshTopology::mesh(4),
            workload(4, 0.05),
            sim_config(1),
            &bytes,
        )
        .map(|_| ())
    }));
    match result {
        Ok(Err(SnapshotError::Mismatch { .. })) => {}
        Ok(other) => panic!("stale sim-scalar stream produced {other:?}, not Mismatch"),
        Err(_) => panic!("stale sim-scalar stream PANICKED"),
    }
}
