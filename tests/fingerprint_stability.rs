//! Pins the FNV-1a digests produced across the workspace to their exact
//! historical values. The helpers were consolidated into
//! `noc_model::fingerprint`; this suite guarantees the consolidation (and
//! any future refactor) never silently changes a digest — cache keys,
//! cluster shard placement, and golden sim fingerprints all depend on
//! these values staying put.

use noc_model::fingerprint::Fnv1a;
use noc_placement::SaParams;
use noc_service::CacheKey;
use noc_sim::{ActivityCounters, SimConfig, SimStats};

fn fixture_stats() -> SimStats {
    SimStats {
        cycles: 10_000,
        measure_cycles: 8_000,
        nodes: 16,
        measured_packets: 400,
        completed_packets: 398,
        avg_packet_latency: 21.5,
        avg_head_latency: 18.25,
        max_packet_latency: 77,
        p50_latency: 20.0,
        p95_latency: 33.0,
        p99_latency: 41.0,
        accepted_throughput: 0.0124,
        offered_rate: 0.0125,
        avg_flits_per_packet: 1.625,
        activity: vec![
            ActivityCounters {
                buffer_writes: 100,
                buffer_reads: 99,
                crossbar_traversals: 250,
                link_flit_segments: 310,
                vc_allocations: 42,
            };
            16
        ],
        drained: true,
    }
}

#[test]
fn raw_hasher_digests_are_stable() {
    // Untagged construction starts at the bare FNV-1a offset basis — this is
    // what `SimStats::fingerprint` has always used.
    let mut raw = Fnv1a::new();
    raw.write_u64(7);
    assert_eq!(raw.finish(), 0x4bd7_a317_074c_5b62, "untagged u64(7)");

    let mut tagged = Fnv1a::with_tag("sim-config");
    tagged.write_u64(7);
    assert_eq!(tagged.finish(), 0x75b7_d0c5_d978_4ace, "tagged u64(7)");

    let empty = Fnv1a::new();
    assert_eq!(empty.finish(), 0xcbf2_9ce4_8422_2325, "FNV-1a offset basis");
}

#[test]
fn sim_config_digest_is_pinned() {
    assert_eq!(
        SimConfig::latency_run(256, 7).fingerprint(),
        0x3302_d331_3f4b_b92e
    );
    assert_eq!(
        SimConfig::throughput_run(128, 11).fingerprint(),
        0x27a8_da58_fe3d_ba0a
    );
}

#[test]
fn sim_stats_digest_is_pinned() {
    assert_eq!(fixture_stats().fingerprint(), 0x9365_d881_a875_4bdc);
}

#[test]
fn sa_params_digest_is_pinned() {
    assert_eq!(SaParams::paper().fingerprint(), 0x1364_6af1_afb0_fee3);
    assert_eq!(
        SaParams::paper().with_chains(4).fingerprint(),
        0x7054_c00c_d07e_dd46
    );
}

#[test]
fn cache_shard_key_is_pinned() {
    // A request's key is its kind plus its keyed fields as request lines
    // carry them; the shard digest of that key places it on the ring.
    let key = CacheKey {
        kind: "solve",
        fields: r#"[16,3,"dnc",10000,1,42,3,1]"#.to_string(),
    };
    let line = r#"{"kind":"solve","n":16,"c":3,"seed":42,"evaluator":"full","checkpoint":2}"#;
    let request = noc_service::protocol::parse_request(line).unwrap().request;
    assert_eq!(noc_service::exec::cache_key(&request), Some(key.clone()));
    assert_eq!(key.stable_hash(), 0x1ffc_0661_e7f5_a2f7);
}

#[test]
fn scenario_manifest_digest_is_pinned() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/scenarios/ladder.json"
    ))
    .expect("read ladder manifest");
    let manifest = noc_scenario::Manifest::parse(&text).expect("parse ladder manifest");
    assert_eq!(
        noc_scenario::manifest_fingerprint(&manifest),
        0xa1bf_4481_741a_d194
    );
}
