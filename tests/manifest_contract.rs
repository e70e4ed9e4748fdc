//! The manifest bytes, pinned: the compact `to_value` rendering and the
//! fingerprints of every committed example and of a few hand-written
//! manifests. These bytes key the daemon's scenario cache and the
//! per-scenario results, so a parser or serializer change must leave them
//! exactly as they are.

use noc_scenario::{expand, manifest_fingerprint, Manifest};

fn example(name: &str) -> Manifest {
    let path = format!(
        "{}/examples/scenarios/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).expect("read example manifest");
    Manifest::parse(&text).expect("example manifest parses")
}

/// Asserts a manifest's compact bytes and its fingerprint.
fn assert_pinned(m: &Manifest, compact: &str, fingerprint: u64) {
    assert_eq!(m.to_value().compact(), compact);
    assert_eq!(
        manifest_fingerprint(m),
        fingerprint,
        "fingerprint of {compact}"
    );
    assert_eq!(&Manifest::parse(compact).expect("pinned bytes parse"), m);
}

#[test]
fn committed_examples_keep_their_bytes() {
    for (name, compact, fingerprint) in [
        (
            "hotspot_migration",
            r#"{"scenario":1,"name":"hotspot-migration","seed":7,"topology":{"n":4,"links":[]},"traffic":{"pattern":"ur","rate":0.01,"hotspot_weight":0.5},"sim":{"flit":64,"warmup":100,"cycles":400},"phases":[{"name":"warm","cycles":300,"rate_scale":1.0},{"name":"corner","rate_scale":1.5,"hotspot":0},{"name":"center","rate_scale":1.5,"hotspot":5},{"name":"cool","rate_scale":0.5}],"matrix":{"seed":[1,2,3]}}"#,
            0x4dc1_4ee7_c27e_1214,
        ),
        (
            "ladder",
            r#"{"scenario":1,"name":"ladder","seed":42,"topology":{"n":4,"links":[[0,2],[1,3]]},"traffic":{"pattern":"ur","rate":0.01,"hotspot_weight":0.5},"sim":{"flit":64,"warmup":100,"cycles":400},"matrix":{"rate":[0.002,0.004,0.006,0.008,0.01,0.012,0.014],"seed":{"range":[1,15,1]}}}"#,
            0xa1bf_4481_741a_d194,
        ),
        (
            "link_failure",
            r#"{"scenario":1,"name":"link-failure","seed":3,"topology":{"n":4,"links":[[0,3],[1,3]]},"traffic":{"pattern":"tp","rate":0.01,"hotspot_weight":0.5},"sim":{"flit":64,"warmup":100,"cycles":400},"phases":[{"name":"healthy","rate_scale":1.0},{"name":"degraded","rate_scale":1.0,"degrade_links":[[0,3]]},{"name":"broken","rate_scale":1.0,"fail_links":[[0,3],[1,3]]}],"faults":{"seed":99},"matrix":{"rate":[0.005,0.01],"seed":{"range":[1,4,1]}}}"#,
            0x52da_edb5_25af_c738,
        ),
    ] {
        assert_pinned(&example(name), compact, fingerprint);
    }
}

#[test]
fn full_and_reversed_link_manifests_keep_their_bytes() {
    let full = Manifest::parse(
        r#"{"scenario":1,"name":"full","seed":9,
            "topology":{"n":8,"links":[[0,3],[3,7]]},
            "placement":{"c":4,"moves":500,"chains":2,"strategy":"greedy"},
            "qos":[{"src":0,"dst":63,"weight":2.5}],
            "traffic":{"pattern":"tp","rate":0.05,"hotspot":5,"hotspot_weight":0.3},
            "sim":{"flit":128,"warmup":100,"cycles":400},
            "phases":[{"name":"burst","cycles":200,"rate_scale":2.0,
                       "pattern":"ur","hotspot":9,
                       "fail_links":[[0,3]],"degrade_links":[[3,7]]}],
            "faults":{"seed":7},
            "matrix":{"seed":{"range":[1,4]},"rate":[0.01,0.02]}}"#,
    )
    .unwrap();
    assert_pinned(
        &full,
        r#"{"scenario":1,"name":"full","seed":9,"topology":{"n":8,"links":[[0,3],[3,7]]},"placement":{"c":4,"moves":500,"chains":2,"strategy":"greedy"},"qos":[{"src":0,"dst":63,"weight":2.5}],"traffic":{"pattern":"tp","rate":0.05,"hotspot":5,"hotspot_weight":0.3},"sim":{"flit":128,"warmup":100,"cycles":400},"phases":[{"name":"burst","cycles":200,"rate_scale":2.0,"pattern":"ur","hotspot":9,"fail_links":[[0,3]],"degrade_links":[[3,7]]}],"faults":{"seed":7},"matrix":{"seed":{"range":[1,4,1]},"rate":[0.01,0.02]}}"#,
        0x5ddf_e5d2_80a9_a8a3,
    );
    // Each link pair is normalized to (min, max).
    let reversed = Manifest::parse(
        r#"{"scenario":1,"topology":{"n":4,"links":[[3,0]]},
            "phases":[{"fail_links":[[3,0]]}]}"#,
    )
    .unwrap();
    assert_pinned(
        &reversed,
        r#"{"scenario":1,"name":"scenario","seed":42,"topology":{"n":4,"links":[[0,3]]},"traffic":{"pattern":"ur","rate":0.02,"hotspot_weight":0.5},"sim":{"flit":64,"warmup":500,"cycles":2000},"phases":[{"name":"phase0","rate_scale":1.0,"fail_links":[[0,3]]}]}"#,
        0x2ebe_3616_f552_4dfb,
    );
}

#[test]
fn expanded_scenarios_keep_their_fingerprints() {
    let batch = expand(&example("link_failure")).expect("example expands");
    let fingerprints: Vec<String> = batch
        .iter()
        .map(|s| format!("{:016x}", s.fingerprint))
        .collect();
    assert_eq!(
        fingerprints,
        [
            "74a0212dc6a0bd0f",
            "f2230f03600c3506",
            "6af179edc3e32709",
            "03315daddbf70e08",
            "45a8e7560f8823fb",
            "60cf27b131469494",
            "14b41782a2619cc9",
            "3f532d123c5434ca",
        ]
    );
}
