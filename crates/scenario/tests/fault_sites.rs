//! The executor's fault sites, armed. Its own test file: a schedule is
//! armed process-wide, so no other batch may run beside it.

use noc_json::Value;
use noc_scenario::run::{SITE_LINK_DEGRADE, SITE_LINK_FAIL, SITE_PHASE};
use noc_scenario::{run_batch, Manifest};

#[test]
fn an_injected_phase_error_fails_only_its_scenario() {
    // Two scenarios of three phases; planning hits `scenario.phase` once
    // per phase, scenario by scenario, so hit 5 is the second scenario's
    // "cut" phase.
    let manifest = Manifest::parse(
        r#"{"scenario":1,"name":"f","topology":{"n":4,"links":[[0,3]]},
            "traffic":{"rate":0.01},"sim":{"warmup":50,"cycles":200},
            "phases":[{"name":"ok"},{"name":"cut","fail_links":[[0,3]]},
                      {"name":"limp","degrade_links":[[0,3]]}],
            "matrix":{"seed":[1,2]}}"#,
    )
    .unwrap();
    let clean = run_batch(&manifest, 1).unwrap();
    faultpoint::arm(faultpoint::Schedule::new().fault_at(SITE_PHASE, 5, faultpoint::Fault::Error));
    let faulted = run_batch(&manifest, 1).unwrap();
    faultpoint::disarm();

    assert_eq!(faulted.items[0], clean.items[0]);
    assert_eq!(
        faulted.items[1].get("error").and_then(Value::as_str),
        Some(r#"injected fault at phase "cut""#)
    );
    assert_eq!(
        faulted.summary.get("failed").and_then(Value::as_usize),
        Some(1)
    );
    // The failed scenario stops at its faulted phase: its link event and
    // its third phase are never reached.
    assert_eq!(faultpoint::hits(SITE_PHASE), 5);
    assert_eq!(faultpoint::hits(SITE_LINK_FAIL), 1);
    assert_eq!(faultpoint::hits(SITE_LINK_DEGRADE), 1);
}
