//! The batch plan's memory is bounded. Its own test file, so it runs in
//! its own process and the high-water mark it reads is its own.

#![cfg(target_os = "linux")]

use noc_scenario::{run_batch, Manifest};

/// The process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM is a number of kB")
}

#[test]
fn sixty_four_seeds_at_n32_plan_in_bounded_memory() {
    // A plain 32x32 manifest: every seed replica shares one traffic
    // matrix (8 MiB of rates at this size) and one set of route tables.
    let manifest = Manifest::parse(
        r#"{"scenario":1,"name":"mem","topology":{"n":32},
            "sim":{"warmup":0,"cycles":1},
            "matrix":{"seed":{"range":[1,64]}}}"#,
    )
    .unwrap();
    let before = peak_rss_kib();
    let batch = run_batch(&manifest, 1).unwrap();
    let rise_mib = (peak_rss_kib() - before) / 1024;
    assert_eq!(batch.items.len(), 64);
    assert!(
        batch.items.iter().all(|item| item.get("error").is_none()),
        "every scenario runs"
    );
    assert!(
        rise_mib < 64,
        "64 seeds at n = 32 raised the peak RSS by {rise_mib} MiB"
    );
}
