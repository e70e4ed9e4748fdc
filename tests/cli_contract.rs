//! The CLI's stdout, pinned: one small run of each compute subcommand
//! prints exactly these bytes. The text is rendered from the same
//! results the daemon returns, so a change in how flags are read or how
//! the result is printed shows up here first.

use std::process::Command;

/// Runs the CLI binary with `args`, asserting success, and returns stdout.
fn run_cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_express-noc-cli"))
        .args(args)
        .output()
        .expect("spawn express-noc-cli");
    assert!(
        out.status.success(),
        "cli {args:?} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("cli output is utf-8")
}

const SOLVE_3000: &str = "\
P(8,4) via DivideAndConquer (1 chain): objective 6.5625 cycles (3025 evaluations)
o═══════o   ·   ·   ·   ·   ·   (0, 2)
o═══════════════o   ·   ·   ·   (0, 4)
·   o═══════════o   ·   ·   ·   (1, 4)
·   ·   o═══════o   ·   ·   ·   (2, 4)
·   ·   ·   ·   o═══════o   ·   (4, 6)
·   ·   ·   ·   o═══════════o   (4, 7)
·   ·   ·   ·   ·   o═══════o   (5, 7)
0---1---2---3---4---5---6---7   local links
  3   4   4   4   3   4   3    cross-section link counts
";

#[test]
fn solve_prints_the_pinned_placement() {
    assert_eq!(
        run_cli(&["solve", "--n", "8", "--c", "4", "--moves", "300", "--seed", "7"]),
        "\
P(8,4) via DivideAndConquer (1 chain): objective 6.9375 cycles (325 evaluations)
o═══════o   ·   ·   ·   ·   ·   (0, 2)
o═══════════════════o   ·   ·   (0, 5)
·   ·   o═══════o   ·   ·   ·   (2, 4)
·   ·   ·   o═══════════════o   (3, 7)
·   ·   ·   ·   o═══════o   ·   (4, 6)
·   ·   ·   ·   ·   o═══════o   (5, 7)
0---1---2---3---4---5---6---7   local links
  3   3   3   4   4   4   3    cross-section link counts
"
    );
    assert_eq!(
        run_cli(&["solve", "--n", "8", "--c", "4", "--moves", "3000", "--seed", "7"]),
        SOLVE_3000
    );
}

#[test]
fn checkpoint_then_resume_prints_the_uninterrupted_solve() {
    let dir = std::env::temp_dir().join(format!("express-noc-cli-contract-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("job.nsnp");
    let path = snapshot.to_str().unwrap();
    let out = run_cli(&[
        "checkpoint",
        "--n",
        "8",
        "--c",
        "4",
        "--moves",
        "3000",
        "--seed",
        "7",
        "--snapshot",
        path,
    ]);
    assert_eq!(
        out.replace(path, "SNAPSHOT"),
        "checkpointed P(8,4) at move 1000/3000: state_hash 377a20f0b64e4b12 \
         (434 bytes to SNAPSHOT)\n"
    );
    assert_eq!(run_cli(&["resume", "--snapshot", path]), SOLVE_3000);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn optimal_prints_the_pinned_optimum() {
    assert_eq!(
        run_cli(&["optimal", "--n", "6", "--c", "2"]),
        "\
optimal P(6,2): 6.1111 cycles (10 evaluations over 75 nodes)
o═══════════o   ·   ·   (0, 3)
·   ·   ·   o═══════o   (3, 5)
0---1---2---3---4---5   local links
  2   2   2   2   2    cross-section link counts
"
    );
}

#[test]
fn sweep_prints_the_pinned_table() {
    assert_eq!(
        run_cli(&["sweep", "--n", "6"]),
        "   C  b(bits)      L_D      L_S    total
   1      256    18.47     1.20    19.67
   2      128    15.14     1.60    16.74
   4       64    13.47     3.20    16.67  <- best
   8       32    12.14     6.40    18.54

best placement (C = 4):
o═══════o   ·   ·   ·   (0, 2)
o═══════════o   ·   ·   (0, 3)
·   o═══════════o   ·   (1, 4)
·   ·   o═══════════o   (2, 5)
·   ·   ·   o═══════o   (3, 5)
0---1---2---3---4---5   local links
  3   4   4   4   3    cross-section link counts
"
    );
}

#[test]
fn simulate_prints_the_pinned_statistics() {
    assert_eq!(
        run_cli(&[
            "simulate",
            "--n",
            "4",
            "--pattern",
            "ur",
            "--rate",
            "0.02",
            "--cycles",
            "300",
            "--seed",
            "3",
        ]),
        "\
simulated 5312 cycles: 83 packets measured, 83 delivered
latency: avg 13.90, p50 15, p95 23, p99 25, max 29 cycles
throughput: offered 0.0200, accepted 0.0173 packets/node/cycle
"
    );
    assert_eq!(
        run_cli(&[
            "simulate",
            "--n",
            "4",
            "--pattern",
            "tp",
            "--rate",
            "0.03",
            "--cycles",
            "300",
            "--seed",
            "3",
            "--links",
            "0-2,1-3",
        ]),
        "\
simulated 5315 cycles: 96 packets measured, 96 delivered
latency: avg 13.84, p50 13, p95 21, p99 24, max 24 cycles
throughput: offered 0.0300, accepted 0.0194 packets/node/cycle
"
    );
}

#[test]
fn frontier_prints_the_pinned_points() {
    assert_eq!(
        run_cli(&[
            "frontier",
            "--n",
            "4",
            "--weight-steps",
            "2",
            "--moves",
            "200",
            "--seed",
            "5",
        ]),
        r#"{"latency":14.0125,"avg_head":12.8125,"power_mw":264.9024,"links":0,"c":1,"flit_bits":256,"w":-1,"placement":[]}
{"latency":12.9125,"avg_head":11.3125,"power_mw":254.97599999999997,"links":1,"c":2,"flit_bits":128,"w":0,"placement":[[0,3]]}
{"latency":14.4125,"avg_head":12.8125,"power_mw":236.1792,"links":0,"c":2,"flit_bits":128,"w":1,"placement":[]}
{"latency":16.0125,"avg_head":12.8125,"power_mw":221.8176,"links":0,"c":4,"flit_bits":64,"w":1,"placement":[]}
{"n":4,"weight_steps":2,"points":4,"dominated":3,"scalarizations":6,"evaluations":820,"fingerprint":"4fae0a616a0ba6e5"}
"#
    );
}
