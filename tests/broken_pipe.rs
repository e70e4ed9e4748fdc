//! A closed stdout is not an error: `express-noc-cli ... | head -c 10`
//! must end quietly instead of panicking with "failed printing to stdout:
//! Broken pipe" and a backtrace.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_quietly() {
    let manifest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/scenarios/ladder.json"
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_express-noc-cli"))
        .args(["scenario", "expand", manifest])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn express-noc-cli");
    // Close the read end before the child gets to write its 105 lines.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for express-noc-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "closed stdout panicked the CLI:\n{stderr}"
    );
    assert_ne!(out.status.code(), Some(101), "exit code 101 is a panic");
}
