//! Inputs the CLI once crashed on, aborted on or silently misread. Each
//! is now refused before anything runs: exit code 1, and an error naming
//! the flag. Numbers in the spellings it always read still run.

use std::process::Command;

#[test]
fn out_of_bound_and_unknown_flags_are_refused_naming_the_flag() {
    for (line, flag) in [
        // These panicked (exit 101).
        ("solve --n 1 --c 1", "--n"),
        ("checkpoint --n 1 --c 1 --snapshot F", "--n"),
        ("optimal --n 1 --c 1", "--n"),
        ("sweep --n 1", "--n"),
        ("frontier --n 1", "--n"),
        ("simulate --n 1 --pattern ur --rate 0.01", "--n"),
        ("simulate --n 4 --pattern ur --rate 5", "--rate"),
        ("simulate --n 4 --pattern ur --rate 0.01 --flit 0", "--flit"),
        // This tried a 60 TB allocation (exit 134).
        ("solve --n 8 --c 10000000000000", "--c"),
        // These ran with a default, or without a bound.
        ("solve --n 8 --c 4 --mvoes 100", "--mvoes"),
        (
            "simulate --n 4 --pattern ur --rate 0.01 --cycle 100",
            "--cycle",
        ),
        ("frontier --n 4 --weight-steps 0", "--weight-steps"),
        ("sweep --n 200", "--n"),
        // These overflowed the u32 hop costs: the release build printed
        // `objective 0.0000 cycles` and the plain mesh, a debug build
        // panicked.
        (
            "solve --n 8 --c 3 --router-cycles 4294967295",
            "--router-cycles",
        ),
        (
            "solve --n 8 --c 3 --unit-link-cycles 1000001",
            "--unit-link-cycles",
        ),
        (
            "optimal --n 8 --c 3 --router-cycles 4294967295",
            "--router-cycles",
        ),
        (
            "optimal --n 8 --c 3 --unit-link-cycles 1000001",
            "--unit-link-cycles",
        ),
        // A checkpoint interval only a daemon's snapshot store keeps.
        ("solve --n 8 --c 4 --checkpoint 3", "--checkpoint"),
        (
            "simulate --n 4 --pattern ur --rate 0.01 --checkpoint 3",
            "--checkpoint",
        ),
        // A snapshot `resume` would refuse as taken under other weights.
        (
            "checkpoint --n 8 --c 4 --router-cycles 2 --snapshot F",
            "--router-cycles",
        ),
        (
            "checkpoint --n 8 --c 4 --unit-link-cycles 2 --snapshot F",
            "--unit-link-cycles",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_express-noc-cli"))
            .args(line.split(' '))
            .output()
            .expect("spawn express-noc-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let error = stderr.lines().next().unwrap_or_default();
        assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
        assert!(
            error.starts_with("error: ") && error.contains(&format!("flag {flag}")),
            "{line}: {error}"
        );
        assert!(out.stdout.is_empty(), "{line} printed a result");
    }
}

#[test]
fn numbers_run_in_every_spelling_rust_reads() {
    let run = |line: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_express-noc-cli"))
            .args(line.split(' '))
            .output()
            .expect("spawn express-noc-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{line}: {stderr}");
        out.stdout
    };
    let simulate = "simulate --n 4 --pattern ur --cycles 300 --rate";
    for (spelled, plain) in [
        (format!("{simulate} .02"), format!("{simulate} 0.02")),
        (format!("{simulate} 2e-2"), format!("{simulate} 0.02")),
        (
            "solve --n 08 --c +4 --moves 300 --seed 7".to_string(),
            "solve --n 8 --c 4 --moves 300 --seed 7".to_string(),
        ),
    ] {
        assert_eq!(run(&spelled), run(&plain), "{spelled}");
    }
}
