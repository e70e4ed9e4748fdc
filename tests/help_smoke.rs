//! Help-text smoke test: `express-noc-cli --help` succeeds, lists every
//! subcommand the binary dispatches, and stays reconciled with the
//! README — every `express-noc-cli <command>` the README shows must be a
//! command the help text documents.

use std::collections::BTreeSet;
use std::process::Command;

/// Every subcommand `main()` dispatches. Keep in lockstep with the match
/// in `src/bin/express-noc-cli.rs` — the help test below fails when the
/// help text and this list drift apart.
const COMMANDS: &[&str] = &[
    "solve",
    "checkpoint",
    "resume",
    "optimal",
    "sweep",
    "render",
    "simulate",
    "serve",
    "request",
    "loadgen",
    "cluster-sim",
    "scenario",
    "frontier",
];

fn help_text() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_express-noc-cli"))
        .arg("--help")
        .output()
        .expect("spawn express-noc-cli --help");
    assert!(out.status.success(), "--help must exit 0");
    String::from_utf8(out.stdout).expect("help is utf-8")
}

#[test]
fn help_lists_every_subcommand() {
    let help = help_text();
    for command in COMMANDS {
        assert!(
            help.lines().any(|l| l.trim_start().starts_with(command)),
            "--help does not document the {command:?} subcommand"
        );
    }
    // Spot-check flags that drifted in the past: the cluster flags from
    // the serve section and the scenario actions.
    for needle in [
        "--peers",
        "cluster-sim",
        "expand|run|describe",
        "--trace-out",
    ] {
        assert!(help.contains(needle), "--help lost {needle:?}");
    }
}

#[test]
fn readme_commands_exist_in_help() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md exists");
    let mut seen = BTreeSet::new();
    for chunk in readme.split("express-noc-cli").skip(1) {
        // The README writes either `express-noc-cli <cmd>` or the cargo
        // form `cargo run ... --bin express-noc-cli -- <cmd>`.
        let rest = chunk.trim_start();
        let rest = rest.strip_prefix("-- ").unwrap_or(rest);
        if let Some(word) = rest.split_whitespace().next() {
            let word = word.trim_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            if !word.is_empty() {
                seen.insert(word.to_string());
            }
        }
    }
    let commands: BTreeSet<&str> = COMMANDS.iter().copied().collect();
    let documented: Vec<&String> = seen
        .iter()
        .filter(|w| commands.contains(w.as_str()))
        .collect();
    assert!(
        !documented.is_empty(),
        "README shows no express-noc-cli commands at all?"
    );
    for word in &seen {
        // Anything that looks like a subcommand (lowercase word right
        // after the binary name) must be a real one.
        if word.chars().all(|c| c.is_ascii_lowercase() || c == '-') && !word.is_empty() {
            assert!(
                commands.contains(word.as_str()),
                "README shows `express-noc-cli {word}` but the binary has no such command"
            );
        }
    }
    // The scenario quickstart the docs promise must be present verbatim.
    assert!(
        readme.contains("scenario run examples/scenarios/ladder.json"),
        "README lost the scenario quickstart"
    );
}

/// Each compute command's request kind and the flags it takes besides
/// the kind's fields (`--trace-out` is taken everywhere).
const COMPUTE: &[(&str, &str, &[&str])] = &[
    ("solve", "solve", &[]),
    ("checkpoint", "solve", &["snapshot", "stages"]),
    ("optimal", "optimal", &[]),
    ("sweep", "sweep", &[]),
    ("simulate", "simulate", &[]),
    ("frontier", "frontier", &["addr"]),
];

#[test]
fn documented_compute_commands_read_as_requests() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut files = vec![format!("{root}/README.md")];
    for entry in std::fs::read_dir(format!("{root}/docs")).expect("docs/ exists") {
        files.push(entry.unwrap().path().display().to_string());
    }
    let mut read = 0;
    for file in files.iter().filter(|f| f.ends_with(".md")) {
        let text = std::fs::read_to_string(file).unwrap().replace("\\\n", " ");
        for line in text.lines() {
            let Some((_, rest)) = line.split_once("express-noc-cli") else {
                continue;
            };
            let rest = rest.trim_start();
            let rest = rest.strip_prefix("-- ").unwrap_or(rest);
            let mut tokens = rest.split_whitespace();
            let Some(&(_, kind, extra)) = tokens
                .next()
                .and_then(|command| COMPUTE.iter().find(|c| c.0 == command))
            else {
                continue;
            };
            let args: Vec<String> = tokens
                .take_while(|t| !["#", "|", ">", "&"].iter().any(|stop| t.starts_with(stop)))
                .map(str::to_string)
                .collect();
            let spec = noc_service::spec::kind(kind).expect("declared kind");
            let extra = [extra, &["trace-out"]].concat();
            let request = noc_service::spec::flag_pairs(&args)
                .and_then(|pairs| noc_service::spec::read_flags(spec, &pairs, &extra));
            assert!(request.is_ok(), "{file}: `{line}`: {request:?}");
            read += 1;
        }
    }
    assert!(read >= 10, "only {read} documented compute commands found");
}
