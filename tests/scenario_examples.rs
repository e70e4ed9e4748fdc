//! Executable guarantees for the committed scenario manifests: every
//! example under `examples/scenarios/` parses, expands, and runs; every
//! example named in `docs/SCENARIOS.md` is committed (and vice versa);
//! the ladder manifest expands to a 100+ scenario batch whose result
//! stream is byte-identical across repeated CLI runs, across worker
//! counts, and between the CLI and the daemon path.

use express_noc::json::Value;
use express_noc::scenario::{expand, run_batch, Manifest};
use express_noc::service::{Client, Server, ServiceConfig};
use std::path::{Path, PathBuf};
use std::process::Command;

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios")
}

fn committed_examples() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("examples/scenarios exists")
        .map(|e| e.expect("read dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no committed scenario examples");
    files
}

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

#[test]
fn every_committed_example_parses_expands_and_runs() {
    for path in committed_examples() {
        let text = std::fs::read_to_string(&path).expect("read example");
        let manifest = Manifest::parse(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        let batch =
            expand(&manifest).unwrap_or_else(|e| panic!("{} does not expand: {e}", path.display()));
        assert!(!batch.is_empty());
        let result = run_batch(&manifest, 0)
            .unwrap_or_else(|e| panic!("{} does not run: {e}", path.display()));
        assert_eq!(result.items.len(), batch.len());
        for item in &result.items {
            assert!(
                item.get("error").is_none(),
                "{}: scenario failed: {item:?}",
                path.display()
            );
        }
        // Round trip: serialize → parse is the identity.
        let reparsed = Manifest::parse(&manifest.to_value().compact()).expect("round trip");
        assert_eq!(manifest, reparsed, "{} round trip", path.display());
    }
}

#[test]
fn docs_and_committed_examples_agree() {
    let docs =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/SCENARIOS.md"))
            .expect("docs/SCENARIOS.md exists");
    let committed: Vec<String> = committed_examples()
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    for name in &committed {
        assert!(
            docs.contains(&format!("examples/scenarios/{name}")),
            "committed example {name} is not documented in docs/SCENARIOS.md"
        );
    }
    // Every example the docs reference is committed.
    for chunk in docs.split("examples/scenarios/").skip(1) {
        let name: String = chunk
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-' || *c == '.')
            .collect();
        if name.ends_with(".json") {
            assert!(
                committed.contains(&name),
                "docs/SCENARIOS.md references uncommitted example {name}"
            );
        }
    }
}

#[test]
fn ladder_is_a_100_plus_batch_byte_identical_across_workers() {
    let path = scenarios_dir().join("ladder.json");
    let manifest = Manifest::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert!(
        expand(&manifest).unwrap().len() >= 100,
        "the acceptance bar: ladder.json expands to at least 100 scenarios"
    );
    let ladder = path.to_str().unwrap();
    let reference = run_cli(&["scenario", "run", ladder, "--workers", "1"]);
    assert_eq!(
        run_cli(&["scenario", "run", ladder, "--workers", "1"]),
        reference,
        "repeated runs must be byte-identical"
    );
    for workers in ["2", "8"] {
        assert_eq!(
            run_cli(&["scenario", "run", ladder, "--workers", workers]),
            reference,
            "worker count {workers} must not change the stream"
        );
    }
    // Expansion output is deterministic too.
    let expanded = run_cli(&["scenario", "expand", ladder]);
    assert_eq!(expanded.lines().count(), expand(&manifest).unwrap().len());
    assert_eq!(run_cli(&["scenario", "expand", ladder]), expanded);
}

#[test]
fn daemon_path_streams_the_same_results_as_the_cli() {
    let path = scenarios_dir().join("ladder.json");
    let manifest = Manifest::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let total = expand(&manifest).unwrap().len();

    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 16,
        cache_shards: 2,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server run"));

    let line = format!(
        r#"{{"id":"ex","kind":"scenario","workers":2,"manifest":{}}}"#,
        manifest.to_value().compact()
    );
    let mut client = Client::connect(&addr).expect("connect");
    let streamed = client.round_trip_stream(&line).expect("stream");
    assert_eq!(streamed.len(), total + 1, "one line per scenario + summary");

    // The daemon's item payloads are byte-identical to the CLI's local
    // run — same engine, same order, same serialization.
    let cli = run_cli(&["scenario", "run", path.to_str().unwrap(), "--workers", "1"]);
    let cli_lines: Vec<&str> = cli.lines().collect();
    assert_eq!(cli_lines.len(), total + 1);
    for (i, raw) in streamed[..total].iter().enumerate() {
        let v = noc_json::parse(raw).expect("item line parses");
        assert_eq!(v.get("seq").and_then(Value::as_usize), Some(i));
        assert_eq!(v.get("of").and_then(Value::as_usize), Some(total));
        let result = v.get("result").expect("item result");
        assert_eq!(
            result.compact(),
            cli_lines[i],
            "scenario #{i}: daemon and CLI results differ"
        );
    }
    let summary = noc_json::parse(&streamed[total]).unwrap();
    assert_eq!(summary.get("done").and_then(Value::as_bool), Some(true));
    assert_eq!(
        summary.get("result").expect("summary").compact(),
        cli_lines[total],
        "daemon and CLI summaries differ"
    );

    // A repeat streams the identical batch from the cache.
    let again = client.round_trip_stream(&line).expect("cached stream");
    assert_eq!(again[..total], streamed[..total]);
    let cached = noc_json::parse(&again[total]).unwrap();
    assert_eq!(cached.get("cached").and_then(Value::as_bool), Some(true));

    handle.shutdown();
    thread.join().unwrap();
}
