//! docs/PROTOCOL.md tabulates the fields of every request kind, and
//! docs/SCENARIOS.md those of every manifest section. The tables must
//! equal the declarations the daemon, the CLI and the manifest parser
//! read with, so the docs cannot drift from the code.

#[test]
fn protocol_doc_matches_the_spec() {
    let root = env!("CARGO_MANIFEST_DIR");
    let doc = std::fs::read_to_string(format!("{root}/docs/PROTOCOL.md"))
        .expect("docs/PROTOCOL.md exists");
    let tables = noc_service::spec::reference();
    assert!(
        doc.contains(&tables),
        "docs/PROTOCOL.md no longer matches the request spec; its tables must read:\n\n{tables}"
    );
    // The places that once restated fields, defaults or cache keys point
    // to the tables instead.
    for file in [
        "README.md",
        "DESIGN.md",
        "docs/ARCHITECTURE.md",
        "docs/FRONTIER.md",
        "docs/SNAPSHOTS.md",
    ] {
        let text = std::fs::read_to_string(format!("{root}/{file}")).expect(file);
        assert!(
            text.contains("PROTOCOL.md"),
            "{file} does not point to docs/PROTOCOL.md"
        );
    }
}

#[test]
fn scenarios_doc_matches_the_manifest_sections() {
    let root = env!("CARGO_MANIFEST_DIR");
    let doc = std::fs::read_to_string(format!("{root}/docs/SCENARIOS.md"))
        .expect("docs/SCENARIOS.md exists");
    for (section, table) in noc_scenario::manifest::reference() {
        assert!(
            doc.contains(&table),
            "docs/SCENARIOS.md no longer matches the `{section}` declaration; its table must \
             read:\n\n{table}"
        );
    }
    // The places that once restated manifest fields point to the tables.
    let text = std::fs::read_to_string(format!("{root}/docs/ARCHITECTURE.md")).unwrap();
    assert!(
        text.contains("SCENARIOS.md"),
        "ARCHITECTURE.md does not point to SCENARIOS.md"
    );
}
