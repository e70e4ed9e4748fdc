//! A cache hit replays its miss byte for byte, for every compute kind.
//!
//! Runs in process through `ServiceCore::handle_line` and
//! `protocol::wire_lines`, with no sockets: each line is sent twice, and
//! the hit's wire lines must equal the miss's except for `"cached":true`
//! on the single line (or on a stream's summary line). A response built
//! from a plain `Value` equal to the payload must render the same lines,
//! which is how a client or a benchmark builds its expected hit.

use noc_json::Value;
use noc_service::protocol::wire_lines;
use noc_service::spec::KINDS;
use noc_service::{InlineDispatch, Response, ServiceCore};

/// One small line of every compute kind.
const LINES: [&str; 7] = [
    r#"{"id":"s","kind":"solve","n":6,"c":3,"moves":200,"seed":3}"#,
    r#"{"id":"o","kind":"optimal","n":6,"c":2}"#,
    r#"{"id":"w","kind":"sweep","n":4,"seed":2}"#,
    r#"{"id":"m","kind":"simulate","n":4,"pattern":"ur","rate":0.02,"cycles":300,"seed":1,
        "links":[[0,2]]}"#,
    r#"{"id":"t","kind":"throughput","n":4,"pattern":"ur","flit":64,"seed":1,"workers":1}"#,
    r#"{"id":"c","kind":"scenario","workers":1,"manifest":{"scenario":1,"topology":{"n":4},
        "sim":{"warmup":50,"cycles":200},"matrix":{"seed":[1,2]}}}"#,
    r#"{"id":"f","kind":"frontier","n":5,"weight_steps":2,"moves":200,"seed":3,"workers":1}"#,
];

#[test]
fn the_lines_cover_every_compute_kind() {
    let compute: Vec<&str> = KINDS
        .iter()
        .filter(|k| !(k.fields)().is_empty())
        .map(|k| k.name)
        .collect();
    let sent: Vec<String> = LINES
        .iter()
        .map(|line| {
            let v = noc_json::parse(line).expect("valid JSON");
            v.get("kind").and_then(Value::as_str).unwrap().to_string()
        })
        .collect();
    assert_eq!(sent, compute);
}

#[test]
fn a_hit_replays_its_miss_byte_for_byte() {
    let core = ServiceCore::new(1, 64, 4);
    let dispatch = InlineDispatch::default();
    for line in LINES {
        let miss = core.handle_line(line, &dispatch, None);
        let hits = core.metrics().cache_hit_count();
        let hit = core.handle_line(line, &dispatch, None);
        assert_eq!(core.metrics().cache_hit_count(), hits + 1, "{line}");
        let (
            Response::Ok { cached: false, .. },
            Response::Ok {
                id,
                cached: true,
                result,
            },
        ) = (&miss, &hit)
        else {
            panic!("{line}: expected a miss then a hit, got {miss:?} then {hit:?}");
        };

        // The hit's lines are the miss's with the cached flag set on the
        // last one: the single line, or the stream's summary.
        let miss_lines = wire_lines(&miss);
        let hit_lines = wire_lines(&hit);
        assert_eq!(miss_lines.len(), hit_lines.len(), "{line}");
        let streamed = miss_lines.len() > 1;
        let (last, items) = miss_lines.split_last().expect("at least one line");
        assert_eq!(&hit_lines[..items.len()], items, "{line}");
        let flag = if streamed {
            r#","ok":true,"cached":false,"done":true,"#
        } else {
            r#","ok":true,"cached":false,"result":"#
        };
        assert_eq!(last.matches(flag).count(), 1, "{line}: {last}");
        let want = last.replacen(flag, &flag.replace("false", "true"), 1);
        assert_eq!(hit_lines[items.len()], want, "{line}");

        // A plain `Value` equal to the payload renders the same lines.
        let plain: Value = Value::clone(result);
        assert_eq!(
            wire_lines(&Response::ok(id.clone(), true, plain)),
            hit_lines,
            "{line}"
        );
    }
}
