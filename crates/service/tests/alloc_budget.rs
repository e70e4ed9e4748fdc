//! Allocation budget of the answers `replay` sends most: heap
//! allocations plus reallocations per `handle_line` + `wire_lines` call,
//! counted on the calling thread by a counting global allocator.
//!
//! One key of each compute kind is filled first, shaped like the
//! benchmark's replay hot set (`solve` n = 8, `simulate` n = 4, `sweep`
//! n = 8, streamed `frontier` n = 6), and every kind is answered once
//! before counting starts, so each measured call sees a registry with
//! every kind's histogram in use.
//!
//! Counts before inline answers were written straight to wire text:
//! `health` 22, `metrics` 92, `prometheus` 32, `shutdown` 15; hits on
//! `solve` 21, `simulate` 25, `sweep` 13, `frontier` 26. An inline answer
//! may now make at most [`INLINE_BUDGET`]; a hit may make no more than it
//! did then.

use noc_service::protocol::wire_lines;
use noc_service::{InlineDispatch, Response, ServiceCore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local cell, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most allocations plus reallocations an inline answer may make.
const INLINE_BUDGET: u64 = 12;

/// Fill lines, one key per compute kind, with the most allocations its
/// hit may make.
const HITS: [(&str, &str, u64); 4] = [
    (
        "solve",
        r#""kind":"solve","n":8,"c":2,"strategy":"dnc","moves":10000,"seed":7"#,
        21,
    ),
    (
        "simulate",
        r#""kind":"simulate","n":4,"pattern":"ur","rate":0.01,"flit":64,"cycles":2000,"seed":7,"links":[]"#,
        25,
    ),
    ("sweep", r#""kind":"sweep","n":8,"seed":7"#, 13),
    (
        "frontier",
        r#""kind":"frontier","n":6,"weight_steps":3,"moves":2000,"seed":7,"workers":1"#,
        26,
    ),
];

const INLINE: [&str; 3] = ["health", "metrics", "prometheus"];

/// Times each kind is measured; the most any one call made counts.
const ROUNDS: usize = 4;

/// Allocations plus reallocations of one pipeline call on this thread.
fn counted(core: &ServiceCore, dispatch: &InlineDispatch, line: &str) -> u64 {
    let before = COUNT.with(Cell::get);
    let response = core.handle_line(line, dispatch, None);
    let wire = wire_lines(&response);
    let made = COUNT.with(Cell::get) - before;
    assert!(
        matches!(response, Response::Ok { .. }),
        "{line}: {response:?}"
    );
    assert!(!wire.is_empty());
    made
}

fn line(id: &str, fields: &str) -> String {
    format!(r#"{{"id":"{id}",{fields}}}"#)
}

#[test]
fn hot_answers_stay_within_their_allocation_budget() {
    let core = ServiceCore::new(1, 1024, 8);
    let dispatch = InlineDispatch::default();
    for (i, (kind, fields, _)) in HITS.iter().enumerate() {
        let response = core.handle_line(&line(&format!("f{i}"), fields), &dispatch, None);
        assert!(
            matches!(response, Response::Ok { cached: false, .. }),
            "{kind}: {response:?}"
        );
    }
    let inline = |kind: &str| format!(r#""kind":"{kind}""#);
    let mut lines: Vec<(&str, String, u64)> = INLINE
        .iter()
        .map(|kind| (*kind, inline(kind), INLINE_BUDGET))
        .collect();
    lines.extend(
        HITS.iter()
            .map(|(kind, fields, budget)| (*kind, fields.to_string(), *budget)),
    );
    // Warm-up: every kind answers once, so each histogram is in use.
    for (kind, fields, _) in &lines {
        counted(&core, &dispatch, &line(&format!("w-{kind}"), fields));
    }
    let mut report = Vec::new();
    for (kind, fields, budget) in &lines {
        let most = (0..ROUNDS)
            .map(|round| counted(&core, &dispatch, &line(&format!("r{round}"), fields)))
            .max()
            .unwrap_or(0);
        report.push((*kind, most, *budget));
    }
    // `shutdown` drains the core, so it is measured once, last.
    let shutdown = counted(&core, &dispatch, &line("s", &inline("shutdown")));
    report.push(("shutdown", shutdown, INLINE_BUDGET));
    let over: Vec<_> = report
        .iter()
        .filter(|(_, most, budget)| most > budget)
        .collect();
    assert!(
        over.is_empty(),
        "over budget (kind, made, budget): {over:?}; all: {report:?}"
    );
}
