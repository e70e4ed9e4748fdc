//! `noc-trace`: zero-overhead-when-off telemetry for the NoC toolchain.
//!
//! One global [`TraceSink`] holds a lock-free metric [`Registry`]
//! (counters, gauges, log2 histograms), a fixed-capacity ring-buffer
//! event log ([`EventRing`]), and a monotonic-clock origin for
//! timestamps. Instrumented code guards every emission behind
//! [`enabled()`] — a single relaxed atomic load — so with tracing off
//! there is no allocation, no formatting, and no clock read anywhere on
//! the hot paths. The sim golden fingerprints are bit-identical with
//! tracing on or off because telemetry only *reads* simulation state.
//!
//! Layers instrumented on top of this crate:
//!
//! - **placement** — `sa.epoch` convergence series (temperature,
//!   acceptance rate, best/current objective per cooldown epoch),
//!   `sa.chain` chain→seed mapping, and `sa.move.*` evaluator timing
//!   histograms;
//! - **sim** — `sim.link` per-link flit counts/utilization and
//!   `sim.router` crossbar utilization + buffer-occupancy averages;
//! - **service** — `request.*` spans around parse → cache → execute →
//!   respond, plus `"trace"` / `"prometheus"` request kinds.
//!
//! ```
//! noc_trace::enable_with_capacity(64);
//! {
//!     let _outer = noc_trace::span("outer");
//!     noc_trace::emit(
//!         "series",
//!         "demo.metric",
//!         vec![("value", noc_trace::FieldValue::U64(42))],
//!     );
//! }
//! let events = noc_trace::drain_events();
//! assert_eq!(events.len(), 2); // the series point and the span
//! assert!(noc_trace::to_ndjson(&events).lines().count() == 2);
//! ```

#![warn(missing_docs)]

mod event;
mod metric;
mod registry;
mod ring;
mod span;

pub use event::{to_ndjson, Event, FieldValue};
pub use metric::{Counter, Gauge, Log2Histogram};
pub use registry::Registry;
pub use ring::EventRing;
pub use span::{span, span_labeled, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default ring-buffer capacity installed by [`enable()`].
pub const DEFAULT_CAPACITY: usize = 65_536;

/// The global telemetry hub: event ring + metric registry + clock origin.
#[derive(Debug)]
pub struct TraceSink {
    ring: EventRing,
    registry: Registry,
    origin: Instant,
}

impl TraceSink {
    fn new(capacity: usize) -> Self {
        TraceSink {
            ring: EventRing::new(capacity),
            registry: Registry::new(),
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the sink was installed.
    pub fn nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Stamps the event's timestamp and records it in the ring.
    pub fn emit(&self, mut event: Event) {
        event.nanos = self.nanos();
        self.ring.record(event);
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The event ring.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: OnceLock<TraceSink> = OnceLock::new();

/// The hot-path guard: true when tracing is globally enabled. A single
/// relaxed atomic load — instrumented code checks this before doing any
/// work (allocation, formatting, clock reads).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables tracing with [`DEFAULT_CAPACITY`] ring slots.
pub fn enable() {
    enable_with_capacity(DEFAULT_CAPACITY);
}

/// Enables tracing, installing the global sink on first call. The
/// capacity only takes effect on the installing call; later calls just
/// flip tracing back on.
pub fn enable_with_capacity(capacity: usize) {
    SINK.get_or_init(|| TraceSink::new(capacity));
    ENABLED.store(true, Ordering::Release);
}

/// Turns tracing off. The sink (and any recorded events) stays installed;
/// [`drain_events()`] still works after disabling.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// The global sink, if tracing is enabled. Hot paths use this to reach
/// the registry/ring; it returns `None` whenever [`enabled()`] is false.
#[inline]
pub fn sink() -> Option<&'static TraceSink> {
    if enabled() {
        SINK.get()
    } else {
        None
    }
}

/// The installed sink regardless of the enabled flag (for draining after
/// a run has disabled tracing). `None` if tracing was never enabled.
pub fn installed_sink() -> Option<&'static TraceSink> {
    SINK.get()
}

/// Emits one event (no-op when disabled). Callers on hot paths should
/// gate field construction behind [`enabled()`] to avoid building the
/// vector at all when tracing is off.
#[inline]
pub fn emit(kind: &'static str, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    if let Some(sink) = sink() {
        sink.emit(Event::new(kind, name, fields));
    }
}

/// Removes and returns all retained events in emission order. Works even
/// after [`disable()`]; returns an empty vector if tracing was never
/// enabled.
pub fn drain_events() -> Vec<Event> {
    installed_sink()
        .map(|s| s.ring().drain())
        .unwrap_or_default()
}

/// JSON snapshot of the metric registry (empty object when tracing was
/// never enabled).
pub fn registry_snapshot() -> noc_json::Value {
    installed_sink()
        .map(|s| s.registry().snapshot())
        .unwrap_or_else(|| noc_json::Value::Obj(Vec::new()))
}
