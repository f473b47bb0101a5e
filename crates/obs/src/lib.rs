//! `jsdetect-obs`: always-on streaming telemetry for the `jsdetect`
//! pipeline.
//!
//! The detector's north star is corpus-scale traffic, where the questions
//! that matter are "which stage is the tail script stuck in?" and "how
//! often do we hit the failure modes the paper's wild study hits (parse
//! errors, truncated data-flow, unparsable samples)?". This crate answers
//! them with three primitives, all usable from any pipeline layer:
//!
//! - **Spans** ([`span`]): RAII wall-clock timers that nest. Dropping the
//!   guard records one occurrence under a slash-joined path built from the
//!   thread's open spans (`analyze/parse`).
//! - **Counters / gauges / histograms** ([`counter_add`], [`gauge_set`],
//!   [`observe`]): monotonic event counts, last-write-wins values, and
//!   log-scaled value distributions ([`Histogram`]) with interpolated
//!   p50/p90/p99 estimates.
//! - **Exporters**: a human [`render_summary`] table, a structured
//!   [`to_jsonl`] event stream with a stable versioned schema, Prometheus
//!   text exposition ([`render_prometheus`]) for scrape endpoints, and a
//!   Chrome trace-event JSON ([`render_chrome_trace`]) loadable in
//!   Perfetto / `chrome://tracing`, with per-stage self-time attribution
//!   ([`self_times`]).
//!
//! Telemetry is **off by default**. Every recording entry point starts
//! with one relaxed atomic load of the global enabled flag and returns
//! immediately when it is clear, so permanently-compiled-in
//! instrumentation costs a few nanoseconds per call site on the disabled
//! path (asserted against the pipeline's own workload by an integration
//! test in `jsdetect`).
//!
//! Collection is **streaming**: records land directly in per-thread
//! atomic cells and a bounded per-thread trace ring, both readable by any
//! thread at any time. [`snapshot`] merges live state without pausing
//! workers — there is no flush step, and telemetry recorded by a scoped
//! worker thread is visible the moment the record call returns. Metric
//! names come from the [`names`] module so every crate shares one
//! vocabulary.
//!
//! Batches run on one work-stealing pool, [`run_stealing`], whose workers
//! claim the costliest job first and register their recording cells
//! before their first job.
//!
//! # Examples
//!
//! ```
//! jsdetect_obs::set_enabled(true);
//! jsdetect_obs::reset();
//! {
//!     let _outer = jsdetect_obs::span("analyze");
//!     let _inner = jsdetect_obs::span("parse");
//!     jsdetect_obs::counter_add("parse_failures", 1);
//! }
//! let snap = jsdetect_obs::snapshot();
//! assert_eq!(snap.counter("parse_failures"), 1);
//! assert!(snap.span("analyze/parse").is_some());
//! assert!(jsdetect_obs::render_prometheus(&snap).contains("jsdetect_parse_failures_total"));
//! jsdetect_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod export;
mod histogram;
pub mod names;
mod pool;
mod prometheus;
mod registry;
mod ring;
mod trace;

pub use export::{render_summary, to_jsonl, SCHEMA_VERSION};
pub use histogram::{bucket_bounds, bucket_index, Histogram, N_BUCKETS};
pub use pool::{pool_threads, run_stealing};
pub use prometheus::render_prometheus;
pub use registry::{record_span_ns, reset, snapshot, CounterEvent, Snapshot, SpanEvent, SpanStat};
pub use ring::RING_CAP;
pub use trace::{render_chrome_trace, self_times, SelfTime};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Turns telemetry collection on or off process-wide. Spans already open
/// when the flag flips still record on drop; spans opened while disabled
/// never record.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether telemetry collection is enabled. One relaxed atomic load — the
/// entire cost of every instrumentation point on the disabled path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process telemetry epoch: all span `start_ns` offsets are relative
/// to this instant (fixed at the first enabled recording).
fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Telemetry scope for worker closures: construction eagerly sets up the
/// calling thread's recording cells, so a hot loop's first record is
/// cheap. Records are globally visible the moment they are made; the guard
/// only marks the worker's collection scope, and dropping it does nothing.
#[must_use = "bind to a named guard (`let _obs = ...`) so it lives for the whole closure"]
pub struct ScopedCollector {
    _priv: (),
}

impl ScopedCollector {
    /// Prepares the calling thread for recording.
    pub fn new() -> Self {
        registry::touch();
        ScopedCollector { _priv: () }
    }
}

impl Default for ScopedCollector {
    fn default() -> Self {
        ScopedCollector::new()
    }
}

/// An RAII span guard: the span runs from [`span`] until the guard drops.
#[must_use = "a span records its duration when dropped; binding it to `_` drops it immediately"]
pub struct Span {
    /// Interned id of the span's full slash path (sentinel when disabled
    /// or unregistrable).
    path_id: u32,
    /// `None` when telemetry was disabled at enter (the no-op path).
    start: Option<Instant>,
    /// Open-span stack depth at enter; drop truncates back to it, so a
    /// leaked or out-of-order inner guard cannot corrupt later paths.
    depth: usize,
}

/// Opens a span named `name` on the calling thread. Nested calls build
/// slash-joined paths: a `parse` span opened while an `analyze` span is
/// open records as `analyze/parse`.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { path_id: 0, start: None, depth: 0 };
    }
    let Some((path_id, depth)) = registry::open_span(name) else {
        return Span { path_id: 0, start: None, depth: 0 };
    };
    let epoch = epoch();
    Span { path_id, start: Some(Instant::now().max(epoch)), depth }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = saturating_ns(start.elapsed());
        let start_ns = saturating_ns(start.duration_since(epoch()));
        registry::close_span(self.path_id, self.depth, start_ns, dur_ns);
    }
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Adds `n` to a named monotonic counter. No-op when disabled or `n == 0`.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    let ts_ns = saturating_ns(Instant::now().duration_since(epoch()));
    registry::add_counter(name, n, ts_ns);
}

/// Sets a named gauge to `v` (last write wins).
#[inline]
pub fn gauge_set(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    registry::gauge_store(name, v);
}

/// Records `v` into a named log-scaled [`Histogram`].
#[inline]
pub fn observe(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    registry::observe_hist(name, v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; tests that read it must not
    /// interleave.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = locked();
        set_enabled(false);
        reset();
        {
            let _s = span("never");
            counter_add("never", 5);
            observe("never", 5);
            gauge_set("never", 5.0);
        }
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.hists.is_empty());
    }

    #[test]
    fn nested_spans_build_paths() {
        let _g = locked();
        set_enabled(true);
        reset();
        {
            let _a = span("outer");
            {
                let _b = span("mid");
                let _c = span("leaf");
            }
            let _d = span("leaf");
        }
        let snap = snapshot();
        set_enabled(false);
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer/leaf", "outer/mid", "outer/mid/leaf"]);
        assert!(snap.span("outer").unwrap().total_ns >= snap.span("outer/mid").unwrap().total_ns);
    }

    #[test]
    fn counters_gauges_and_hists_aggregate() {
        let _g = locked();
        set_enabled(true);
        reset();
        counter_add("hits", 2);
        counter_add("hits", 3);
        counter_add("zero", 0); // no-op: never materializes
        gauge_set("threads", 4.0);
        gauge_set("threads", 8.0);
        observe("bytes", 100);
        observe("bytes", 10_000);
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counter("hits"), 5);
        assert_eq!(snap.counter("zero"), 0);
        assert!(snap.counters.iter().all(|(n, _)| n != "zero"));
        assert_eq!(snap.gauges, vec![("threads".to_string(), 8.0)]);
        let h = snap.hist("bytes").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 10_100);
    }

    #[test]
    fn reset_clears_everything() {
        let _g = locked();
        set_enabled(true);
        reset();
        counter_add("x", 1);
        let _ = span("x");
        reset();
        let snap = snapshot();
        set_enabled(false);
        assert!(snap.spans.is_empty() && snap.counters.is_empty());
    }

    #[test]
    fn snapshot_is_live_no_flush_needed() {
        let _g = locked();
        set_enabled(true);
        reset();
        let _guard = ScopedCollector::new();
        counter_add("live_counter", 7);
        {
            let _s = span("live_span");
        }
        // Streaming cells are visible without any flush step.
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counter("live_counter"), 7);
        assert_eq!(snap.span("live_span").unwrap().count, 1);
        assert_eq!(snap.events.len(), 1, "ring event visible without flush");
        assert_eq!(snap.counter_events.len(), 1);
        assert_eq!(snap.counter_events[0].name, "live_counter");
        assert_eq!(snap.counter_events[0].delta, 7);
    }

    #[test]
    fn ring_overflow_surfaces_trace_dropped_counter() {
        let _g = locked();
        set_enabled(true);
        reset();
        let extra = 50u64;
        for _ in 0..(RING_CAP as u64 + extra) {
            let _s = span("overflowing");
        }
        let snap = snapshot();
        set_enabled(false);
        // Aggregates keep every record; the ring keeps only the newest.
        assert_eq!(snap.span("overflowing").unwrap().count, RING_CAP as u64 + extra);
        assert_eq!(snap.events.len(), RING_CAP);
        assert_eq!(snap.dropped_events, extra);
        assert_eq!(snap.counter(names::TRACE_DROPPED), extra);
    }
}
