//! Chrome trace-event JSON exporter (Perfetto / `chrome://tracing`
//! loadable) and per-stage self-time attribution.
//!
//! [`render_chrome_trace`] converts a snapshot's retained raw events into
//! the trace-event format's JSON object form: one `"M"` metadata event
//! naming each thread track, one `"X"` complete event per retained span
//! (microsecond `ts`/`dur`, nesting reconstructed by the viewer from
//! containment), and one `"C"` counter event per retained counter
//! increment carrying the running cumulative value, so counters render as
//! step charts alongside the span tracks.
//!
//! [`self_times`] answers "where does the time actually go" without a
//! viewer: for every span path it subtracts the time attributed to direct
//! child paths (`path/<leaf>`), leaving the stage's own work. Parents
//! whose children explain everything drop to ~0 and stop hiding the
//! expensive leaf.

use crate::registry::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write;

/// JSON string escaping (control characters, quotes, backslashes).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds → trace-event microseconds with sub-µs precision kept.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Renders the snapshot's retained raw events as Chrome trace-event JSON.
/// Load the output in <https://ui.perfetto.dev> or `chrome://tracing`.
/// Bounded by the per-thread event log capacity ([`crate::RING_CAP`]);
/// dropped history is reported by the `obs/trace_dropped` counter, not
/// silently absent.
pub fn render_chrome_trace(snap: &Snapshot) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&ev);
    };

    push(
        &mut out,
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"jsdetect\"}}"
            .to_string(),
    );
    let mut threads: Vec<u64> = snap
        .events
        .iter()
        .map(|e| e.thread)
        .chain(snap.counter_events.iter().map(|e| e.thread))
        .collect();
    threads.sort_unstable();
    threads.dedup();
    for t in &threads {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"worker-{}\"}}}}",
                t, t
            ),
        );
    }

    for ev in &snap.events {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"span\",\
                 \"ts\":{},\"dur\":{}}}",
                ev.thread,
                esc(&ev.path),
                us(ev.start_ns),
                us(ev.dur_ns)
            ),
        );
    }

    // Counter events carry the running total so viewers draw a step chart.
    let mut running: BTreeMap<&str, u64> = BTreeMap::new();
    for ev in &snap.counter_events {
        let total = running.entry(ev.name.as_str()).or_insert(0);
        *total += ev.delta;
        push(
            &mut out,
            format!(
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{},\
                 \"args\":{{\"value\":{}}}}}",
                ev.thread,
                esc(&ev.name),
                us(ev.ts_ns),
                total
            ),
        );
    }

    out.push_str("\n]}\n");
    out
}

/// Wall-clock attribution for one span path after subtracting its direct
/// children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTime {
    /// Slash-joined span path.
    pub path: String,
    /// Completed occurrences.
    pub count: u64,
    /// Total inclusive time, nanoseconds.
    pub total_ns: u64,
    /// Total minus the time attributed to direct child paths
    /// (`path/<leaf>`), saturating at 0 — the stage's own work.
    pub self_ns: u64,
}

/// Per-path self time from the snapshot's span aggregates, sorted by
/// descending `self_ns`. Children deeper than one level are already
/// accounted inside the direct children's totals, so each nanosecond is
/// attributed to exactly one path.
pub fn self_times(snap: &Snapshot) -> Vec<SelfTime> {
    let mut child_total: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &snap.spans {
        if let Some(idx) = s.path.rfind('/') {
            let parent = &s.path[..idx];
            *child_total.entry(parent).or_insert(0) += s.total_ns;
        }
    }
    let mut out: Vec<SelfTime> = snap
        .spans
        .iter()
        .map(|s| SelfTime {
            path: s.path.clone(),
            count: s.count,
            total_ns: s.total_ns,
            self_ns: s
                .total_ns
                .saturating_sub(child_total.get(s.path.as_str()).copied().unwrap_or(0)),
        })
        .collect();
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::registry::{CounterEvent, SpanEvent, SpanStat};

    fn stat(path: &str, count: u64, total_ns: u64) -> SpanStat {
        let mut latency = Histogram::new();
        latency.record(total_ns / count.max(1));
        SpanStat { path: path.to_string(), count, total_ns, min_ns: 0, max_ns: total_ns, latency }
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            spans: vec![
                stat("analyze", 2, 10_000),
                stat("analyze/lex", 2, 2_000),
                stat("analyze/parse", 2, 3_000),
                stat("analyze/parse/scan", 2, 1_000),
            ],
            events: vec![
                SpanEvent { path: "analyze".into(), start_ns: 1_000, dur_ns: 5_000, thread: 0 },
                SpanEvent {
                    path: "analyze/parse".into(),
                    start_ns: 1_500,
                    dur_ns: 1_500,
                    thread: 0,
                },
                SpanEvent { path: "analyze".into(), start_ns: 2_000, dur_ns: 5_000, thread: 1 },
            ],
            counters: vec![("cache/hit".to_string(), 3)],
            gauges: Vec::new(),
            hists: Vec::new(),
            counter_events: vec![
                CounterEvent { name: "cache/hit".into(), ts_ns: 1_200, delta: 1, thread: 0 },
                CounterEvent { name: "cache/hit".into(), ts_ns: 2_500, delta: 2, thread: 1 },
            ],
            dropped_events: 0,
        }
    }

    #[test]
    fn trace_json_has_metadata_spans_and_cumulative_counters() {
        let json = render_chrome_trace(&sample_snapshot());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"args\":{\"name\":\"worker-0\"}"));
        assert!(json.contains("\"args\":{\"name\":\"worker-1\"}"));
        assert!(json.contains(
            "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"analyze/parse\",\"cat\":\"span\",\
             \"ts\":1.500,\"dur\":1.500}"
        ));
        // Counter samples carry the running total: 1 then 1+2=3.
        assert!(json.contains("\"ts\":1.200,\"args\":{\"value\":1}"));
        assert!(json.contains("\"ts\":2.500,\"args\":{\"value\":3}"));
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let by_path: BTreeMap<String, u64> =
            self_times(&sample_snapshot()).into_iter().map(|s| (s.path, s.self_ns)).collect();
        // analyze: 10000 − (lex 2000 + parse 3000); scan is parse's child.
        assert_eq!(by_path["analyze"], 5_000);
        assert_eq!(by_path["analyze/parse"], 2_000);
        assert_eq!(by_path["analyze/parse/scan"], 1_000);
        assert_eq!(by_path["analyze/lex"], 2_000);
        // Every ns attributed exactly once: self times sum to the root.
        assert_eq!(by_path.values().sum::<u64>(), 10_000);
    }

    #[test]
    fn self_times_sorted_by_descending_self_ns() {
        let times = self_times(&sample_snapshot());
        for pair in times.windows(2) {
            assert!(pair[0].self_ns >= pair[1].self_ns);
        }
    }

    #[test]
    fn empty_snapshot_is_still_valid_trace_json() {
        let json = render_chrome_trace(&Snapshot::default());
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
    }
}
