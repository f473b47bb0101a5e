//! Integration tests: cross-thread span collection and the JSONL schema
//! contract (golden file).

use jsdetect_obs as obs;
use std::sync::Mutex;

/// The registry is process-global; tests in this binary must not
/// interleave their record/snapshot windows.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn span_nesting_is_per_thread() {
    let _g = locked();
    obs::set_enabled(true);
    obs::reset();
    // Two threads record the same nested structure concurrently, the way
    // the forest's chunked batch-predict workers do; nesting state is
    // thread-local, so neither thread sees the other's open spans.
    let workers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(|| {
                let _outer = obs::span("outer");
                for _ in 0..3 {
                    let _inner = obs::span("inner");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let snap = obs::snapshot();
    obs::set_enabled(false);

    let outer = snap.span("outer").expect("outer span");
    let inner = snap.span("outer/inner").expect("nested path");
    assert_eq!(outer.count, 2);
    assert_eq!(inner.count, 6);
    assert!(snap.span("inner").is_none(), "inner must never appear as a root span");
    // Events carry the recording thread; the two workers are distinct.
    let mut threads: Vec<u64> =
        snap.events.iter().filter(|e| e.path == "outer").map(|e| e.thread).collect();
    threads.dedup();
    assert_eq!(threads.len(), 2, "expected two recording threads: {:?}", threads);
    // Parent wall time bounds its children's.
    assert!(outer.total_ns >= inner.total_ns / 3);
}

#[test]
fn worker_buffers_flush_on_thread_exit() {
    let _g = locked();
    obs::set_enabled(true);
    obs::reset();
    std::thread::spawn(|| {
        obs::counter_add("worker_events", 7);
        obs::observe("worker_bytes", 4096);
    })
    .join()
    .unwrap();
    // No explicit flush on the worker: its thread-local destructor must
    // have merged the buffer before join() returned.
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(snap.counter("worker_events"), 7);
    assert_eq!(snap.hist("worker_bytes").unwrap().count(), 1);
}

fn hist(values: &[u64]) -> obs::Histogram {
    let mut h = obs::Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// A fully deterministic snapshot: two threads' `analyze` and
/// `analyze/parse` spans, two counters, a gauge and a histogram.
fn golden_snapshot() -> obs::Snapshot {
    let span = |path: &str, start_ns, dur_ns, thread| obs::SpanEvent {
        path: path.to_string(),
        start_ns,
        dur_ns,
        thread,
    };
    obs::Snapshot {
        spans: vec![
            obs::SpanStat::of("analyze".to_string(), hist(&[5_000_000, 2_000_000])),
            obs::SpanStat::of("analyze/parse".to_string(), hist(&[3_000_000, 1_500_000])),
        ],
        events: vec![
            span("analyze", 0, 5_000_000, 0),
            span("analyze/parse", 1_000, 3_000_000, 0),
            span("analyze/parse", 6_000_000, 1_500_000, 1),
            span("analyze", 6_000_000, 2_000_000, 1),
        ],
        counters: vec![("parse_failures".to_string(), 1), ("scripts_analyzed".to_string(), 2)],
        gauges: vec![("analyze_threads".to_string(), 2.0)],
        hists: vec![("script_bytes".to_string(), hist(&[512, 100_000]))],
        ..obs::Snapshot::default()
    }
}

#[test]
fn jsonl_matches_golden_file() {
    let snap = golden_snapshot();
    let jsonl = obs::to_jsonl(&snap);
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/telemetry.jsonl");
    if std::env::var_os("OBS_REGEN_GOLDEN").is_some() {
        std::fs::write(golden_path, &jsonl).expect("regenerate golden file");
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file");
    assert_eq!(
        jsonl, golden,
        "JSONL schema drifted from the golden file; if the change is \
         intentional, bump SCHEMA_VERSION and regenerate tests/golden/telemetry.jsonl"
    );
}

#[test]
fn jsonl_lines_are_valid_json_with_stable_fields() {
    let snap = golden_snapshot();
    let jsonl = obs::to_jsonl(&snap);
    let mut types = Vec::new();
    for line in jsonl.lines() {
        let v: serde_json::JsonValue =
            serde_json::from_str(line).expect("every line parses as JSON");
        let obj = v.as_obj().expect("every line is an object").to_vec();
        let ty = match obj.iter().find(|(n, _)| n == "type").map(|(_, v)| v) {
            Some(serde_json::JsonValue::Str(s)) => s.clone(),
            other => panic!("type field missing or not a string: {:?}", other),
        };
        let expected: &[&str] = match ty.as_str() {
            "meta" => &["type", "schema", "span_paths", "events", "dropped_events"],
            "span_stat" => {
                &["type", "path", "count", "total_ns", "min_ns", "max_ns", "p50_ns", "p99_ns"]
            }
            "span" => &["type", "path", "thread", "start_ns", "dur_ns"],
            "counter" | "gauge" => &["type", "name", "value"],
            "hist" => &["type", "name", "count", "sum", "min", "max", "buckets"],
            other => panic!("unknown record type {}", other),
        };
        let keys: Vec<&str> = obj.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(keys, expected, "field set/order drifted for type {}", ty);
        types.push(ty);
    }
    assert_eq!(types[0], "meta", "meta must be the first line");
    for ty in ["span_stat", "span", "counter", "gauge", "hist"] {
        assert!(types.iter().any(|t| t == ty), "missing record type {}", ty);
    }
}

#[test]
fn summary_renders_all_sections() {
    let snap = golden_snapshot();
    let summary = obs::render_summary(&snap);
    for needle in
        ["analyze/parse", "counters", "parse_failures", "gauges", "histograms", "script_bytes"]
    {
        assert!(summary.contains(needle), "summary missing {:?}:\n{}", needle, summary);
    }
}
