//! Integration tests for the telemetry layer as wired through the real
//! pipeline: expected span coverage, failure counters, stage-sum
//! accounting, and the overhead bounds with recording off and on.

use jsdetect_suite::detector::{analyze_many, AnalysisConfig, CachedScript, OutcomeKind};
use jsdetect_suite::obs;
use std::sync::Mutex;

/// The telemetry registry is process-global; tests that enable/reset it
/// must not interleave.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The batch analysis path under trusted limits, without a verdict cache.
fn scan(srcs: &[&str]) -> Vec<CachedScript> {
    analyze_many(srcs, &AnalysisConfig::trusted(), None)
}

fn is_ok(c: &CachedScript) -> bool {
    c.outcome == OutcomeKind::Ok
}

const FIXTURE: &str = "function add(a, b) { return a + b; }\n\
    var total = 0;\n\
    for (var i = 0; i < 10; i++) { total = add(total, i); }\n\
    console.log(total);\n";

#[test]
fn analyze_emits_expected_span_set() {
    let _g = locked();
    obs::set_enabled(true);
    obs::reset();
    let out = scan(&[FIXTURE, FIXTURE]);
    assert!(out.iter().all(is_ok));
    let snap = obs::snapshot();
    obs::set_enabled(false);

    for path in [
        "analyze",
        "analyze/parse",
        "analyze/flow",
        "analyze/metrics",
        "analyze/lint",
        "analyze/extract",
        "analyze_many",
    ] {
        let stat = snap.span(path).unwrap_or_else(|| panic!("missing span {}", path));
        assert!(stat.count >= 1, "span {} has zero count", path);
    }
    // The parse is the only lexing pass of a full analysis.
    assert!(snap.span("analyze/lex").is_none(), "a standalone scan ran on the full path");
    assert_eq!(snap.span("analyze").unwrap().count, 2);
    // Extraction, with the drop of the graph, is timed inside every
    // analysis.
    assert_eq!(snap.span("analyze/extract").unwrap().count, 2);
    assert_eq!(snap.counter("scripts_analyzed"), 2);
    assert_eq!(snap.counter("parse_failures"), 0);
    assert_eq!(snap.hist("script_bytes").unwrap().count(), 2);
}

#[test]
fn parse_failure_counter_increments_on_malformed_script() {
    let _g = locked();
    obs::set_enabled(true);
    obs::reset();
    let out = scan(&[FIXTURE, "var ;;; broken ((", FIXTURE]);
    assert_eq!(out.iter().filter(|c| is_ok(c)).count(), 2);
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(snap.counter("parse_failures"), 1);
    assert_eq!(snap.counter("scripts_analyzed"), 3);
}

#[test]
fn stage_spans_sum_close_to_analyze_total() {
    let _g = locked();
    // Large enough scripts that the front-end stages dominate the
    // analyze wall time (struct assembly outside any child span is
    // negligible at this size).
    let srcs: Vec<String> = (0..8)
        .map(|i| {
            (0..200).map(|s| format!("var v{}_{} = {} + f({});", i, s, s, s)).collect::<String>()
        })
        .collect();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    obs::set_enabled(true);
    obs::reset();
    let out = scan(&refs);
    assert!(out.iter().all(is_ok));
    let snap = obs::snapshot();
    obs::set_enabled(false);

    let total = snap.span("analyze").expect("analyze span").total_ns as f64;
    let stage_sum: u64 = snap
        .spans
        .iter()
        .filter(|s| s.path.strip_prefix("analyze/").is_some_and(|rest| !rest.contains('/')))
        .map(|s| s.total_ns)
        .sum();
    let ratio = stage_sum as f64 / total;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "stage sum {}ns vs analyze total {}ns (ratio {:.3})",
        stage_sum,
        total,
        ratio
    );
}

/// The span, counter and histogram events one scan records.
fn events_recorded(srcs: &[&str]) -> u64 {
    obs::set_enabled(true);
    obs::reset();
    std::hint::black_box(scan(srcs));
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(snap.dropped_events, 0, "the event logs held every event of one scan");
    snap.spans.iter().map(|s| s.count).sum::<u64>()
        + snap.counter_events.len() as u64
        + snap.hists.iter().map(|(_, h)| h.count()).sum::<u64>()
}

/// Bounds what telemetry adds to a scan, recording off or on: the cost of
/// one span plus one counter add (amortized over many calls in that mode)
/// per instrumentation point that pays it, over the scan's own wall time
/// with recording off. With recording off every point the front end
/// passes (~25 per script) pays the flag check; with recording on, the
/// recording cost falls on the events the scan records.
fn assert_telemetry_overhead_within(enabled: bool, bound: f64) {
    let _g = locked();
    let srcs: Vec<String> = (0..16)
        .map(|i| (0..60).map(|s| format!("var q{}_{} = {};", i, s, s)).collect::<String>())
        .collect();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let points = if enabled { events_recorded(&refs) } else { 25 * refs.len() as u64 };
    assert!(points > 0, "a scan recorded no events");

    obs::set_enabled(enabled);
    let calls = 1_000_000u32;
    let t0 = std::time::Instant::now();
    for _ in 0..calls {
        let _s = obs::span("bench");
        obs::counter_add("bench", 1);
    }
    let per_call_ns = t0.elapsed().as_nanos() as f64 / calls as f64;
    obs::set_enabled(false);
    obs::reset();

    let mut medians: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(scan(&refs));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    medians.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let workload_ns = medians[medians.len() / 2];

    let overhead = per_call_ns * points as f64 / workload_ns;
    assert!(
        overhead <= bound,
        "telemetry (enabled={}) overhead {:.4}% exceeds {}% ({}ns per point, {} points, workload {}ns)",
        enabled,
        overhead * 100.0,
        bound * 100.0,
        per_call_ns,
        points,
        workload_ns
    );
}

#[test]
fn disabled_telemetry_overhead_is_negligible() {
    assert_telemetry_overhead_within(false, 0.02);
}

#[test]
fn enabled_telemetry_overhead_stays_under_five_percent() {
    assert_telemetry_overhead_within(true, 0.05);
}

#[test]
fn worker_telemetry_lands_before_snapshot_and_reset_isolates_runs() {
    // Regression: scoped worker threads signal completion before their
    // TLS destructors run, so a destructor-only flush raced with the
    // coordinator's snapshot — events either went missing or leaked into
    // the *next* run's (post-reset) snapshot. Workers now flush
    // explicitly; two back-to-back runs must each see exactly their own
    // scripts.
    let _g = locked();
    for n_scripts in [2usize, 8, 3] {
        let srcs: Vec<String> = (0..n_scripts)
            .map(|i| (0..50).map(|s| format!("var w{}_{} = {};", i, s, s)).collect::<String>())
            .collect();
        let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
        obs::set_enabled(true);
        obs::reset();
        let out = scan(&refs);
        assert!(out.iter().all(is_ok));
        let snap = obs::snapshot();
        obs::set_enabled(false);
        let analyze = snap.span("analyze").expect("analyze span recorded");
        assert_eq!(analyze.count, n_scripts as u64, "run with {} scripts", n_scripts);
        assert_eq!(snap.counter("scripts_analyzed"), n_scripts as u64);
    }
}
