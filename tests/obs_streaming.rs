//! Integration tests for the streaming observability layer against the
//! real pipeline: exported-name hygiene (every metric name that reaches
//! JSONL or Prometheus output obeys the registered-name grammar, including
//! the runtime-composed `guard/<kind>` counters), the structure of the
//! Chrome trace export end to end, and `jsdetect-cli trace`'s self-time
//! table over an exported trace.

use jsdetect_suite::detector::{analyze_many, AnalysisConfig, OutcomeKind};
use jsdetect_suite::obs::{self, names};
use std::sync::Mutex;

/// The telemetry registry is process-global; tests that enable/reset it
/// must not interleave.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const FIXTURE: &str = "function add(a, b) { return a + b; }\n\
    var total = 0;\n\
    for (var i = 0; i < 10; i++) { total = add(total, i); }\n\
    console.log(total);\n";

/// Runs a batch that exercises the happy path, a parse failure, and a
/// guard rejection, so the snapshot carries spans, static counters, a
/// runtime-composed `guard/<kind>` counter, a gauge, and a histogram.
fn representative_snapshot() -> obs::Snapshot {
    obs::set_enabled(true);
    obs::reset();
    let bomb = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
    let srcs = [FIXTURE, "var ;;; broken ((", bomb.as_str()];
    let out = analyze_many(&srcs, &AnalysisConfig::default(), None);
    assert_eq!(out.len(), 3);
    let snap = obs::snapshot();
    obs::set_enabled(false);
    snap
}

#[test]
fn every_exported_name_is_grammatical() {
    let _g = locked();
    let snap = representative_snapshot();

    // The run must actually have produced a composed guard counter, or
    // the test would vacuously pass on the static vocabulary alone.
    assert!(
        snap.counters.iter().any(|(name, _)| name.starts_with("guard/")),
        "expected a guard/<kind> counter from the rejected script; got {:?}",
        snap.counters.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
    );

    for s in &snap.spans {
        assert!(names::is_valid_metric_name(&s.path), "span path {:?} violates grammar", s.path);
    }
    for name in snap.counters.iter().map(|(n, _)| n).chain(snap.gauges.iter().map(|(n, _)| n)) {
        assert!(names::is_valid_metric_name(name), "metric name {:?} violates grammar", name);
    }
    for (name, _) in &snap.hists {
        assert!(names::is_valid_metric_name(name), "histogram name {:?} violates grammar", name);
    }

    // Every name that reaches the JSONL export must satisfy the grammar.
    let mut jsonl_names = 0usize;
    for line in obs::to_jsonl(&snap).lines() {
        let v: serde_json::JsonValue = serde_json::from_str(line).expect("JSONL line parses");
        for key in ["path", "name"] {
            if let Some(serde_json::JsonValue::Str(name)) = v.get(key) {
                assert!(
                    names::is_valid_metric_name(name),
                    "JSONL-exported name {:?} violates grammar",
                    name
                );
                jsonl_names += 1;
            }
        }
    }
    assert!(jsonl_names > 10, "JSONL export suspiciously empty ({} names)", jsonl_names);

    // Prometheus metric names: `jsdetect_` prefix, then [a-z0-9_] only.
    let mut prom_names = 0usize;
    for line in obs::render_prometheus(&snap).lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let name = line.split(['{', ' ']).next().unwrap();
        assert!(
            name.strip_prefix("jsdetect_").is_some_and(|rest| {
                !rest.is_empty()
                    && rest
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
            }),
            "prometheus metric name {:?} is malformed (line {:?})",
            name,
            line
        );
        prom_names += 1;
    }
    assert!(prom_names > 10, "prometheus export suspiciously empty ({} samples)", prom_names);
}

#[test]
fn chrome_trace_export_parses_with_expected_structure() {
    let _g = locked();
    obs::set_enabled(true);
    obs::reset();
    let out = analyze_many(&[FIXTURE, FIXTURE, FIXTURE], &AnalysisConfig::trusted(), None);
    assert!(out.iter().all(|c| c.outcome == OutcomeKind::Ok));
    let snap = obs::snapshot();
    obs::set_enabled(false);

    let trace = obs::render_chrome_trace(&snap);
    let v: serde_json::JsonValue = serde_json::from_str(&trace).expect("trace JSON parses");
    assert_eq!(
        v.get("displayTimeUnit"),
        Some(&serde_json::JsonValue::Str("ms".to_string())),
        "trace must declare ms display units"
    );
    let events = v.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");
    assert!(!events.is_empty());

    let (mut n_meta, mut n_complete) = (0usize, 0usize);
    let mut span_names = Vec::new();
    for ev in events {
        let ph = match ev.get("ph") {
            Some(serde_json::JsonValue::Str(ph)) => ph.as_str(),
            other => panic!("event without string ph: {:?}", other),
        };
        assert!(matches!(ph, "M" | "X" | "C"), "unexpected event phase {:?}", ph);
        for key in ["name", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "{} event missing {:?}", ph, key);
        }
        match ph {
            "M" => n_meta += 1,
            "X" => {
                n_complete += 1;
                assert!(ev.get("ts").is_some() && ev.get("dur").is_some());
                if let Some(serde_json::JsonValue::Str(name)) = ev.get("name") {
                    span_names.push(name.clone());
                }
            }
            _ => {}
        }
    }
    assert!(n_meta >= 2, "expected process + thread name metadata, saw {}", n_meta);
    assert!(n_complete >= 3, "expected complete span events, saw {}", n_complete);
    assert!(span_names.iter().any(|n| n == "analyze"));
    assert!(span_names.iter().any(|n| n == "analyze/parse"));

    // Self-time attribution is conservative: every nanosecond belongs to
    // exactly one span, so the self-time total equals the root spans' total.
    let selfs = obs::self_times(&snap);
    let self_sum: u64 = selfs.iter().map(|s| s.self_ns).sum();
    let root_sum: u64 =
        snap.spans.iter().filter(|s| !s.path.contains('/')).map(|s| s.total_ns).sum();
    assert_eq!(self_sum, root_sum, "self-time must partition the root spans' wall time");
    // Hottest-first ordering.
    for pair in selfs.windows(2) {
        assert!(pair[0].self_ns >= pair[1].self_ns);
    }
}

#[test]
fn cli_trace_prints_self_times_of_an_exported_trace() {
    let span = |path: &str, start_ns, dur_ns, thread| obs::SpanEvent {
        path: path.to_string(),
        start_ns,
        dur_ns,
        thread,
    };
    let snap = obs::Snapshot {
        events: vec![
            span("analyze", 0, 5_000_000, 0),
            span("analyze/parse", 1_000, 3_000_000, 0),
            span("analyze", 6_000_000, 2_000_000, 1),
            span("analyze/parse", 6_000_000, 1_500_000, 1),
            span("analyze/parse/scan", 6_100_000, 250_000, 1),
        ],
        ..obs::Snapshot::default()
    };
    let file = std::env::temp_dir().join(format!("jsdetect-cli-trace-{}.json", std::process::id()));
    std::fs::write(&file, obs::render_chrome_trace(&snap)).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_jsdetect-cli"))
        .arg("trace")
        .arg(&file)
        .output()
        .expect("run jsdetect-cli trace");
    let _ = std::fs::remove_file(&file);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<Vec<&str>> =
        stdout.lines().skip(1).map(|l| l.split_whitespace().collect()).collect();
    // Self = total − direct children, hottest first: parse 4.5 − 0.25,
    // analyze 7 − 4.5, scan 0.25.
    assert_eq!(
        rows,
        vec![
            vec!["analyze/parse", "2", "4.500", "4.250"],
            vec!["analyze", "2", "7.000", "2.500"],
            vec!["analyze/parse/scan", "1", "0.250", "0.250"],
        ],
        "{}",
        stdout
    );
}
