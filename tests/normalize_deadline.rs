//! The analysis deadline bounds normalization and the delta measurement
//! after it.
//!
//! Normalization and the measurement charge the script's own budget, and
//! the front end checks the deadline after lint and after the
//! normalization deltas. A script whose parse, flow and lint fit a short
//! deadline but whose normalization or measurement does not is rejected
//! with `deadline_exceeded`: the neutral delta block of a stage cut short
//! never reaches a payload.
//!
//! Both scripts pool one string and read it through an accessor, which
//! `array-inline` replaces by the pooled string at every read.

use jsdetect_suite::features::{analyze, measure_deltas, TreeStats};
use jsdetect_suite::guard::{Budget, Limits, OutcomeKind};
use jsdetect_suite::normalize::{normalize_program, NormalizeOptions};
use std::time::{Duration, Instant};

const DEADLINE_MS: u64 = 500;

/// A script pooling one `pooled_len`-byte string, with `lines` calls that
/// each take a `+` chain of `chain` reads of it.
fn pooled(pooled_len: usize, chain: usize, lines: usize) -> String {
    let pooled: String = (0..pooled_len).map(|i| char::from(b'a' + (i * 7 % 26) as u8)).collect();
    let chain = vec!["b('0x0')"; chain].join(" + ");
    let mut src =
        format!("var a = ['{pooled}'];\nvar b = function (i) {{ return a[parseInt(i, 16)]; }};\n");
    for _ in 0..lines {
        src += &format!("f({chain});\n");
    }
    src
}

/// Asserts that `src` is rejected for its deadline, and within `bound`.
fn rejected_within(src: &str, bound: Duration) {
    let t = Instant::now();
    let r = analyze(src, &Limits { deadline_ms: DEADLINE_MS, ..Limits::wild() });
    let took = t.elapsed();
    assert_eq!(r.outcome, OutcomeKind::Rejected);
    assert!(r.payload.is_none());
    assert_eq!(r.error.unwrap().kind(), "deadline_exceeded");
    assert!(took < bound, "rejected only after {:?}", took);
}

/// 1 000 chains of 16 reads of a 64 KB string: normalization folds each
/// chain into one 1 MB literal, so it builds gigabytes of strings from a
/// 240 KB script (~5 s on a 2-vCPU host, against ~30 ms for parse, flow
/// and lint).
#[test]
fn normalization_past_the_deadline_rejects() {
    let src = pooled(64 * 1024, 16, 1_000);
    let deadline = Duration::from_millis(DEADLINE_MS);

    // The early stages alone fit the deadline with room to spare.
    let t = Instant::now();
    let program = jsdetect_suite::parser::parse(&src).unwrap();
    let graph = jsdetect_suite::flow::analyze(&program);
    jsdetect_suite::lint::lint(&src, &program, &graph);
    let front = t.elapsed();
    assert!(front < deadline / 2, "parse, flow and lint took {:?}", front);

    // Normalization stops at the deadline instead of running its passes
    // to the end.
    rejected_within(&src, deadline * 6);
}

/// 5 000 single reads of a 1 MB string: normalization is cheap, but the
/// measurement takes the byte entropy of every one of the 5 000 inlined
/// copies, 5 GB of string bytes.
#[test]
fn delta_measurement_past_the_deadline_rejects() {
    let src = pooled(1 << 20, 1, 5_000);
    let deadline = Duration::from_millis(DEADLINE_MS);

    // Parse, flow, lint and normalization fit the deadline with room to
    // spare; the measurement alone takes several deadlines.
    let unbounded = Budget::new(&Limits::unbounded());
    let t = Instant::now();
    let program = jsdetect_suite::parser::parse(&src).unwrap();
    let tree = TreeStats::of(&program);
    let graph = jsdetect_suite::flow::analyze(&program);
    let lint = jsdetect_suite::lint::lint(&src, &program, &graph).1;
    let (normalized, report) =
        normalize_program(program, Some(&graph.scopes), &NormalizeOptions::default(), &unbounded);
    let front = t.elapsed();
    assert_eq!(report.outcome, OutcomeKind::Ok);
    let normalized = normalized.unwrap();
    let t = Instant::now();
    measure_deltas(&src, &tree, &normalized.program, normalized.scopes, &lint, &unbounded);
    let measure = t.elapsed();
    assert!(front < deadline / 2, "parse, flow, lint and normalization took {:?}", front);
    assert!(measure > deadline * 3, "the measurement took only {:?}", measure);

    // The measurement stops at the deadline instead of running to the
    // end.
    rejected_within(&src, deadline * 2);
}
