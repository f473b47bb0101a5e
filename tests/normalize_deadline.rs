//! The analysis deadline bounds normalization too.
//!
//! Normalization charges the script's own budget, and the front end
//! checks the deadline after lint and after the normalization deltas. A
//! script whose parse, flow and lint fit a short deadline but whose
//! normalization does not is rejected with `deadline_exceeded`: the
//! degraded normalization never becomes a neutral delta block in a
//! payload.
//!
//! The script is 2 000 global-string-array preludes, each with one
//! accessor call. The array-inline pass runs a scope analysis of the
//! whole program per prelude, so its cost grows with the square of the
//! script (~5 s on a 2-vCPU host, against ~35 ms for parse, flow and
//! lint).

use jsdetect_suite::features::analyze;
use jsdetect_suite::guard::{Limits, OutcomeKind};
use std::time::{Duration, Instant};

const DEADLINE_MS: u64 = 500;

fn pools(n: usize) -> String {
    (0..n)
        .map(|i| {
            format!(
                "var a{i} = ['s{i}']; \
                 var b{i} = function (i) {{ return a{i}[parseInt(i, 16)]; }}; \
                 f(b{i}('0x0'));\n"
            )
        })
        .collect()
}

#[test]
fn normalization_past_the_deadline_rejects() {
    let src = pools(2_000);
    let deadline = Duration::from_millis(DEADLINE_MS);

    // The early stages alone fit the deadline with room to spare.
    let t = Instant::now();
    let program = jsdetect_suite::parser::parse(&src).unwrap();
    let graph = jsdetect_suite::flow::analyze(&program);
    jsdetect_suite::lint::lint(&src, &program, &graph);
    let front = t.elapsed();
    assert!(front < deadline / 2, "parse, flow and lint took {:?}", front);

    let t = Instant::now();
    let r = analyze(&src, &Limits { deadline_ms: DEADLINE_MS, ..Limits::wild() });
    let took = t.elapsed();
    assert_eq!(r.outcome, OutcomeKind::Rejected);
    assert!(r.payload.is_none());
    assert_eq!(r.error.unwrap().kind(), "deadline_exceeded");
    // Normalization stops at the deadline instead of running its passes
    // to the end.
    assert!(took < deadline * 6, "rejected only after {:?}", took);
}
