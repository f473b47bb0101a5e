//! The analysis deadline bounds normalization too.
//!
//! Normalization charges the script's own budget, and the front end
//! checks the deadline after lint and after the normalization deltas. A
//! script whose parse, flow and lint fit a short deadline but whose
//! normalization does not is rejected with `deadline_exceeded`: the
//! degraded normalization never becomes a neutral delta block in a
//! payload.
//!
//! The script pools one 64 KB string and reads it 16 times in each of
//! 1 000 `+` chains. Normalization inlines every read and folds each chain
//! into one 1 MB literal, so it builds gigabytes of strings from a
//! 240 KB script (~5 s on a 2-vCPU host, against ~30 ms for parse, flow
//! and lint).

use jsdetect_suite::features::analyze;
use jsdetect_suite::guard::{Limits, OutcomeKind};
use std::time::{Duration, Instant};

const DEADLINE_MS: u64 = 500;

fn pooled_chains(n: usize) -> String {
    let pooled: String = (0..64 * 1024).map(|i| char::from(b'a' + (i * 7 % 26) as u8)).collect();
    let chain = vec!["b('0x0')"; 16].join(" + ");
    let mut src =
        format!("var a = ['{pooled}'];\nvar b = function (i) {{ return a[parseInt(i, 16)]; }};\n");
    for _ in 0..n {
        src += &format!("f({chain});\n");
    }
    src
}

#[test]
fn normalization_past_the_deadline_rejects() {
    let src = pooled_chains(1_000);
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
