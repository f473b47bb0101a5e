//! Lint's opaque-branch check must stay linear in the script.
//!
//! `unreachable-code` flags a block guarded by a comparison that is
//! statically false, unless the guard variable is written again. Asked by
//! a scan of every binding per branch, that check is O(branches ×
//! bindings): the script below then linted for seconds, and lint runs
//! between deadline checks, so the wild preset's deadline did not bound
//! it.

use jsdetect_suite::features::analyze;
use jsdetect_suite::guard::{Limits, OutcomeKind};
use std::fmt::Write;
use std::time::{Duration, Instant};

#[test]
fn a_script_of_40k_opaque_branches_analyzes_in_linear_time() {
    const N: usize = 40_000;
    let mut src = String::from("var s = 'a';\n");
    for i in 0..N {
        writeln!(src, "var v{i} = 0;").unwrap();
    }
    for _ in 0..N {
        src.push_str("if (s === 'b') { f(); }\n");
    }
    assert!(src.len() > 1_500_000, "{} bytes", src.len());

    let start = Instant::now();
    let r = analyze(&src, &Limits::wild());
    let took = start.elapsed();
    assert_eq!(r.outcome, OutcomeKind::Ok, "{:?}", r.error);
    assert!(took < Duration::from_secs(2), "took {:?}", took);
}
