//! Per-binding scope queries must stay linear in the script.
//!
//! Lint's `unused-binding` rule, normalization's constant propagation and
//! the hand-picked `unused_binding_ratio` each ask for the references of
//! every binding. Answered by a filter over all references, that is
//! O(bindings × references): the script below then took seconds in each
//! of the three stages, and none of them runs after a deadline check, so
//! the wild preset's deadline did not bound them.

use jsdetect_suite::features::analyze;
use jsdetect_suite::guard::{Limits, OutcomeKind};
use std::fmt::Write;
use std::time::{Duration, Instant};

#[test]
fn a_script_of_32k_bindings_analyzes_in_linear_time() {
    let mut src = String::new();
    for i in 0..32_000 {
        writeln!(src, "var v{i} = 0; v{i} = 1;").unwrap();
    }
    assert!(src.len() > 850_000, "{} bytes", src.len());

    let start = Instant::now();
    let r = analyze(&src, &Limits::wild());
    let took = start.elapsed();
    assert_eq!(r.outcome, OutcomeKind::Ok, "{:?}", r.error);
    assert!(took < Duration::from_secs(2), "took {:?}", took);
}
