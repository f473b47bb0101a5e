//! Normalized-vs-original delta features.
//!
//! Obfuscation artifacts are, by construction, things the
//! [`jsdetect_normalize`] pass suite can remove: folded-away constant
//! indirection, collapsed string fragments, inlined string pools,
//! unflattened comma chains. A script that *shrinks a lot* under
//! normalization — or whose lint-rule densities drop — is carrying
//! removable obfuscation structure, and that difference is itself a
//! signal. This module measures it: one AST-size ratio, one
//! string-entropy delta, and one density delta per lint rule.
//!
//! Determinism matters here (cached payloads must replay bit-identically),
//! so normalization runs with the wall-clock deadline disabled and relies
//! on the rewrite-fuel and round caps alone; a degraded normalization
//! yields the neutral vector instead of a partial measurement.
//!
//! A normalization with zero rewrites also yields the neutral vector,
//! without re-analysing the tree: the tree is then the input, and the full
//! measurement gives exactly the neutral bits (`n / n` is 1.0 for a node
//! count of at least 1, `x - x` is +0.0 for finite `x`). `tests/normalize.rs`
//! pins that equality over every corpus; 37% of the benchmark's seed-7
//! `cold_scan` crawl takes this path.

use crate::analysis::ScriptAnalysis;
use crate::handpicked::byte_entropy;
use jsdetect_ast::{walk, Expr, Lit, LitValue, NodeRef, Program};
use jsdetect_guard::{Limits, OutcomeKind};
use jsdetect_lint::{LintRunner, LintSummary, N_RULES, RULE_NAMES};
use jsdetect_normalize::{normalize_program, NormalizeOptions};
use jsdetect_obs::names;

/// Number of delta dimensions: node-count ratio, string-entropy delta,
/// and one lint-density delta per rule.
pub const N_NORMALIZE: usize = 2 + N_RULES;

/// The vector produced when normalization cannot be measured (degraded
/// analyses, degraded normalization): ratio 1.0, all deltas 0.0 —
/// "normalization changed nothing".
pub fn neutral_deltas() -> Vec<f32> {
    let mut v = vec![0.0; N_NORMALIZE];
    v[0] = 1.0;
    v
}

/// Names for the delta block, in order.
pub fn delta_feature_names() -> Vec<String> {
    let mut names =
        vec!["normalize:node_ratio".to_string(), "normalize:str_entropy_delta".to_string()];
    names.extend(RULE_NAMES.iter().map(|r| format!("normalize:lint_delta:{}", r)));
    names
}

/// Computes the delta block for one parsed script.
///
/// `src` is the *original* source text — the normalized AST is linted
/// against it so the charset-based rules see the same bytes both times
/// and only structural rules can move.
pub fn normalize_deltas(
    src: &str,
    program: &Program,
    orig_nodes: usize,
    lint: &LintSummary,
) -> Vec<f32> {
    let _t = jsdetect_obs::span(names::SPAN_NORMALIZE_DELTAS);
    // Deadline off for determinism; fuel and round caps still bound work.
    let opts = NormalizeOptions { limits: Limits::unbounded(), ..NormalizeOptions::default() };
    let (normalized, report) = normalize_program(program, &opts);
    if report.outcome != OutcomeKind::Ok || report.total_rewrites() == 0 {
        return neutral_deltas();
    }
    measure_deltas(src, program, &normalized, orig_nodes, lint)
}

/// The full delta measurement of `normalized` against the original
/// `program` (whose node count and lint summary the caller already has).
///
/// [`normalize_deltas`] skips it when nothing was rewritten; it is public
/// so tests can check that the skip changes no bit.
pub fn measure_deltas(
    src: &str,
    program: &Program,
    normalized: &Program,
    orig_nodes: usize,
    lint: &LintSummary,
) -> Vec<f32> {
    let norm_shape = jsdetect_ast::metrics::tree_shape(normalized);
    let mut v = Vec::with_capacity(N_NORMALIZE);
    v.push(norm_shape.node_count as f32 / orig_nodes.max(1) as f32);
    v.push(avg_string_entropy(normalized) - avg_string_entropy(program));
    let graph = jsdetect_flow::analyze(normalized);
    let norm_lint = LintRunner::default().run_with_summary(src, normalized, &graph).1;
    let orig_densities = lint.features();
    let norm_densities = norm_lint.features();
    for i in 0..N_RULES {
        v.push(norm_densities[i] - orig_densities[i]);
    }
    v
}

/// Convenience wrapper over a finished analysis (used by tests and
/// callers that did not keep the parts separate).
pub fn normalize_deltas_for(a: &ScriptAnalysis) -> Vec<f32> {
    if a.degraded {
        return neutral_deltas();
    }
    normalize_deltas(&a.src, &a.program, a.shape.node_count, &a.lint)
}

/// Mean per-string byte entropy of the string literals in a program
/// (0.0 when there are none) — the same statistic the hand-picked
/// `avg_string_entropy` feature uses, recomputed on a rewritten AST.
fn avg_string_entropy(p: &Program) -> f32 {
    let mut sum = 0.0f64;
    let mut n = 0usize;
    walk(p, &mut |node, _| {
        if let NodeRef::Expr(Expr::Lit(Lit { value: LitValue::Str(s), .. })) = node {
            sum += byte_entropy(s);
            n += 1;
        }
    });
    if n == 0 {
        0.0
    } else {
        (sum / n as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_script;
    use jsdetect_transform::{apply, Technique};

    #[test]
    fn neutral_vector_shape() {
        let v = neutral_deltas();
        assert_eq!(v.len(), N_NORMALIZE);
        assert_eq!(v[0], 1.0);
        assert!(v[1..].iter().all(|&x| x == 0.0));
        assert_eq!(delta_feature_names().len(), N_NORMALIZE);
    }

    #[test]
    fn clean_code_is_near_neutral() {
        let a = analyze_script("function f(a) { return a + 1; }\nf(2);").unwrap();
        let v = normalize_deltas_for(&a);
        assert_eq!(v.len(), N_NORMALIZE);
        assert!((v[0] - 1.0).abs() < 1e-6, "nothing to normalize away: {:?}", v);
        assert!(v[2..].iter().all(|&x| x == 0.0), "{:?}", v);
    }

    #[test]
    fn global_array_obfuscation_shrinks_under_normalization() {
        let src = apply(
            "log('alpha beta'); log('gamma delta'); log('epsilon zeta');",
            &[Technique::GlobalArray],
            7,
        )
        .unwrap();
        let a = analyze_script(&src).unwrap();
        let v = normalize_deltas_for(&a);
        assert!(v[0] < 0.9, "pool + decoder must fold away, ratio {}", v[0]);
    }

    #[test]
    fn degraded_analysis_gets_neutral_vector() {
        use jsdetect_guard::Limits;
        let g = crate::analyze_script_guarded("var x = ;;;=", &Limits::wild());
        let a = g.analysis.unwrap();
        assert!(a.degraded);
        assert_eq!(a.normalize, neutral_deltas());
    }

    #[test]
    fn sequence_heavy_code_drops_comma_density() {
        let src = apply(
            "setup();\nwork(1);\nwork(2);\nwork(3);\nteardown();",
            &[Technique::MinificationAdvanced],
            11,
        )
        .unwrap();
        let a = analyze_script(&src).unwrap();
        let v = normalize_deltas_for(&a);
        let comma_dim = 2 + RULE_NAMES.iter().position(|r| *r == "comma-sequence-density").unwrap();
        assert!(v[comma_dim] < 0.0, "unflattening must drop the comma density: {:?}", v);
    }
}
