//! Normalized-vs-original delta features.
//!
//! Obfuscation artifacts are, by construction, things the
//! [`jsdetect_normalize`] pass suite can remove: folded-away constant
//! indirection, collapsed string fragments, inlined string pools,
//! unflattened comma chains. A script that *shrinks a lot* under
//! normalization — or whose lint-rule densities drop — is carrying
//! removable obfuscation structure, and that difference is itself a
//! signal. This module measures it: one AST-size ratio, one
//! string-entropy delta, and one density delta per lint rule. The
//! original side's node count and mean string entropy come from the front
//! end's one walk of the original tree ([`TreeStats`]), so a measurement
//! walks only the normalized tree, and there counts just its nodes and the
//! byte entropy of its string literals.
//!
//! Normalization charges the script's own [`Budget`], so the analysis
//! deadline bounds it too; the rewrite fuel and the round cap bound it
//! under every preset. A degraded normalization yields the neutral vector
//! instead of a partial measurement. When the degradation is a deadline
//! hit, the front end rejects the script after this stage, so the neutral
//! vector never reaches a payload (cached payloads must replay
//! bit-identically, and a deadline depends on the host).
//!
//! The normalizer starts from the front end's scope tree of the original
//! program and hands back the tree of the normalized one when a pass
//! built it after the last rewrite; the measurement's flow graph reuses
//! it, and builds its own only when none came back.
//!
//! A normalization with zero rewrites also yields the neutral vector,
//! without re-analysing the tree: the tree is then the input, and the full
//! measurement gives exactly the neutral bits (`n / n` is 1.0 for a node
//! count of at least 1, `x - x` is +0.0 for finite `x`). `tests/normalize.rs`
//! pins that equality over every corpus; 37% of the benchmark's seed-7
//! `cold_scan` crawl takes this path.

use crate::handpicked::byte_entropy;
use crate::tree::TreeStats;
use jsdetect_ast::{walk, Expr, Lit, LitValue, NodeRef, Program};
use jsdetect_flow::{analyze_scopes, analyze_with_scopes, ScopeTree};
use jsdetect_guard::{Budget, OutcomeKind};
use jsdetect_lint::{LintSummary, N_RULES, RULE_NAMES};
use jsdetect_normalize::{normalize_program, NormalizeOptions};
use jsdetect_obs::names;
use std::borrow::Cow;

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

/// Computes the delta block for one parsed script, consuming its tree.
///
/// `src` is the *original* source text — the normalized AST is linted
/// against it so the charset-based rules see the same bytes both times
/// and only structural rules can move. `program` is the parsed tree,
/// which normalization rewrites in place and which is dropped here, under
/// this stage's span. `scopes`, `tree` and `lint` are the original
/// program's scope tree, statistics and lint summary; `budget` is the
/// script's analysis budget.
pub fn normalize_deltas(
    src: &str,
    program: Program,
    scopes: &ScopeTree,
    tree: &TreeStats,
    lint: &LintSummary,
    budget: &Budget,
) -> Vec<f32> {
    let _t = jsdetect_obs::span(names::SPAN_NORMALIZE_DELTAS);
    // A local, not a temporary of the tail expression: locals drop before
    // `_t`, so the tree's drop is timed by this span.
    let (normalized, report) =
        normalize_program(program, Some(scopes), &NormalizeOptions::default(), budget);
    match normalized {
        Some(normalized) if report.outcome == OutcomeKind::Ok && report.total_rewrites() > 0 => {
            measure_deltas(src, tree, &normalized.program, normalized.scopes, lint, budget)
        }
        _ => neutral_deltas(),
    }
}

/// The full delta measurement of `normalized` against the original
/// program, given by its [`TreeStats`] and lint summary.
///
/// `scopes` is `normalized`'s scope tree when the normalizer handed one
/// back ([`jsdetect_normalize::Normalized::scopes`]); without it the
/// measurement builds one.
///
/// The walk charges `budget` one tick per node and per string-literal
/// byte; past the deadline it yields the neutral vector, which the front
/// end's deadline check after this stage turns into a reject.
/// [`normalize_deltas`] skips the measurement when nothing was rewritten;
/// it is public so tests can check that the skip changes no bit.
pub fn measure_deltas(
    src: &str,
    tree: &TreeStats,
    normalized: &Program,
    scopes: Option<Cow<'_, ScopeTree>>,
    lint: &LintSummary,
    budget: &Budget,
) -> Vec<f32> {
    // Only the node count and the string entropy are read off the
    // normalized tree, with the same sums `TreeStats` keeps.
    let (mut nodes, mut strings, mut entropy_sum) = (0usize, 0usize, 0f64);
    let mut late = false;
    walk(normalized, &mut |node, _| {
        nodes += 1;
        late = late || budget.tick(1).is_err();
        if let NodeRef::Expr(Expr::Lit(Lit { value: LitValue::Str(s), .. })) = node {
            late = late || budget.tick(s.len() as u64).is_err();
            if !late {
                strings += 1;
                entropy_sum += byte_entropy(s);
            }
        }
    });
    if late {
        return neutral_deltas();
    }
    let mean_entropy = (entropy_sum / strings.max(1) as f64) as f32;
    let mut v = Vec::with_capacity(N_NORMALIZE);
    v.push(nodes as f32 / tree.node_count.max(1) as f32);
    v.push(mean_entropy - tree.mean_string_entropy());
    let scopes = scopes.map_or_else(
        || {
            jsdetect_obs::counter_add(names::CTR_NORMALIZE_SCOPE_ANALYSES, 1);
            analyze_scopes(normalized)
        },
        Cow::into_owned,
    );
    let graph = analyze_with_scopes(normalized, scopes);
    let norm_lint = jsdetect_lint::lint(src, normalized, &graph).1;
    let orig_densities = lint.features();
    let norm_densities = norm_lint.features();
    for i in 0..N_RULES {
        v.push(norm_densities[i] - orig_densities[i]);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use jsdetect_guard::Limits;
    use jsdetect_transform::{apply, Technique};

    /// The delta block the analysis front end computes for `src`.
    fn deltas(src: &str) -> Vec<f32> {
        analyze(src, &Limits::trusted()).into_ok().unwrap().normalize
    }

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
        let v = deltas("function f(a) { return a + 1; }\nf(2);");
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
        let v = deltas(&src);
        assert!(v[0] < 0.9, "pool + decoder must fold away, ratio {}", v[0]);
    }

    #[test]
    fn degraded_analysis_gets_neutral_vector() {
        let p = analyze("var x = ;;;=", &Limits::wild()).payload.unwrap();
        assert!(p.degraded);
        assert_eq!(p.normalize, neutral_deltas());
    }

    #[test]
    fn sequence_heavy_code_drops_comma_density() {
        let src = apply(
            "setup();\nwork(1);\nwork(2);\nwork(3);\nteardown();",
            &[Technique::MinificationAdvanced],
            11,
        )
        .unwrap();
        let v = deltas(&src);
        let comma_dim = 2 + RULE_NAMES.iter().position(|r| *r == "comma-sequence-density").unwrap();
        assert!(v[comma_dim] < 0.0, "unflattening must drop the comma density: {:?}", v);
    }
}
