//! The analysis front end: one script from source text to
//! `{outcome, payload}`.
//!
//! [`analyze`] runs every stage once — parse (which also counts the
//! tokens, so the script is lexed once), one walk of the tree for every
//! tree quantity ([`TreeStats::of`]), scopes with control and data flow,
//! lint, normalization deltas — charging each to a [`Budget`] built from
//! the caller's [`Limits`], and distils the result into a
//! [`FeaturePayload`]. The normalization stage takes the parsed tree by
//! value, rewrites it in place and drops it; extraction drops the graph.
//! All of it runs inside the `analyze` span. Every failure is
//! classified into the three-way [`OutcomeKind`] verdict: full result,
//! lexer-only fallback for a script that does not parse, or quarantined
//! reject for a blown budget. [`Limits::trusted`] is the training preset:
//! only the stack-overflow depth guard is on, and training keeps `Ok`
//! payloads only (the paper skips files that do not parse).

use crate::payload::FeaturePayload;
use crate::tree::TreeStats;
use jsdetect_ast::{Program, Span};
use jsdetect_flow::ProgramGraph;
use jsdetect_guard::{AnalysisError, Budget, Limits, OutcomeKind};
use jsdetect_lexer::{tokenize_lossy, Comment, TokenCounts};
use jsdetect_lint::LintSummary;
use jsdetect_obs::names;
use jsdetect_parser::parse_with_comments_budget;

/// Everything the feature extractors need about one script. Lives only
/// until [`FeaturePayload::extract`] has run. The parsed tree is not part
/// of it: the extractors read the tree through `tree` and `graph`, and
/// the normalization stage consumes it.
#[derive(Debug)]
pub(crate) struct ScriptAnalysis<'a> {
    /// Original source text.
    pub(crate) src: &'a str,
    /// Token statistics (comments are not tokens).
    pub(crate) tokens: TokenCounts,
    /// Comments.
    pub(crate) comments: Vec<Comment>,
    /// Scopes + control flow + data flow.
    pub(crate) graph: ProgramGraph,
    /// Everything read from one walk of the parsed tree.
    pub(crate) tree: TreeStats,
    /// Obfuscation-signature lint summary (per-rule hit counts).
    pub(crate) lint: LintSummary,
    /// Normalized-vs-original delta features
    /// ([`crate::deltas::N_NORMALIZE`] of them; the neutral vector when
    /// the analysis is degraded or normalization itself degrades).
    pub(crate) normalize: Vec<f32>,
    /// True when this is the lexer-only fallback produced after a parse
    /// failure: `graph`/`tree` describe an empty program
    /// and only `src`/`tokens`/`comments` carry real signal.
    pub(crate) degraded: bool,
}

/// The stages' result: `Ok((analysis, None))` is a full analysis,
/// `Ok((fallback, Some(cause)))` the lexer-only fallback, `Err` a reject.
type Staged<'a> = Result<(ScriptAnalysis<'a>, Option<AnalysisError>), AnalysisError>;

/// One script's analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct Analyzed {
    /// Three-way verdict.
    pub outcome: OutcomeKind,
    /// The failure, absent only for `Ok`.
    pub error: Option<AnalysisError>,
    /// Feature payload: the full one for `Ok`, the lexer-only fallback
    /// (with [`FeaturePayload::degraded`] set) for `Degraded`, absent for
    /// `Rejected`.
    pub payload: Option<FeaturePayload>,
}

impl Analyzed {
    /// A reject carrying `error`, counted under the error's own counter
    /// and `guard/rejected`.
    pub fn rejected(error: AnalysisError) -> Analyzed {
        jsdetect_obs::counter_add(error.counter_name(), 1);
        jsdetect_obs::counter_add(names::CTR_GUARD_REJECTED, 1);
        Analyzed { outcome: OutcomeKind::Rejected, error: Some(error), payload: None }
    }

    /// The payload of a full (`Ok`) analysis, else the failure.
    pub fn into_ok(self) -> Result<FeaturePayload, AnalysisError> {
        match self.error {
            None => Ok(self.payload.expect("an Ok analysis carries its payload")),
            Some(e) => Err(e),
        }
    }

    fn from_stages(staged: Staged<'_>) -> Analyzed {
        let (analysis, cause) = match staged {
            Ok(staged) => staged,
            Err(e) => return Analyzed::rejected(e),
        };
        let outcome = match &cause {
            None => OutcomeKind::Ok,
            Some(cause) => {
                jsdetect_obs::counter_add(cause.counter_name(), 1);
                jsdetect_obs::counter_add(names::CTR_GUARD_DEGRADED, 1);
                OutcomeKind::Degraded
            }
        };
        let payload = {
            let _s = jsdetect_obs::span(names::SPAN_EXTRACT);
            FeaturePayload::extract(analysis)
        };
        Analyzed { outcome, error: cause, payload: Some(payload) }
    }
}

/// Analyzes one script under `limits`, never panicking on budget-class
/// failures and degrading to a lexer-only payload when only the parse
/// fails.
///
/// # Examples
///
/// ```
/// use jsdetect_features::analyze;
/// use jsdetect_guard::{Limits, OutcomeKind};
///
/// let ok = analyze("var x = 1;", &Limits::wild());
/// assert_eq!(ok.outcome, OutcomeKind::Ok);
///
/// let bomb = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
/// let r = analyze(&bomb, &Limits::wild());
/// assert_eq!(r.outcome, OutcomeKind::Rejected);
/// assert_eq!(r.error.unwrap().kind(), "ast_depth_exceeded");
/// ```
pub fn analyze(src: &str, limits: &Limits) -> Analyzed {
    let _t = jsdetect_obs::span(names::SPAN_ANALYZE);
    jsdetect_obs::observe(names::HIST_SCRIPT_BYTES, src.len() as u64);
    Analyzed::from_stages(stages(src, &Budget::new(limits)))
}

/// Lexer-only analysis under `limits`, skipping parse/flow/lint entirely.
///
/// This is the circuit-breaker's degraded service mode: when a resident
/// daemon is overloaded it trades fidelity for latency by running only the
/// lexical front-end. The result has the shape of a parse-failure fallback
/// (degraded payload, outcome `Degraded`) with the typed cause
/// [`AnalysisError::ServiceDegraded`], so caches and quarantine accounting
/// can tell a deliberate skip from a broken script.
pub fn analyze_lexer_only(src: &str, limits: &Limits) -> Analyzed {
    let _t = jsdetect_obs::span(names::SPAN_ANALYZE);
    jsdetect_obs::observe(names::HIST_SCRIPT_BYTES, src.len() as u64);
    let budget = Budget::new(limits);
    let staged = budget
        .check_input(src.len())
        .and_then(|()| degraded_fallback(src, &budget, AnalysisError::ServiceDegraded));
    Analyzed::from_stages(staged)
}

fn stages<'a>(src: &'a str, budget: &Budget) -> Staged<'a> {
    budget.check_input(src.len())?;

    let (program, comments, tokens) = {
        let _s = jsdetect_obs::span(names::SPAN_PARSE);
        match parse_with_comments_budget(src, budget) {
            Ok(pc) => pc,
            Err(parse_err) => {
                jsdetect_obs::counter_add(names::CTR_PARSE_FAILURES, 1);
                // A budget violation travels through `ParseError` stringly;
                // the typed cause sits in the budget's side channel.
                let e = budget
                    .take_violation()
                    .unwrap_or(AnalysisError::Parse { msg: parse_err.msg, pos: parse_err.pos });
                if e.is_resource() {
                    return Err(e);
                }
                return degraded_fallback(src, budget, e);
            }
        }
    };
    budget.check_deadline()?;

    let tree = {
        let _s = jsdetect_obs::span(names::SPAN_METRICS);
        TreeStats::of(&program)
    };
    // Charge the realized tree size before running the recursive consumers
    // (flow, lint) over a potential node bomb.
    budget.charge_nodes(tree.node_count as u64)?;
    budget.check_deadline()?;

    let graph = {
        let _s = jsdetect_obs::span(names::SPAN_FLOW);
        jsdetect_flow::analyze(&program)
    };
    if !graph.dataflow.complete {
        jsdetect_obs::counter_add(names::CTR_FLOW_TRUNCATIONS, 1);
        jsdetect_obs::counter_add(
            names::CTR_FLOW_TRUNCATED_BINDINGS,
            graph.dataflow.truncated_bindings as u64,
        );
    }
    budget.check_cfg_edges(graph.control_flow.edges as u64)?;
    budget.check_deadline()?;

    let lint = {
        let _s = jsdetect_obs::span(names::SPAN_LINT);
        let (diagnostics, lint) = jsdetect_lint::lint(src, &program, &graph);
        jsdetect_obs::counter_add(names::CTR_LINT_FIRES, diagnostics.len() as u64);
        lint
    };
    budget.check_deadline()?;

    let normalize = crate::deltas::normalize_deltas(src, program, &tree, &lint, budget);
    // A deadline hit inside normalization degrades it to the neutral
    // block; the script is rejected instead, so no payload carries it.
    budget.check_deadline()?;

    let analysis =
        ScriptAnalysis { src, tokens, comments, graph, tree, lint, normalize, degraded: false };
    Ok((analysis, None))
}

/// Builds the lexer-only fallback after a recoverable parse failure
/// (paper-faithful: the paper drops unparseable files; we additionally keep
/// their lexical signal, flagged by [`FeaturePayload::degraded`]).
fn degraded_fallback<'a>(src: &'a str, budget: &Budget, cause: AnalysisError) -> Staged<'a> {
    let _s = jsdetect_obs::span(names::SPAN_DEGRADED_FALLBACK);
    let (tokens, comments) = {
        // The one standalone scan left: it charges the same budget the
        // failed parse did, so the token cap bounds both passes together.
        let _s = jsdetect_obs::span(names::SPAN_LEX);
        let (tokens, comments, _lex_err) = tokenize_lossy(src, Some(budget));
        (TokenCounts::of(&tokens), comments)
    };
    // The lossy scan itself may blow a budget axis (token flood inside a
    // syntactically broken file) — that escalates to a reject.
    if let Some(v) = budget.take_violation() {
        if v.is_resource() {
            return Err(v);
        }
    }
    let program = Program { body: Vec::new(), span: Span::new(0, src.len() as u32) };
    let graph = jsdetect_flow::analyze(&program);
    let tree = TreeStats::of(&program);
    let lint = jsdetect_lint::lint(src, &program, &graph).1;
    jsdetect_obs::counter_add(names::CTR_DEGRADED_FALLBACKS, 1);
    let analysis = ScriptAnalysis {
        src,
        tokens,
        comments,
        graph,
        tree,
        lint,
        normalize: crate::deltas::neutral_deltas(),
        degraded: true,
    };
    Ok((analysis, Some(cause)))
}

/// The stages under trusted limits, for unit tests that inspect the
/// analysis itself rather than its payload.
#[cfg(test)]
pub(crate) fn analysis_of(src: &str) -> ScriptAnalysis<'_> {
    match stages(src, &Budget::new(&Limits::trusted())) {
        Ok((a, None)) => a,
        other => panic!("{:?} did not analyze fully: {:?}", src, other.map(|(_, cause)| cause)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_bundles_everything() {
        let a = analysis_of("// c\nvar x = 1;\nif (x) { f(x); }");
        assert_eq!(a.comments.len(), 1);
        assert!(a.tokens.total > 0);
        assert!(a.graph.scopes.bindings().len() == 1);
        assert!(a.tree.max_depth >= 2);
        assert!(!a.tree.grams.is_empty());
    }

    #[test]
    fn empty_and_comment_only_scripts() {
        let a = analysis_of("");
        assert_eq!(a.tree.node_count, 1); // just the Program node
        let b = analysis_of("// only a comment\n/* and a block */");
        assert_eq!(b.comments.len(), 2);
        assert_eq!(b.tree.node_count, 1);
    }

    #[test]
    fn single_long_line_script() {
        // Minified-style single line with thousands of statements.
        let src = "var a=0;".to_string() + &"a=a+1;".repeat(2_000);
        let a = analysis_of(&src);
        assert!(a.tree.node_count > 8_000);
        assert_eq!(a.src.lines().count(), 1);
    }

    #[test]
    fn deep_but_legal_nesting() {
        let depth = 20;
        let src = format!("x = {}1{};", "(".repeat(depth), ")".repeat(depth));
        assert!(analysis_of(&src).tree.max_depth >= 3);
    }

    #[test]
    fn a_syntax_error_after_an_arrow_at_the_depth_limit_degrades() {
        // `() => {}` takes no frame for its parameters, where the
        // expression grammar would take five past the limit.
        let src = format!("x = {}() => {{}}{}; a b;", "[".repeat(35), "]".repeat(35));
        assert_eq!(analyze(&src, &Limits::wild()).outcome, OutcomeKind::Degraded);
    }

    #[test]
    fn clean_script_is_ok() {
        let r = analyze("var x = 1; if (x) { f(x); }", &Limits::wild());
        assert_eq!(r.outcome, OutcomeKind::Ok);
        assert!(r.error.is_none());
        assert!(!r.payload.unwrap().degraded);
    }

    #[test]
    fn syntax_error_degrades_with_lexical_signal() {
        let src = "var x = ;;;=";
        let (a, cause) = stages(src, &Budget::new(&Limits::wild())).unwrap();
        assert!(a.degraded);
        assert!(a.tokens.total > 0, "fallback should keep the token prefix");
        assert_eq!(a.tree.node_count, 1);
        assert_eq!(cause.unwrap().kind(), "parse_error");

        let r = analyze(src, &Limits::wild());
        assert_eq!(r.outcome, OutcomeKind::Degraded);
        assert!(r.payload.as_ref().unwrap().degraded);
        assert_eq!(r, analyze(src, &Limits::trusted()));
        assert_eq!(r.into_ok().unwrap_err().kind(), "parse_error");
    }

    #[test]
    fn regex_after_paren_counts_the_parsed_tokens() {
        // The parser reads the `/` after `if (x)` as a regex; a standalone
        // scan with the prev-token heuristic reads division and fails.
        // `if ( x ) /a+/ . test ( y ) ; EOF`: 6 punctuators of 12 tokens.
        let r = analyze("if (x) /a+/.test(y);", &Limits::wild());
        assert_eq!(r.outcome, OutcomeKind::Ok);
        let p = r.into_ok().unwrap();
        let at = crate::FEATURE_NAMES.iter().position(|n| *n == "punct_token_ratio").unwrap();
        assert_eq!(p.handpicked[at], 0.5);
    }

    #[test]
    fn token_cap_bounds_parse_and_fallback_scan_together() {
        let src = format!("{}var x = ;", "a;".repeat(40));
        let unbounded = Budget::new(&Limits::unbounded());
        assert!(jsdetect_parser::parse_with_budget(&src, &unbounded).is_err());
        let parse_prefix = unbounded.tokens_used();
        let scan = tokenize_lossy(&src, None).0.len() as u64;
        let under = |max_tokens| analyze(&src, &Limits { max_tokens, ..Limits::wild() });

        // Each pass fits the cap on its own, but the budget is one running
        // charge over both.
        let r = under(parse_prefix.max(scan));
        assert_eq!(r.outcome, OutcomeKind::Rejected);
        assert_eq!(r.error.unwrap().kind(), "token_budget_exceeded");

        let r = under(parse_prefix + scan);
        assert_eq!(r.outcome, OutcomeKind::Degraded);
        assert_eq!(r.error.unwrap().kind(), "parse_error");
    }

    #[test]
    fn input_cap_rejects_before_any_work() {
        let limits = Limits { max_input_bytes: 8, ..Limits::wild() };
        let r = analyze("var x = 1;", &limits);
        assert_eq!(r.outcome, OutcomeKind::Rejected);
        assert!(r.payload.is_none());
        assert_eq!(r.error.unwrap().kind(), "input_too_large");
    }

    #[test]
    fn depth_bomb_rejects_with_typed_cause() {
        let bomb = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
        let r = analyze(&bomb, &Limits::wild());
        assert_eq!(r.outcome, OutcomeKind::Rejected);
        assert_eq!(r.error.unwrap().kind(), "ast_depth_exceeded");
    }

    #[test]
    fn token_flood_rejects_even_when_unparseable() {
        // Fails the parse *and* floods the token budget: must reject, not
        // degrade.
        let limits = Limits { max_tokens: 100, ..Limits::wild() };
        let flood = format!("var x = ;;;= {}", "a ".repeat(1_000));
        let r = analyze(&flood, &limits);
        assert_eq!(r.outcome, OutcomeKind::Rejected);
        assert_eq!(r.error.unwrap().kind(), "token_budget_exceeded");
    }

    #[test]
    fn node_budget_rejects_wide_programs() {
        let limits = Limits { max_ast_nodes: 50, ..Limits::wild() };
        let wide = "var a=0;".to_string() + &"a=a+1;".repeat(100);
        let r = analyze(&wide, &limits);
        assert_eq!(r.outcome, OutcomeKind::Rejected);
        assert_eq!(r.error.unwrap().kind(), "ast_node_budget_exceeded");
    }

    #[test]
    fn cfg_edge_budget_rejects_branchy_programs() {
        let limits = Limits { max_cfg_edges: 3, ..Limits::wild() };
        let branchy = "if (a) { f(); } else { g(); } while (b) { h(); }";
        let r = analyze(branchy, &limits);
        assert_eq!(r.outcome, OutcomeKind::Rejected);
        assert_eq!(r.error.unwrap().kind(), "cfg_edge_budget_exceeded");
    }

    #[test]
    fn lexer_only_mode_keeps_lexical_signal_with_typed_cause() {
        let r = analyze_lexer_only("var x = 1; f(x);", &Limits::wild());
        assert_eq!(r.outcome, OutcomeKind::Degraded);
        let p = r.payload.unwrap();
        assert!(p.degraded);
        assert!(p.ngrams.is_empty(), "parse must be skipped");
        assert_eq!(r.error.unwrap().kind(), "service_degraded");

        // The input cap still applies before any work.
        let limits = Limits { max_input_bytes: 4, ..Limits::wild() };
        let r = analyze_lexer_only("var x = 1;", &limits);
        assert_eq!(r.outcome, OutcomeKind::Rejected);
    }

    #[test]
    fn trusted_and_wild_presets_agree_on_ordinary_scripts() {
        for src in ["var x = 1;", "", "function f(a) { return a ? a + 1 : 0; }"] {
            let trusted = analyze(src, &Limits::trusted());
            assert_eq!(trusted.outcome, OutcomeKind::Ok);
            assert_eq!(trusted, analyze(src, &Limits::wild()));
        }
    }
}
