//! Obfuscation-signature lint engine.
//!
//! The statistical detectors (Level 1 / Level 2) answer *whether* a script
//! was transformed; this crate answers *where* and *why*. Each [`Rule`]
//! inspects one parsed [`Program`] together with its [`ProgramGraph`]
//! (scopes, control flow, data flow) and emits span-anchored
//! [`Diagnostic`]s for the structural signatures the paper's techniques
//! leave behind (§II-A): dispatcher loops from control-flow flattening,
//! global string pools and their decoder shims, anti-debugging probes,
//! self-defending guards, injected dead code, and identifier-charset
//! anomalies. [`lint`] runs the one built-in rule set, in [`RULE_NAMES`]
//! order, over one program.
//!
//! The per-rule hit counts, normalized by statement count
//! ([`LintSummary::features`]), are also appended to the hand-picked
//! feature block of the detector's vector space, so the classifiers can
//! use the same evidence the diagnostics show to a human.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
pub mod rules;

pub use context::{DecoderFn, DispatchSwitch, Facts, LintContext, OpaqueBranch, StringArray};

use jsdetect_ast::{Program, Span};
use jsdetect_flow::ProgramGraph;

/// How alarming a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Context worth surfacing, common in benign code.
    Info,
    /// Suspicious in isolation, legitimate uses exist (dead code, unused
    /// names, odd identifier charsets).
    Warning,
    /// A structural signature of a specific obfuscation technique.
    Signature,
}

impl Severity {
    /// Lowercase display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Signature => "signature",
        }
    }
}

/// One finding, anchored to the source range that exhibits it.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Source range the finding points at.
    pub span: Span,
    /// Severity of the finding.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// Structured key/value details (state-variable names, counts, …).
    pub data: Vec<(&'static str, String)>,
}

/// A single lint rule.
pub trait Rule: Sync {
    /// Stable kebab-case identifier.
    fn name(&self) -> &'static str;
    /// Severity of this rule's findings.
    fn severity(&self) -> Severity;
    /// Inspects the collected facts and appends findings to `out`.
    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>);
}

/// Number of built-in rules.
pub const N_RULES: usize = 9;

/// Built-in rule identifiers, in [`LintSummary::counts`] order.
pub const RULE_NAMES: [&str; N_RULES] = [
    "unreachable-code",
    "unused-binding",
    "flattening-dispatcher",
    "global-string-array",
    "string-decoder-call",
    "debugger-in-loop",
    "self-defending-tostring",
    "non-alphanumeric-density",
    "comma-sequence-density",
];

/// Lints one program with every built-in rule, in a single collection
/// pass: the diagnostics sorted by span, and the per-rule summary used as
/// classifier features.
pub fn lint(src: &str, program: &Program, graph: &ProgramGraph) -> (Vec<Diagnostic>, LintSummary) {
    let ctx = LintContext::collect(src, program, graph);
    let mut out = Vec::new();
    for rule in &rules::RULES {
        rule.check(&ctx, &mut out);
    }
    out.sort_by(|a, b| (a.span.start, a.span.end, a.rule).cmp(&(b.span.start, b.span.end, b.rule)));
    let summary = LintSummary::new(&out, ctx.facts.statements);
    (out, summary)
}

/// Per-rule hit counts for one script, plus the statement count used to
/// normalize them into densities.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintSummary {
    /// Findings per rule, indexed like [`RULE_NAMES`].
    pub counts: [u32; N_RULES],
    /// Statements walked (density denominator).
    pub statements: u32,
}

impl LintSummary {
    /// Length of the feature block [`LintSummary::features`] produces:
    /// one density per rule plus the total density.
    pub const N_FEATURES: usize = N_RULES + 1;

    /// Tallies diagnostics into a summary.
    pub fn new(diags: &[Diagnostic], statements: u32) -> Self {
        let mut counts = [0u32; N_RULES];
        for d in diags {
            if let Some(i) = RULE_NAMES.iter().position(|n| *n == d.rule) {
                counts[i] += 1;
            }
        }
        LintSummary { counts, statements }
    }

    /// Findings for one rule by name (0 for unknown rules).
    pub fn count(&self, rule: &str) -> u32 {
        RULE_NAMES.iter().position(|n| *n == rule).map_or(0, |i| self.counts[i])
    }

    /// Total findings across all rules.
    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Per-rule densities (count / statements) followed by the total
    /// density — the block appended to the hand-picked feature vector.
    pub fn features(&self) -> Vec<f32> {
        let denom = self.statements.max(1) as f32;
        let mut v: Vec<f32> = self.counts.iter().map(|&c| c as f32 / denom).collect();
        v.push(self.total() as f32 / denom);
        v
    }

    /// Names for [`LintSummary::features`], in order.
    pub fn feature_names() -> Vec<String> {
        RULE_NAMES
            .iter()
            .map(|n| format!("lint:{}", n))
            .chain(std::iter::once("lint:total".to_string()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_match_rule_names() {
        let names: Vec<&str> = rules::RULES.iter().map(|r| r.name()).collect();
        assert_eq!(names, RULE_NAMES.to_vec());
    }

    #[test]
    fn summary_counts_and_features() {
        let d = |rule: &'static str| Diagnostic {
            rule,
            span: Span::DUMMY,
            severity: Severity::Warning,
            message: String::new(),
            data: Vec::new(),
        };
        let diags = vec![d("unused-binding"), d("unused-binding"), d("debugger-in-loop")];
        let s = LintSummary::new(&diags, 10);
        assert_eq!(s.count("unused-binding"), 2);
        assert_eq!(s.count("debugger-in-loop"), 1);
        assert_eq!(s.count("no-such-rule"), 0);
        assert_eq!(s.total(), 3);
        let f = s.features();
        assert_eq!(f.len(), LintSummary::N_FEATURES);
        assert!((f[1] - 0.2).abs() < 1e-6);
        assert!((f[LintSummary::N_FEATURES - 1] - 0.3).abs() < 1e-6);
    }

    #[test]
    fn feature_names_align_with_features() {
        let names = LintSummary::feature_names();
        assert_eq!(names.len(), LintSummary::N_FEATURES);
        assert_eq!(names[0], format!("lint:{}", RULE_NAMES[0]));
        assert_eq!(names.last().unwrap(), "lint:total");
    }

    #[test]
    fn zero_statements_does_not_divide_by_zero() {
        let s = LintSummary::default();
        assert!(s.features().iter().all(|v| v.is_finite()));
    }
}
