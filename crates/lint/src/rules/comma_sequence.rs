//! `comma-sequence-density`: abnormally long comma-sequence chains.

use crate::{Diagnostic, LintContext, Rule, Severity};

/// Minimum sequence length before a chain is worth flagging. Hand-written
/// code rarely strings more than two or three expressions through the
/// comma operator; statement-merging minifiers and flatteners routinely
/// produce much longer chains.
const MIN_CHAIN_LEN: usize = 4;

/// Flags comma-sequence expressions with `MIN_CHAIN_LEN` (4) or more
/// elements — the construct statement-merging minification leaves behind
/// and the normalize sequence pass unflattens.
pub struct CommaSequenceDensity;

impl Rule for CommaSequenceDensity {
    fn name(&self) -> &'static str {
        "comma-sequence-density"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for &(span, len) in &ctx.facts.sequence_chains {
            if len >= MIN_CHAIN_LEN {
                out.push(Diagnostic {
                    rule: self.name(),
                    span,
                    severity: self.severity(),
                    message: format!("comma-sequence chain of {} expressions", len),
                    data: vec![("chain_len", len.to_string())],
                });
            }
        }
    }
}
