//! `unreachable-code`: statements no execution path can reach.

use crate::{Diagnostic, LintContext, Rule, Severity};
use jsdetect_ast::Atom;
use std::collections::HashSet;

/// Flags statements no control-flow path reaches from any entry, plus
/// blocks guarded by statically false opaque predicates — the two shapes
/// dead-code injection leaves behind (paper §II-A).
pub struct UnreachableCode;

impl Rule for UnreachableCode {
    fn name(&self) -> &'static str {
        "unreachable-code"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for n in &ctx.graph.control_flow.unreachable {
            out.push(Diagnostic {
                rule: self.name(),
                span: n.span,
                severity: self.severity(),
                message: "statement is unreachable from any entry point".to_string(),
                data: vec![("kind", format!("{:?}", n.kind))],
            });
        }
        if ctx.facts.opaque_branches.is_empty() {
            return;
        }
        // A guard variable's initializer must be its only write, otherwise
        // the comparison is not statically decidable. Collected once, not
        // per branch: a scan of every binding per branch is quadratic.
        let scopes = &ctx.graph.scopes;
        let reassigned: HashSet<&Atom> = scopes
            .bindings()
            .iter()
            .enumerate()
            .filter(|&(id, _)| scopes.rw_counts(id).1 > 1)
            .map(|(_, b)| &b.name)
            .collect();
        for ob in &ctx.facts.opaque_branches {
            let Some(values) = ctx.facts.const_strings.get(&ob.ident) else { continue };
            if values.len() != 1 || values[0] == ob.expected || reassigned.contains(&ob.ident) {
                continue;
            }
            out.push(Diagnostic {
                rule: self.name(),
                span: ob.body_span,
                severity: self.severity(),
                message: format!(
                    "block guarded by statically false comparison: '{}' is always \"{}\", never \"{}\"",
                    ob.ident, values[0], ob.expected
                ),
                data: vec![
                    ("state_var", ob.ident.to_string()),
                    ("expected", ob.expected.to_string()),
                    ("actual", values[0].to_string()),
                ],
            });
        }
    }
}
