//! Dead-branch elimination on constant conditions.
//!
//! `if` statements whose test is a side-effect-free constant (including the
//! minifier spellings `!0` / `!![]` and whatever the constants pass folded
//! to a literal) are replaced by the taken branch; `while` loops with a
//! constant-false test are removed. Combined with propagation and folding
//! this strips the opaque-predicate arms that `dead_code_injection` wraps
//! around its junk blocks.
//!
//! Conditional *expressions* are the constants pass's job; this pass only
//! rewrites statements.

use crate::eval::truthiness;
use crate::{Pass, PassCx};
use jsdetect_ast::visit_mut::{walk_stmt_mut, MutVisitor};
use jsdetect_ast::*;

/// See the module docs.
pub(crate) struct DeadBranchPass;

impl Pass for DeadBranchPass {
    fn name(&self) -> &'static str {
        "dead-branch"
    }

    fn counter(&self) -> &'static str {
        "normalize/dead-branch/rewrites"
    }

    fn run(&self, program: &mut Program, cx: &PassCx) -> u64 {
        let mut v = Eliminate { cx, count: 0 };
        v.visit_program_mut(program);
        v.count
    }
}

struct Eliminate<'a, 'b> {
    cx: &'a PassCx<'b>,
    count: u64,
}

impl MutVisitor for Eliminate<'_, '_> {
    fn visit_stmt_mut(&mut self, s: &mut Stmt) {
        // Post-order, so nested constant branches resolve innermost-first
        // and a replacement is never re-visited.
        walk_stmt_mut(self, s);
        self.cx.tick(1);
        let replacement = match s {
            Stmt::If { test, consequent, alternate, span } => match truthiness(test) {
                Some(true) => std::mem::replace(&mut **consequent, Stmt::Empty { span: *span }),
                Some(false) => match alternate.take() {
                    Some(alt) => *alt,
                    None => Stmt::Empty { span: *span },
                },
                None => return,
            },
            Stmt::While { test, span, .. } => match truthiness(test) {
                Some(false) => Stmt::Empty { span: *span },
                _ => return,
            },
            _ => return,
        };
        if self.cx.spend() {
            *s = replacement;
            self.count += 1;
        }
    }

    fn visit_stmts_mut(&mut self, stmts: &mut Vec<Stmt>) {
        for s in stmts.iter_mut() {
            self.visit_stmt_mut(s);
        }
        // Drop the empty statements elimination leaves behind (harmless in
        // single-statement positions, noise in lists). One-shot: once
        // dropped they cannot re-fire, so the fixpoint still terminates.
        if stmts.iter().any(|s| matches!(s, Stmt::Empty { .. })) {
            stmts.retain(|s| !matches!(s, Stmt::Empty { .. }));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{normalize_program, NormalizeOptions, PassKind};
    use jsdetect_codegen::to_minified;
    use jsdetect_parser::parse;

    fn run(src: &str) -> String {
        let p = parse(src).unwrap();
        let opts =
            NormalizeOptions { passes: vec![PassKind::DeadBranch], ..NormalizeOptions::default() };
        to_minified(&normalize_program(&p, &opts).0)
    }

    #[test]
    fn constant_true_keeps_consequent() {
        assert_eq!(run("if (true) { f(); } else { g(); }"), "{f();}");
        assert_eq!(run("if (!0) f();"), "f();");
    }

    #[test]
    fn constant_false_keeps_alternate_or_nothing() {
        assert_eq!(run("if (false) { f(); } else { g(); }"), "{g();}");
        assert_eq!(run("if (!1) f();"), "");
        assert_eq!(run("if ('') f(); else g();"), "g();");
    }

    #[test]
    fn while_false_is_removed() {
        assert_eq!(run("while (false) { f(); } g();"), "g();");
    }

    #[test]
    fn dynamic_tests_survive() {
        assert_eq!(run("if (x) f();"), "if(x)f();");
        assert_eq!(run("if (h()) f();"), "if(h())f();");
        assert_eq!(run("while (x) f();"), "while(x)f();");
        // `do..while` runs its body once regardless of the test.
        let out = run("do f(); while (false);");
        assert!(out.contains("f()") && out.contains("while"), "{}", out);
    }

    #[test]
    fn nested_constant_branches_resolve_in_one_run() {
        let src = "if (!0) { if (!1) { a(); } else { b(); } } else { c(); }";
        let out = run(src);
        assert!(out.contains("b()"), "{}", out);
        assert!(!out.contains("a()"), "{}", out);
        assert!(!out.contains("c()"), "{}", out);
    }

    #[test]
    fn non_list_positions_get_an_empty_statement() {
        let out = run("if (x) if (false) f();");
        assert_eq!(out, "if(x);");
    }
}
