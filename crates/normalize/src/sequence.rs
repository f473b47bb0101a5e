//! Comma-sequence unflattening in statement position.
//!
//! `transform::minify` merges adjacent expression statements into one
//! `SequenceExpression`; this pass splits them back out: `a(), b(), c();`
//! becomes three statements, and `return (a(), b(), x)` becomes the side
//! effects followed by `return x`. Nested sequences are spliced flat in
//! the same rewrite.
//!
//! Directive prologues are respected both ways: a directive is never in a
//! sequence to begin with, and the pass refuses an expansion whose first
//! emitted statement would become an accidental directive (a leading
//! string literal at a prologue position).

use crate::{Pass, PassCx};
use jsdetect_ast::visit_mut::MutVisitor;
use jsdetect_ast::*;

/// See the module docs.
pub(crate) struct SequencePass;

impl Pass for SequencePass {
    fn name(&self) -> &'static str {
        "sequence"
    }

    fn counter(&self) -> &'static str {
        "normalize/sequence/rewrites"
    }

    fn run(&self, program: &mut Program, cx: &PassCx) -> u64 {
        let mut v = Unflatten { cx, count: 0 };
        v.visit_program_mut(program);
        v.count
    }
}

struct Unflatten<'a, 'b> {
    cx: &'a PassCx<'b>,
    count: u64,
}

fn is_directive(s: &Stmt) -> bool {
    matches!(s, Stmt::Expr { expr: Expr::Lit(Lit { value: LitValue::Str(_), .. }), .. })
}

fn is_str_lit(e: &Expr) -> bool {
    matches!(e, Expr::Lit(Lit { value: LitValue::Str(_), .. }))
}

/// Splices `exprs` into one expression statement per element, flattening
/// nested sequences.
fn flatten_into(out: &mut Vec<Stmt>, exprs: Vec<Expr>) {
    for e in exprs {
        match e {
            Expr::Sequence { exprs: nested, .. } => flatten_into(out, nested),
            e => {
                let span = e.span();
                out.push(Stmt::Expr { expr: e, span });
            }
        }
    }
}

impl Unflatten<'_, '_> {
    fn expandable(&self, s: &Stmt, at_prologue: bool) -> bool {
        match s {
            Stmt::Expr { expr: Expr::Sequence { exprs, .. }, .. } => {
                // Refuse when the first element would land in directive
                // position as a string literal.
                !(at_prologue && exprs.first().is_some_and(is_str_lit))
            }
            Stmt::Return { arg: Some(Expr::Sequence { .. }), .. } => true,
            _ => false,
        }
    }
}

impl MutVisitor for Unflatten<'_, '_> {
    fn visit_stmts_mut(&mut self, stmts: &mut Vec<Stmt>) {
        for s in stmts.iter_mut() {
            self.visit_stmt_mut(s);
        }
        self.cx.tick(stmts.len() as u64);
        let mut at_prologue = true;
        let mut needs_rewrite = false;
        for s in stmts.iter() {
            if self.expandable(s, at_prologue) {
                needs_rewrite = true;
                break;
            }
            at_prologue = at_prologue && is_directive(s);
        }
        if !needs_rewrite {
            return;
        }
        let old = std::mem::take(stmts);
        let mut at_prologue = true;
        for s in old {
            if !(self.expandable(&s, at_prologue) && self.cx.spend()) {
                at_prologue = at_prologue && is_directive(&s);
                stmts.push(s);
                continue;
            }
            self.count += 1;
            at_prologue = false;
            match s {
                Stmt::Expr { expr: Expr::Sequence { exprs, .. }, .. } => {
                    flatten_into(stmts, exprs);
                }
                Stmt::Return { arg: Some(Expr::Sequence { mut exprs, .. }), span } => {
                    let last = exprs.pop();
                    flatten_into(stmts, exprs);
                    stmts.push(Stmt::Return { arg: last, span });
                }
                _ => unreachable!("expandable() admitted an unknown shape"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::normalize;
    use crate::{NormalizeOptions, PassKind};
    use jsdetect_codegen::to_minified;
    use jsdetect_parser::parse;

    fn run(src: &str) -> String {
        let p = parse(src).unwrap();
        let opts =
            NormalizeOptions { passes: vec![PassKind::Sequence], ..NormalizeOptions::default() };
        to_minified(&normalize(p, &opts).0)
    }

    #[test]
    fn statement_sequences_split() {
        assert_eq!(run("a(), b(), c();"), "a();b();c();");
    }

    #[test]
    fn nested_sequences_splice_flat() {
        assert_eq!(run("a(), (b(), c()), d();"), "a();b();c();d();");
    }

    #[test]
    fn return_sequences_keep_the_final_value() {
        assert_eq!(run("function f() { return a(), b(), x; }"), "function f(){a();b();return x;}");
    }

    #[test]
    fn expression_position_sequences_survive() {
        assert_eq!(run("x = (a(), b());"), "x=(a(),b());");
        assert_eq!(run("f((a(), b()));"), "f((a(),b()));");
    }

    #[test]
    fn directive_prologue_is_never_created() {
        // Expanding would put 'not a directive' in directive position.
        assert_eq!(run("'not a directive', f();"), "'not a directive',f();");
        // After a real statement the expansion is safe.
        assert_eq!(run("g(); 'plain string', f();"), "g();'plain string';f();");
    }

    #[test]
    fn real_directives_are_preserved() {
        assert_eq!(run("'use strict'; a(), b();"), "'use strict';a();b();");
    }

    #[test]
    fn undoes_the_minify_sequence_merge() {
        use jsdetect_transform::{apply, Technique};
        let src = "log('one'); log('two'); log('three');";
        let min = apply(src, &[Technique::MinificationAdvanced], 3).unwrap();
        let (p, report) = normalize(
            parse(&min).unwrap(),
            &NormalizeOptions { passes: vec![PassKind::Sequence], ..NormalizeOptions::default() },
        );
        let out = to_minified(&p);
        assert!(!out.contains(','), "no top-level sequences left: {}", out);
        assert!(report.total_rewrites() > 0 || !min.contains(','), "{}", min);
    }
}
