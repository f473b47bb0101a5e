//! Constant folding + single-assignment constant propagation.
//!
//! Two sub-steps per run, both counted as one pass:
//!
//! 1. **Propagation**: the run's scope tree ([`PassCx::scopes`]) finds
//!    bindings that are declared with a literal initializer and written
//!    exactly once —
//!    that one write being the declaration itself — and substitutes the
//!    literal at every read site. Spans of the replaced identifiers are
//!    preserved on the substituted literals.
//! 2. **Folding**: a post-order rewrite evaluates literal-only unary,
//!    binary, logical, conditional, and sequence expressions.
//!
//! Propagation is intentionally flow-insensitive (it ignores hoisted reads
//! that could execute before the initializer); that is the standard
//! deobfuscation trade-off and matches what obfuscator-generated
//! single-assignment temporaries look like in practice. Programs containing
//! `with` are not propagated at all, since `with` makes static name
//! resolution unsound.

use crate::eval::{bool_expr, num_expr, num_value, str_expr, to_int32, to_uint32, truthiness};
use crate::{Pass, PassCx};
use jsdetect_ast::visit_mut::{walk_expr_mut, MutVisitor};
use jsdetect_ast::*;
use jsdetect_flow::{BindingKind, RefKind};
use std::collections::HashMap;

/// See the module docs.
pub(crate) struct ConstantsPass;

impl Pass for ConstantsPass {
    fn name(&self) -> &'static str {
        "constants"
    }

    fn counter(&self) -> &'static str {
        "normalize/constants/rewrites"
    }

    fn run(&self, program: &mut Program, cx: &PassCx) -> u64 {
        let propagated = propagate(program, cx);
        let mut folder = Fold { cx, count: 0 };
        folder.visit_program_mut(program);
        propagated + folder.count
    }
}

/// Longest string literal worth duplicating into every read site.
const MAX_PROPAGATED_STR: usize = 128;

fn propagatable_lit(lit: &Lit) -> bool {
    match &lit.value {
        LitValue::Str(s) => s.len() <= MAX_PROPAGATED_STR,
        LitValue::Num(_) | LitValue::Bool(_) | LitValue::Null => true,
        // BigInt values are immutable primitives; propagating the raw text
        // is as safe as a number.
        LitValue::BigInt(_) => true,
        // Each regex literal evaluation is a fresh object with identity and
        // `lastIndex` state; duplicating one is observable.
        LitValue::Regex { .. } => false,
    }
}

fn propagate(program: &mut Program, cx: &PassCx) -> u64 {
    let mut collect = CollectDecls { decl_lits: HashMap::new(), has_with: false };
    collect.visit_program_mut(program);
    let CollectDecls { decl_lits, has_with } = collect;
    if has_with || decl_lits.is_empty() {
        return 0;
    }

    let tree = cx.scopes(program);
    let mut subst: HashMap<Span, Lit> = HashMap::new();
    for (id, binding) in tree.bindings().iter().enumerate() {
        if !matches!(binding.kind, BindingKind::Var | BindingKind::Let | BindingKind::Const) {
            continue;
        }
        let Some(lit) = decl_lits.get(&binding.decl_span) else { continue };
        // A declarator with an initializer records a write at the declaring
        // span, so "written exactly once" means the init is the only write.
        let (_, writes) = tree.rw_counts(id);
        if writes != 1 {
            continue;
        }
        for r in tree.refs_of(id) {
            if r.kind == RefKind::Read && r.span != Span::DUMMY {
                subst.insert(r.span, *lit);
            }
        }
    }
    if subst.is_empty() {
        return 0;
    }
    let mut replace = Substitute { cx, subst: &subst, count: 0 };
    replace.visit_program_mut(program);
    replace.count
}

/// One walk for what propagation needs to know before it resolves names.
struct CollectDecls {
    /// Literal initializers of simple identifier declarators, keyed by the
    /// declaring identifier's span.
    decl_lits: HashMap<Span, Lit>,
    /// Whether the program holds a `with` statement; the walk stops at the
    /// first.
    has_with: bool,
}

impl MutVisitor for CollectDecls {
    fn visit_stmt_mut(&mut self, s: &mut Stmt) {
        if self.has_with {
            return;
        }
        if let Stmt::With { .. } = s {
            self.has_with = true;
            return;
        }
        if let Stmt::VarDecl { decls, .. } = s {
            for d in decls.iter() {
                if let (Pat::Ident(id), Some(Expr::Lit(lit))) = (&d.id, &d.init) {
                    if id.span != Span::DUMMY && propagatable_lit(lit) {
                        self.decl_lits.insert(id.span, *lit);
                    }
                }
            }
        }
        jsdetect_ast::visit_mut::walk_stmt_mut(self, s);
    }
}

struct Substitute<'a, 'b> {
    cx: &'a PassCx<'b>,
    subst: &'a HashMap<Span, Lit>,
    count: u64,
}

impl MutVisitor for Substitute<'_, '_> {
    fn visit_expr_mut(&mut self, e: &mut Expr) {
        if let Expr::Ident(id) = e {
            if let Some(lit) = self.subst.get(&id.span) {
                if self.cx.spend() {
                    let mut lit = *lit;
                    lit.span = id.span;
                    *e = Expr::Lit(lit);
                    self.count += 1;
                }
            }
            return;
        }
        walk_expr_mut(self, e);
    }
}

struct Fold<'a, 'b> {
    cx: &'a PassCx<'b>,
    count: u64,
}

impl MutVisitor for Fold<'_, '_> {
    fn visit_expr_mut(&mut self, e: &mut Expr) {
        // Post-order: fold children first so chains collapse bottom-up.
        walk_expr_mut(self, e);
        self.cx.tick(1);
        if let Some(folded) = try_fold(e) {
            if self.cx.spend() {
                *e = folded;
                self.count += 1;
            }
        }
    }
}

fn lit_of(e: &Expr) -> Option<&LitValue> {
    match e {
        Expr::Lit(l) => Some(&l.value),
        _ => None,
    }
}

fn try_fold(e: &Expr) -> Option<Expr> {
    match e {
        Expr::Unary { op, arg, span } => fold_unary(*op, arg, *span),
        Expr::Binary { op, left, right, span } => fold_binary(*op, left, right, *span),
        Expr::Logical { op, left, right, .. } => {
            let t = truthiness(left)?;
            Some(match (op, t) {
                (LogicalOp::And, true) | (LogicalOp::Or, false) => (**right).clone(),
                (LogicalOp::And, false) | (LogicalOp::Or, true) => (**left).clone(),
                (LogicalOp::NullishCoalescing, _) => match lit_of(left)? {
                    LitValue::Null => (**right).clone(),
                    _ => (**left).clone(),
                },
            })
        }
        Expr::Conditional { test, consequent, alternate, .. } => {
            Some(if truthiness(test)? { (**consequent).clone() } else { (**alternate).clone() })
        }
        // Drop side-effect-free constants from non-final sequence slots:
        // `(0, 1, x)` → `x`. Skipped when the result is a member access,
        // which would change the `this` binding of a `(0, obj.m)()` call.
        Expr::Sequence { exprs, span } => {
            let last = exprs.last()?;
            if matches!(last, Expr::Member { .. }) {
                return None;
            }
            let kept: Vec<&Expr> =
                exprs[..exprs.len() - 1].iter().filter(|x| truthiness(x).is_none()).collect();
            if kept.len() == exprs.len() - 1 {
                return None;
            }
            if kept.is_empty() {
                Some(last.clone())
            } else {
                let mut new: Vec<Expr> = kept.into_iter().cloned().collect();
                new.push(last.clone());
                Some(Expr::Sequence { exprs: new, span: *span })
            }
        }
        _ => None,
    }
}

fn fold_unary(op: UnaryOp, arg: &Expr, span: Span) -> Option<Expr> {
    match op {
        UnaryOp::Not => truthiness(arg).map(|b| bool_expr(!b, span)),
        UnaryOp::BitNot => num_value(arg).and_then(|n| num_expr(f64::from(!to_int32(n)), span)),
        UnaryOp::TypeOf => {
            let name = match lit_of(arg)? {
                LitValue::Str(_) => "string",
                LitValue::Num(_) => "number",
                LitValue::BigInt(_) => "bigint",
                LitValue::Bool(_) => "boolean",
                LitValue::Null | LitValue::Regex { .. } => "object",
            };
            Some(str_expr(name.to_string(), span))
        }
        // `-x` / `+x` over literals are already canonical spellings; the
        // other unaries (void, delete) are not value-foldable.
        _ => None,
    }
}

fn fold_binary(op: BinaryOp, left: &Expr, right: &Expr, span: Span) -> Option<Expr> {
    use BinaryOp::*;
    // Numeric arithmetic and comparisons (through unary +/- literals).
    if let (Some(l), Some(r)) = (num_value(left), num_value(right)) {
        return match op {
            Add => num_expr(l + r, span),
            Sub => num_expr(l - r, span),
            Mul => num_expr(l * r, span),
            Div => num_expr(l / r, span),
            Mod => num_expr(l % r, span),
            Exp => num_expr(l.powf(r), span),
            Shl => num_expr(f64::from(to_int32(l) << (to_uint32(r) & 31)), span),
            Shr => num_expr(f64::from(to_int32(l) >> (to_uint32(r) & 31)), span),
            UShr => num_expr(f64::from(to_uint32(l) >> (to_uint32(r) & 31)), span),
            BitAnd => num_expr(f64::from(to_int32(l) & to_int32(r)), span),
            BitOr => num_expr(f64::from(to_int32(l) | to_int32(r)), span),
            BitXor => num_expr(f64::from(to_int32(l) ^ to_int32(r)), span),
            Lt => Some(bool_expr(l < r, span)),
            LtEq => Some(bool_expr(l <= r, span)),
            Gt => Some(bool_expr(l > r, span)),
            GtEq => Some(bool_expr(l >= r, span)),
            EqEq | EqEqEq => Some(bool_expr(l == r, span)),
            NotEq | NotEqEq => Some(bool_expr(l != r, span)),
            In | InstanceOf => None,
        };
    }
    // Same-type literal equality; ordering on ASCII strings (UTF-16 code
    // unit order and byte order agree there).
    let (l, r) = (lit_of(left)?, lit_of(right)?);
    let eq = match (l, r) {
        (LitValue::Str(a), LitValue::Str(b)) => {
            if matches!(op, Lt | LtEq | Gt | GtEq) && a.is_ascii() && b.is_ascii() {
                return Some(bool_expr(
                    match op {
                        Lt => a < b,
                        LtEq => a <= b,
                        Gt => a > b,
                        _ => a >= b,
                    },
                    span,
                ));
            }
            a == b
        }
        (LitValue::Bool(a), LitValue::Bool(b)) => a == b,
        (LitValue::Null, LitValue::Null) => true,
        // Mixed primitive types: strict equality is decided by type alone.
        (LitValue::Str(_) | LitValue::Num(_) | LitValue::Bool(_) | LitValue::Null, _)
            if strict_types_differ(l, r) =>
        {
            false
        }
        _ => return None,
    };
    match op {
        EqEqEq => Some(bool_expr(eq, span)),
        NotEqEq => Some(bool_expr(!eq, span)),
        // Loose equality only folds same-type (no coercion table needed).
        EqEq if !strict_types_differ(l, r) => Some(bool_expr(eq, span)),
        NotEq if !strict_types_differ(l, r) => Some(bool_expr(!eq, span)),
        _ => None,
    }
}

fn strict_types_differ(l: &LitValue, r: &LitValue) -> bool {
    std::mem::discriminant(l) != std::mem::discriminant(r)
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
            NormalizeOptions { passes: vec![PassKind::Constants], ..NormalizeOptions::default() };
        to_minified(&normalize(p, &opts).0)
    }

    #[test]
    fn folds_arithmetic_and_comparisons() {
        assert_eq!(run("x = 1 + 2 * 3;"), "x=7;");
        assert_eq!(run("x = 10 / 4;"), "x=2.5;");
        assert_eq!(run("x = 1 < 2;"), "x=true;");
        assert_eq!(run("x = 'a' === 'b';"), "x=false;");
        assert_eq!(run("x = 5 ^ 3;"), "x=6;");
        assert_eq!(run("x = 1 >>> 0;"), "x=1;");
    }

    #[test]
    fn negative_results_print_as_unary_minus() {
        assert_eq!(run("x = 2 - 5;"), "x=-3;");
        assert!(parse(&run("x = 1 - 4 - 4;")).is_ok());
    }

    #[test]
    fn division_by_zero_is_left_alone() {
        assert_eq!(run("x = 1 / 0;"), "x=1/0;");
        assert_eq!(run("x = 0 / 0;"), "x=0/0;");
    }

    #[test]
    fn folds_bool_compression_spellings() {
        assert_eq!(run("x = !0;"), "x=true;");
        assert_eq!(run("x = !1;"), "x=false;");
        assert_eq!(run("x = !![];"), "x=true;");
    }

    #[test]
    fn folds_logical_and_conditional_shortcuts() {
        assert_eq!(run("x = true && f();"), "x=f();");
        assert_eq!(run("x = false && f();"), "x=false;");
        assert_eq!(run("x = 0 || g();"), "x=g();");
        assert_eq!(run("x = true ? a : b;"), "x=a;");
        assert_eq!(run("x = '' ? a : b;"), "x=b;");
    }

    #[test]
    fn impure_conditions_are_untouched() {
        assert_eq!(run("x = f() && g();"), "x=f()&&g();");
        assert_eq!(run("x = [h()] ? a : b;"), "x=[h()]?a:b;");
    }

    #[test]
    fn propagates_single_assignment_literals() {
        assert_eq!(run("var k = 7; f(k, k + 1);"), "var k=7;f(7,8);");
    }

    #[test]
    fn reassigned_bindings_are_not_propagated() {
        let out = run("var k = 7; k = g(); f(k);");
        assert!(out.contains("f(k)"), "{}", out);
    }

    #[test]
    fn updated_bindings_are_not_propagated() {
        let out = run("var k = 7; k++; f(k);");
        assert!(out.contains("f(k)"), "{}", out);
    }

    #[test]
    fn shadowed_reads_resolve_per_scope() {
        let out = run("var k = 1; function g(k) { return k; } f(k);");
        assert!(out.contains("return k"), "param read must survive: {}", out);
        assert!(out.contains("f(1)"), "outer read must fold: {}", out);
    }

    #[test]
    fn with_statement_disables_propagation() {
        let out = run("var k = 1; with (o) { f(k); }");
        assert!(out.contains("f(k)"), "{}", out);
    }

    #[test]
    fn sequence_drops_pure_prefix_but_keeps_member_shape() {
        assert_eq!(run("x = (0, 1, f());"), "x=f();");
        assert_eq!(run("x = (0, o.m)();"), "x=(0,o.m)();");
    }

    #[test]
    fn typeof_literals_fold() {
        assert_eq!(run("x = typeof 'a';"), "x='string';");
        assert_eq!(run("x = typeof 1;"), "x='number';");
        assert_eq!(run("x = typeof null;"), "x='object';");
    }
}
