//! Control flow over statement-level nodes, counted rather than stored.
//!
//! Following the paper (§III-A), control flow is restricted to nodes that
//! affect execution paths: statement nodes, `CatchClause`, `SwitchCase`,
//! and `ConditionalExpression`. The layer is read only as numbers: the
//! edge count (the `cf_edges_per_node` feature and the edge budget), the
//! node count, and the nodes no path from an entry reaches (lint's
//! `unreachable-code`). One walk fills all three; no edge or node list is
//! kept.
//!
//! Reachability is a `live` flag carried down the walk. The first
//! statement of the program and of every function body is live (any
//! function may be invoked externally). A later statement in a list is
//! live when the one before it is live and is not a `return`, `throw`,
//! `break` or `continue`. Everything else (block and case contents, `if`
//! arms, loop bodies, cases, catch clauses, labeled, `with` and `export`
//! bodies, ternaries) inherits the flag of the node it hangs off.

use jsdetect_ast::*;

/// A control-flow node: a statement-level AST node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfNode {
    /// Kind of the underlying AST node.
    pub kind: NodeKind,
    /// Source span of the underlying AST node.
    pub span: Span,
}

/// The control flow of a program: its edge and node counts and the nodes
/// no entry reaches.
#[derive(Debug, Clone, Default)]
pub struct ControlFlow {
    /// Number of edges: fallthrough between list siblings (none out of a
    /// terminator); entry into a non-empty block, case, try, catch or
    /// finally body; one per `if` arm, case, catch clause and labeled,
    /// `with` or `export` body; two per loop (entry and back edge); three
    /// per ternary.
    pub edges: usize,
    /// Number of control-flow nodes.
    pub node_count: usize,
    /// Nodes no path from an entry reaches, in registration order: a
    /// statement list's nodes before anything nested in them.
    pub unreachable: Vec<CfNode>,
}

/// Counts the control flow of a program in one walk.
pub fn build_cfg(program: &Program) -> ControlFlow {
    let mut cf = ControlFlow::default();
    cf.list(&program.body, true);
    cf
}

/// True for statements that never fall through to their successor.
fn is_terminator(s: &Stmt) -> bool {
    matches!(
        s,
        Stmt::Return { .. } | Stmt::Throw { .. } | Stmt::Break { .. } | Stmt::Continue { .. }
    )
}

/// Each statement of a list with its liveness, given the first one's.
fn with_liveness(stmts: &[Stmt], first: bool) -> impl Iterator<Item = (&Stmt, bool)> {
    stmts.iter().scan(first, |live, s| {
        let me = *live;
        *live = me && !is_terminator(s);
        Some((s, me))
    })
}

impl ControlFlow {
    fn node(&mut self, kind: NodeKind, span: Span, live: bool) {
        self.node_count += 1;
        if !live {
            self.unreachable.push(CfNode { kind, span });
        }
    }

    fn stmt_node(&mut self, s: &Stmt, live: bool) {
        self.node(stmt_kind(s), s.span(), live);
    }

    /// A statement list whose first statement has liveness `live`: every
    /// statement is registered before any is walked.
    fn list(&mut self, stmts: &[Stmt], live: bool) {
        for (s, live) in with_liveness(stmts, live) {
            self.stmt_node(s, live);
        }
        if let Some((_, init)) = stmts.split_last() {
            self.edges += init.iter().filter(|s| !is_terminator(s)).count();
        }
        for (s, live) in with_liveness(stmts, live) {
            self.stmt(s, live);
        }
    }

    /// A list entered by one edge from its owner (block, case, try, catch
    /// and finally bodies), when it has a first statement.
    fn entered(&mut self, stmts: &[Stmt], live: bool) {
        self.edges += usize::from(!stmts.is_empty());
        self.list(stmts, live);
    }

    /// A single statement entered by one edge from its owner (an `if` arm,
    /// a labeled, `with` or `export` body). Each has exactly one parent,
    /// so no node is registered twice.
    fn arm(&mut self, s: &Stmt, live: bool) {
        self.stmt_node(s, live);
        self.edges += 1;
        self.stmt(s, live);
    }

    /// A loop body: the entry edge and the back edge.
    fn looped(&mut self, body: &Stmt, live: bool) {
        self.edges += 1;
        self.arm(body, live);
    }

    fn stmt(&mut self, s: &Stmt, live: bool) {
        match s {
            Stmt::Expr { expr, .. } | Stmt::Throw { arg: expr, .. } => self.expr(expr, live),
            Stmt::Block { body, .. } => self.entered(body, live),
            Stmt::VarDecl { decls, .. } => {
                for init in decls.iter().filter_map(|d| d.init.as_ref()) {
                    self.expr(init, live);
                }
            }
            Stmt::FunctionDecl(f) => self.list(&f.body, true),
            Stmt::ClassDecl(c) => self.class(c),
            Stmt::If { test, consequent, alternate, .. } => {
                self.expr(test, live);
                self.arm(consequent, live);
                if let Some(alt) = alternate {
                    self.arm(alt, live);
                }
            }
            Stmt::For { init, test, update, body, .. } => {
                if let Some(ForInit::Expr(e)) = init {
                    self.expr(e, live);
                }
                for e in [test, update].into_iter().flatten() {
                    self.expr(e, live);
                }
                self.looped(body, live);
            }
            Stmt::ForIn { body, object: e, .. }
            | Stmt::ForOf { body, iterable: e, .. }
            | Stmt::While { test: e, body, .. }
            | Stmt::DoWhile { body, test: e, .. } => {
                self.expr(e, live);
                self.looped(body, live);
            }
            Stmt::Switch { discriminant, cases, .. } => {
                self.expr(discriminant, live);
                for c in cases {
                    self.node(NodeKind::SwitchCase, c.span, live);
                    self.edges += 1;
                    self.entered(&c.body, live);
                }
            }
            Stmt::Try { block, handler, finalizer, .. } => {
                self.entered(block, live);
                if let Some(h) = handler {
                    self.node(NodeKind::CatchClause, h.span, live);
                    self.edges += 1;
                    self.entered(&h.body, live);
                }
                if let Some(fin) = finalizer {
                    self.entered(fin, live);
                }
            }
            Stmt::Return { arg, .. } => {
                if let Some(a) = arg {
                    self.expr(a, live);
                }
            }
            Stmt::Labeled { body, .. } => self.arm(body, live),
            Stmt::With { body, object, .. } => {
                self.expr(object, live);
                self.arm(body, live);
            }
            // Module declarations: imports and re-exports carry no local
            // flow; an exported declaration or default expression flows
            // like the underlying statement/expression.
            Stmt::ExportNamed { decl, .. } => {
                if let Some(decl) = decl {
                    self.arm(decl, live);
                }
            }
            Stmt::ExportDefault { expr, .. } => self.expr(expr, live),
            Stmt::Break { .. }
            | Stmt::Continue { .. }
            | Stmt::Empty { .. }
            | Stmt::Debugger { .. }
            | Stmt::Import { .. }
            | Stmt::ExportAll { .. } => {}
        }
    }

    fn class(&mut self, c: &Class) {
        for m in &c.body {
            if let ClassMemberValue::Method(f) = &m.value {
                self.list(&f.body, true);
            }
        }
    }

    /// Walks an expression for its control-flow-relevant parts:
    /// `ConditionalExpression` (a node with an entry edge and two branch
    /// edges) and nested function bodies.
    fn expr(&mut self, e: &Expr, live: bool) {
        match e {
            Expr::Conditional { test, consequent, alternate, .. } => {
                self.node(NodeKind::ConditionalExpression, e.span(), live);
                self.edges += 3;
                self.expr(test, live);
                self.expr(consequent, live);
                self.expr(alternate, live);
            }
            Expr::Function(f) => self.list(&f.body, true),
            Expr::Arrow { body, .. } => match body {
                ArrowBody::Expr(inner) => self.expr(inner, live),
                ArrowBody::Block(stmts) => self.list(stmts, true),
            },
            Expr::Class(c) => self.class(c),
            Expr::Array { elements, .. } => {
                for el in elements.iter().flatten() {
                    self.expr(el, live);
                }
            }
            Expr::Object { props, .. } => {
                for p in props {
                    self.expr(&p.value, live);
                }
            }
            Expr::Unary { arg, .. }
            | Expr::Update { arg, .. }
            | Expr::Spread { arg, .. }
            | Expr::Await { arg, .. }
            | Expr::Assign { value: arg, .. }
            | Expr::Yield { arg: Some(arg), .. } => self.expr(arg, live),
            Expr::Binary { left, right, .. } | Expr::Logical { left, right, .. } => {
                self.expr(left, live);
                self.expr(right, live);
            }
            Expr::Call { callee, args, .. } | Expr::New { callee, args, .. } => {
                self.expr(callee, live);
                for a in args {
                    self.expr(a, live);
                }
            }
            Expr::Member { object, property, .. } => {
                self.expr(object, live);
                if let MemberProp::Computed(p) = property {
                    self.expr(p, live);
                }
            }
            Expr::Sequence { exprs, .. } | Expr::Template { exprs, .. } => {
                for ex in exprs {
                    self.expr(ex, live);
                }
            }
            Expr::TaggedTemplate { tag, exprs, .. } => {
                self.expr(tag, live);
                for ex in exprs {
                    self.expr(ex, live);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_parser::parse;

    fn cfg(src: &str) -> ControlFlow {
        build_cfg(&parse(src).unwrap())
    }

    fn dead_kinds(src: &str) -> Vec<NodeKind> {
        cfg(src).unreachable.iter().map(|n| n.kind).collect()
    }

    #[test]
    fn sequence_edges_between_siblings() {
        let cf = cfg("a(); b(); c();");
        assert_eq!((cf.edges, cf.node_count), (2, 3));
    }

    #[test]
    fn if_has_branch_edges() {
        assert_eq!(cfg("if (x) a(); else b();").edges, 2);
    }

    #[test]
    fn if_without_else_has_only_true_branch() {
        assert_eq!(cfg("if (x) a();").edges, 1);
    }

    #[test]
    fn loops_have_back_edges() {
        for src in [
            "while (x) f();",
            "do f(); while (x);",
            "for (;;) f();",
            "for (k in o) f();",
            "for (k of o) f();",
        ] {
            assert_eq!(cfg(src).edges, 2, "entry and back edge in {:?}", src);
        }
    }

    #[test]
    fn switch_cases_get_match_edges() {
        // One match edge per case plus one into each case body.
        let cf = cfg("switch (x) { case 1: a(); case 2: b(); default: c(); }");
        assert_eq!(cf.edges, 6);
    }

    #[test]
    fn try_catch_has_exception_edge() {
        // Into the block, to the handler, into its body, into the finalizer.
        let cf = cfg("try { f(); } catch (e) { g(); } finally { h(); }");
        assert_eq!(cf.edges, 4);
    }

    #[test]
    fn ternary_contributes_branches() {
        let cf = cfg("x = a ? b : c;");
        assert_eq!((cf.edges, cf.node_count), (3, 2));
    }

    #[test]
    fn function_bodies_are_traversed() {
        assert_eq!(cfg("function f() { if (x) a(); }").edges, 1);
    }

    #[test]
    fn straight_line_code_is_fully_reachable() {
        let cf = cfg("a(); b(); c();");
        assert_eq!(cf.node_count, 3);
        assert!(cf.unreachable.is_empty());
    }

    #[test]
    fn code_after_return_is_unreachable() {
        assert_eq!(
            dead_kinds("function f() { return 1; dead(); }"),
            [NodeKind::ExpressionStatement]
        );
    }

    #[test]
    fn code_after_throw_and_break_is_unreachable() {
        let cf = cfg("while (x) { break; dead1(); } function g() { throw e; dead2(); }");
        assert_eq!(cf.unreachable.len(), 2);
    }

    #[test]
    fn dead_statements_pass_their_flag_down_in_registration_order() {
        // The list's nodes first, then what nests in them; the ternary
        // inherits the dead statement's flag.
        assert_eq!(
            dead_kinds("function f() { return; if (x) { a(); } y = p ? q : r; }"),
            [
                NodeKind::IfStatement,
                NodeKind::ExpressionStatement,
                NodeKind::BlockStatement,
                NodeKind::ExpressionStatement,
                NodeKind::ConditionalExpression,
            ]
        );
    }

    #[test]
    fn branch_targets_are_reachable() {
        // Single-statement if arms and loop bodies are not inside a
        // statement list; they must still be registered and reachable.
        let cf = cfg("if (x) a(); else b(); while (y) c();");
        assert!(cf.unreachable.is_empty());
        assert_eq!(cf.node_count, 5);
    }

    #[test]
    fn function_bodies_are_entry_roots() {
        // `f` is never called and `h` is declared after a `return`: only
        // the dead declaration is flagged, never a function's body.
        assert!(cfg("var z = 1; function f() { inner(); }").unreachable.is_empty());
        assert_eq!(
            dead_kinds("function g() { return; function h() { ok(); } }"),
            [NodeKind::FunctionDeclaration]
        );
    }

    #[test]
    fn node_count_covers_every_node_kind() {
        // if, try; two arms; b(), c(); d(); the catch clause; g().
        let cf = cfg("if (a) { b(); } else { c(); } try { d(); } catch (e) { g(); }");
        assert_eq!(cf.node_count, 9);
    }

    #[test]
    fn flattened_switch_shape_has_many_edges() {
        // Control-flow-flattened code: while(true) + switch = lots of edges.
        // Loop entry and back edge 2, into the block 1, four cases with
        // their bodies 8, and 2 fallthroughs in each of three cases.
        let cf = cfg(
            "while (true) { switch (s) { case 0: a(); s = 2; break; case 1: b(); s = 3; break; case 2: c(); s = 1; break; case 3: return; } }",
        );
        assert_eq!(cf.edges, 17);
    }
}
