//! Integration tests for the parser: construct coverage, ASI, precedence,
//! and error behaviour.

use jsdetect_ast::*;
use jsdetect_parser::parse;

fn p(src: &str) -> Program {
    match parse(src) {
        Ok(p) => p,
        Err(e) => panic!("failed to parse {:?}: {}", src, e),
    }
}

fn kinds(src: &str) -> Vec<NodeKind> {
    kind_stream(&p(src))
}

fn first_expr(src: &str) -> Expr {
    match p(src).body.into_iter().next().unwrap() {
        Stmt::Expr { expr, .. } => expr,
        other => panic!("expected expression statement, got {:?}", other),
    }
}

// ---- statements -----------------------------------------------------------

#[test]
fn var_declarations_all_kinds() {
    for (src, kind) in [
        ("var a = 1;", VarKind::Var),
        ("let a = 1;", VarKind::Let),
        ("const a = 1;", VarKind::Const),
    ] {
        match &p(src).body[0] {
            Stmt::VarDecl { kind: k, decls, .. } => {
                assert_eq!(*k, kind);
                assert_eq!(decls.len(), 1);
            }
            other => panic!("unexpected {:?}", other),
        }
    }
}

#[test]
fn multi_declarator() {
    match &p("var a = 1, b, c = 3;").body[0] {
        Stmt::VarDecl { decls, .. } => {
            assert_eq!(decls.len(), 3);
            assert!(decls[0].init.is_some());
            assert!(decls[1].init.is_none());
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn let_as_plain_identifier() {
    // `let` not followed by a binding is an ordinary identifier.
    let e = first_expr("let + 1;");
    assert!(matches!(e, Expr::Binary { .. }));
}

#[test]
fn if_else_chain() {
    let ks = kinds("if (a) b(); else if (c) d(); else e();");
    assert_eq!(ks.iter().filter(|k| **k == NodeKind::IfStatement).count(), 2);
}

#[test]
fn for_classic() {
    match &p("for (var i = 0; i < 10; i++) sum += i;").body[0] {
        Stmt::For { init: Some(ForInit::Var { .. }), test: Some(_), update: Some(_), .. } => {}
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn for_all_parts_empty() {
    match &p("for (;;) break;").body[0] {
        Stmt::For { init: None, test: None, update: None, .. } => {}
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn for_expr_init() {
    match &p("for (i = 0; i < n; ++i) {}").body[0] {
        Stmt::For { init: Some(ForInit::Expr(_)), .. } => {}
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn for_in_with_declaration() {
    match &p("for (var k in obj) use(k);").body[0] {
        Stmt::ForIn { target: ForTarget::Var { kind: VarKind::Var, .. }, .. } => {}
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn for_in_with_expression_target() {
    match &p("for (k in obj) {}").body[0] {
        Stmt::ForIn { target: ForTarget::Pat(Pat::Ident(i)), .. } => assert_eq!(i.name, "k"),
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn for_of_with_const() {
    match &p("for (const x of xs) f(x);").body[0] {
        Stmt::ForOf { target: ForTarget::Var { kind: VarKind::Const, .. }, .. } => {}
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn for_of_destructuring() {
    match &p("for (const [a, b] of pairs) {}").body[0] {
        Stmt::ForOf { target: ForTarget::Var { pat: Pat::Array { .. }, .. }, .. } => {}
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn while_and_do_while() {
    assert!(kinds("while (x) { x--; }").contains(&NodeKind::WhileStatement));
    assert!(kinds("do { x++; } while (x < 5);").contains(&NodeKind::DoWhileStatement));
    // do-while without trailing semicolon (ASI).
    assert!(kinds("do x++; while (x < 5)\ny()").contains(&NodeKind::DoWhileStatement));
}

#[test]
fn switch_with_cases_and_default() {
    match &p("switch (x) { case 1: a(); break; case 2: case 3: b(); break; default: c(); }").body[0]
    {
        Stmt::Switch { cases, .. } => {
            assert_eq!(cases.len(), 4);
            assert!(cases[3].test.is_none());
            assert!(cases[1].body.is_empty()); // fallthrough case 2
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn duplicate_default_rejected() {
    assert!(parse("switch (x) { default: a(); default: b(); }").is_err());
}

#[test]
fn try_catch_finally() {
    match &p("try { f(); } catch (e) { g(e); } finally { h(); }").body[0] {
        Stmt::Try { handler: Some(h), finalizer: Some(fin), .. } => {
            assert!(h.param.is_some());
            assert_eq!(fin.len(), 1);
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn optional_catch_binding() {
    match &p("try { f(); } catch { g(); }").body[0] {
        Stmt::Try { handler: Some(h), .. } => assert!(h.param.is_none()),
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn try_without_handler_rejected() {
    assert!(parse("try { f(); }").is_err());
}

#[test]
fn throw_statement() {
    assert!(kinds("throw new Error('x');").contains(&NodeKind::ThrowStatement));
    // Newline after throw is a syntax error.
    assert!(parse("throw\nnew Error('x');").is_err());
}

#[test]
fn labeled_break_continue() {
    let src = "outer: for (;;) { for (;;) { if (a) break outer; continue outer; } }";
    let ks = kinds(src);
    assert!(ks.contains(&NodeKind::LabeledStatement));
    assert!(ks.contains(&NodeKind::BreakStatement));
    assert!(ks.contains(&NodeKind::ContinueStatement));
}

#[test]
fn with_statement() {
    assert!(kinds("with (obj) { prop = 1; }").contains(&NodeKind::WithStatement));
}

#[test]
fn debugger_and_empty() {
    let ks = kinds("debugger;;");
    assert!(ks.contains(&NodeKind::DebuggerStatement));
    assert!(ks.contains(&NodeKind::EmptyStatement));
}

// ---- functions & classes ---------------------------------------------------

#[test]
fn function_declaration_and_expression() {
    match &p("function add(a, b) { return a + b; }").body[0] {
        Stmt::FunctionDecl(f) => {
            assert_eq!(f.id.as_ref().unwrap().name, "add");
            assert_eq!(f.params.len(), 2);
        }
        other => panic!("unexpected {:?}", other),
    }
    let e = first_expr("(function (x) { return x; });");
    assert!(matches!(e, Expr::Function(f) if f.id.is_none()));
}

#[test]
fn generator_and_async_functions() {
    match &p("function* gen() { yield 1; yield* inner(); }").body[0] {
        Stmt::FunctionDecl(f) => assert!(f.is_generator),
        other => panic!("unexpected {:?}", other),
    }
    match &p("async function go() { await step(); }").body[0] {
        Stmt::FunctionDecl(f) => assert!(f.is_async),
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn default_and_rest_params() {
    match &p("function f(a, b = 2, ...rest) {}").body[0] {
        Stmt::FunctionDecl(f) => {
            assert_eq!(f.params.len(), 3);
            assert!(matches!(f.params[1], Pat::Assign { .. }));
            assert!(matches!(f.params[2], Pat::Rest { .. }));
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn arrow_functions_all_shapes() {
    assert!(matches!(first_expr("x => x + 1;"), Expr::Arrow { body: ArrowBody::Expr(_), .. }));
    assert!(matches!(
        first_expr("() => 0;"),
        Expr::Arrow { ref params, .. } if params.is_empty()
    ));
    assert!(matches!(
        first_expr("(a, b) => { return a * b; };"),
        Expr::Arrow { body: ArrowBody::Block(_), .. }
    ));
    assert!(matches!(first_expr("async x => await x;"), Expr::Arrow { is_async: true, .. }));
    assert!(matches!(first_expr("async (a, b) => a + b;"), Expr::Arrow { is_async: true, .. }));
    assert!(matches!(
        first_expr("({a, b}) => a + b;"),
        Expr::Arrow { ref params, .. } if matches!(params[0], Pat::Object { .. })
    ));
    assert!(matches!(
        first_expr("(a = 1, ...rest) => rest;"),
        Expr::Arrow { ref params, .. } if params.len() == 2
    ));
}

#[test]
fn parenthesized_expr_is_not_arrow() {
    assert!(matches!(first_expr("(a + b);"), Expr::Binary { .. }));
    assert!(matches!(first_expr("(a, b);"), Expr::Sequence { .. }));
}

#[test]
fn nested_arrows() {
    let e = first_expr("a => b => a + b;");
    match e {
        Expr::Arrow { body: ArrowBody::Expr(inner), .. } => {
            assert!(matches!(*inner, Expr::Arrow { .. }));
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn class_declaration_full() {
    let src = r#"
        class Point extends Base {
            constructor(x, y) { super(); this.x = x; this.y = y; }
            get length() { return 2; }
            set length(v) { this._l = v; }
            static origin() { return new Point(0, 0); }
            *iter() { yield this.x; }
            async load() { await fetch('/'); }
            [Symbol.iterator]() { return this.iter(); }
            count = 0;
            static instances;
        }
    "#;
    match &p(src).body[0] {
        Stmt::ClassDecl(c) => {
            assert_eq!(c.id.as_ref().unwrap().name, "Point");
            assert!(c.super_class.is_some());
            assert_eq!(c.body.len(), 9);
            assert!(matches!(c.body[0].kind, MethodKind::Constructor));
            assert!(matches!(c.body[1].kind, MethodKind::Get));
            assert!(matches!(c.body[2].kind, MethodKind::Set));
            assert!(c.body[3].is_static);
            assert!(c.body[6].computed);
            assert!(matches!(c.body[7].kind, MethodKind::Field));
            assert!(c.body[8].is_static && matches!(c.body[8].kind, MethodKind::Field));
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn class_expression() {
    assert!(matches!(first_expr("(class { m() {} });"), Expr::Class(_)));
}

// ---- expressions ------------------------------------------------------------

#[test]
fn precedence_mul_over_add() {
    match first_expr("1 + 2 * 3;") {
        Expr::Binary { op: BinaryOp::Add, right, .. } => {
            assert!(matches!(*right, Expr::Binary { op: BinaryOp::Mul, .. }));
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn left_associativity_of_sub() {
    match first_expr("a - b - c;") {
        Expr::Binary { op: BinaryOp::Sub, left, .. } => {
            assert!(matches!(*left, Expr::Binary { op: BinaryOp::Sub, .. }));
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn exponent_right_associative() {
    match first_expr("a ** b ** c;") {
        Expr::Binary { op: BinaryOp::Exp, right, .. } => {
            assert!(matches!(*right, Expr::Binary { op: BinaryOp::Exp, .. }));
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn logical_and_binds_tighter_than_or() {
    match first_expr("a || b && c;") {
        Expr::Logical { op: LogicalOp::Or, right, .. } => {
            assert!(matches!(*right, Expr::Logical { op: LogicalOp::And, .. }));
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn ternary_expression() {
    assert!(matches!(first_expr("a ? b : c;"), Expr::Conditional { .. }));
    // Nested in alternate (right associative).
    match first_expr("a ? b : c ? d : e;") {
        Expr::Conditional { alternate, .. } => {
            assert!(matches!(*alternate, Expr::Conditional { .. }));
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn assignment_operators() {
    for src in ["a = 1;", "a += 1;", "a **= 2;", "a >>>= 1;", "a &&= b;", "a ??= b;"] {
        assert!(matches!(first_expr(src), Expr::Assign { .. }), "failed: {}", src);
    }
}

#[test]
fn assignment_right_associative() {
    match first_expr("a = b = 1;") {
        Expr::Assign { value, .. } => assert!(matches!(*value, Expr::Assign { .. })),
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn destructuring_assignment() {
    match first_expr("[a, b] = pair;") {
        Expr::Assign { target, .. } => assert!(matches!(*target, Pat::Array { .. })),
        other => panic!("unexpected {:?}", other),
    }
    match first_expr("({a, b} = obj);") {
        Expr::Assign { target, .. } => assert!(matches!(*target, Pat::Object { .. })),
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn member_access_dot_and_bracket() {
    match first_expr("a.b.c;") {
        Expr::Member { object, property: MemberProp::Ident(p), .. } => {
            assert_eq!(p.name, "c");
            assert!(matches!(*object, Expr::Member { .. }));
        }
        other => panic!("unexpected {:?}", other),
    }
    assert!(matches!(
        first_expr("a['b'];"),
        Expr::Member { property: MemberProp::Computed(_), .. }
    ));
}

#[test]
fn keyword_property_names() {
    assert!(matches!(first_expr("obj.class;"), Expr::Member { .. }));
    assert!(matches!(first_expr("obj.new;"), Expr::Member { .. }));
    let e = first_expr("({new: 1, for: 2, class: 3});");
    assert!(matches!(e, Expr::Object { ref props, .. } if props.len() == 3));
}

#[test]
fn calls_and_new() {
    assert!(matches!(first_expr("f(1, 2)(3);"), Expr::Call { .. }));
    match first_expr("new Foo(1);") {
        Expr::New { args, .. } => assert_eq!(args.len(), 1),
        other => panic!("unexpected {:?}", other),
    }
    // `new` without arguments.
    assert!(matches!(first_expr("new Foo;"), Expr::New { ref args, .. } if args.is_empty()));
    // `new a.b.C()` — member callee.
    match first_expr("new ns.Cls(1);") {
        Expr::New { callee, .. } => assert!(matches!(*callee, Expr::Member { .. })),
        other => panic!("unexpected {:?}", other),
    }
    // Chained call on new: `new C().m()`.
    assert!(matches!(first_expr("new C().m();"), Expr::Call { .. }));
}

#[test]
fn new_target_meta_property() {
    let src = "function f() { if (new.target) return 1; }";
    assert!(kinds(src).contains(&NodeKind::MetaProperty));
}

#[test]
fn spread_in_calls_and_arrays() {
    let ks = kinds("f(...args); [1, ...rest];");
    assert_eq!(ks.iter().filter(|k| **k == NodeKind::SpreadElement).count(), 2);
}

#[test]
fn array_holes() {
    match first_expr("[1, , 3];") {
        Expr::Array { elements, .. } => {
            assert_eq!(elements.len(), 3);
            assert!(elements[1].is_none());
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn object_literal_features() {
    let src = "({a: 1, 'b': 2, 3: 'c', [k]: 4, short, m() {}, get g() { return 1; }, set s(v) {}, ...spread});";
    match first_expr(src) {
        Expr::Object { props, .. } => {
            assert_eq!(props.len(), 9);
            assert!(props[3].computed);
            assert!(props[4].shorthand);
            assert!(props[5].method);
            assert!(matches!(props[6].kind, PropKind::Get));
            assert!(matches!(props[7].kind, PropKind::Set));
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn sequence_expression() {
    match first_expr("a, b, c;") {
        Expr::Sequence { exprs, .. } => assert_eq!(exprs.len(), 3),
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn unary_and_update() {
    assert!(matches!(first_expr("typeof x;"), Expr::Unary { op: UnaryOp::TypeOf, .. }));
    assert!(matches!(first_expr("void 0;"), Expr::Unary { op: UnaryOp::Void, .. }));
    assert!(matches!(first_expr("delete a.b;"), Expr::Unary { op: UnaryOp::Delete, .. }));
    assert!(matches!(first_expr("!x;"), Expr::Unary { op: UnaryOp::Not, .. }));
    assert!(matches!(first_expr("-x;"), Expr::Unary { op: UnaryOp::Minus, .. }));
    assert!(matches!(first_expr("++x;"), Expr::Update { prefix: true, .. }));
    assert!(matches!(first_expr("x--;"), Expr::Update { prefix: false, .. }));
}

#[test]
fn double_negation_idiom() {
    // `!!x` and `!0` minifier idioms.
    match first_expr("!!x;") {
        Expr::Unary { op: UnaryOp::Not, arg, .. } => {
            assert!(matches!(*arg, Expr::Unary { op: UnaryOp::Not, .. }));
        }
        other => panic!("unexpected {:?}", other),
    }
    assert!(matches!(first_expr("!0;"), Expr::Unary { .. }));
}

#[test]
fn template_literals() {
    match first_expr("`a${x}b${y}c`;") {
        Expr::Template { quasis, exprs, .. } => {
            assert_eq!(quasis.len(), 3);
            assert_eq!(exprs.len(), 2);
            assert_eq!(quasis[0].cooked, "a");
            assert!(quasis[2].tail);
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn tagged_template() {
    assert!(matches!(first_expr("tag`x${1}y`;"), Expr::TaggedTemplate { .. }));
}

#[test]
fn optional_chaining() {
    assert!(matches!(first_expr("a?.b;"), Expr::Member { optional: true, .. }));
    assert!(matches!(
        first_expr("a?.[0];"),
        Expr::Member { optional: true, property: MemberProp::Computed(_), .. }
    ));
    assert!(matches!(first_expr("f?.(1);"), Expr::Call { .. }));
}

#[test]
fn regex_literals_in_expression_positions() {
    assert!(matches!(first_expr("/ab/g;"), Expr::Lit(Lit { value: LitValue::Regex { .. }, .. })));
    // After `(`:
    assert!(kinds("f(/x/);").contains(&NodeKind::Literal));
    // After `=`:
    match &p("var re = /y[a-z]+/i;").body[0] {
        Stmt::VarDecl { decls, .. } => {
            assert!(matches!(
                decls[0].init,
                Some(Expr::Lit(Lit { value: LitValue::Regex { .. }, .. }))
            ));
        }
        other => panic!("unexpected {:?}", other),
    }
    // After `return`:
    assert!(parse("function f() { return /z/; }").is_ok());
    // Division is not regex.
    match first_expr("a / b / c;") {
        Expr::Binary { op: BinaryOp::Div, .. } => {}
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn yield_expressions() {
    let src = "function* g() { yield; yield 1; yield* other(); }";
    let prog = p(src);
    let mut yields = 0;
    walk(&prog, &mut |n, _| {
        if n.kind() == NodeKind::YieldExpression {
            yields += 1;
        }
    });
    assert_eq!(yields, 3);
}

#[test]
fn yield_is_an_identifier_outside_generators() {
    let yields = |src: &str| {
        let mut n = 0;
        walk(&p(src), &mut |node, _| n += (node.kind() == NodeKind::YieldExpression) as usize);
        n
    };
    match &p("var yield = 1; yield = 2;").body[1] {
        Stmt::Expr { expr: Expr::Assign { target, .. }, .. } => {
            assert!(matches!(target.as_ref(), Pat::Ident(i) if i.name == "yield"))
        }
        other => panic!("unexpected {:?}", other),
    }
    for (src, n) in [
        ("var yield = 1; yield = 2;", 0),
        ("function f() { return yield + yield.x; }", 0),
        ("function* g() { function h() { return yield; } yield h(); }", 1),
        ("function f() { function* g() { yield 1; } return yield; }", 1),
        ("function* g() { var f = () => yield; yield 1; }", 1),
        ("var o = { *m() { yield 1; }, n() { return yield; } };", 1),
        ("class C { *m() { yield 1; } n() { return yield; } }", 1),
        ("f = (yield = 1) => yield;", 0),
    ] {
        assert_eq!(yields(src), n, "{src}");
    }
}

// ---- ASI -------------------------------------------------------------------

#[test]
fn asi_between_statements() {
    let prog = p("a = 1\nb = 2\nc = 3");
    assert_eq!(prog.body.len(), 3);
}

#[test]
fn asi_return() {
    // `return` followed by newline returns undefined.
    let src = "function f() { return\n1; }";
    let prog = p(src);
    match &prog.body[0] {
        Stmt::FunctionDecl(f) => {
            assert!(matches!(f.body[0], Stmt::Return { arg: None, .. }));
            // The `1;` becomes a separate expression statement.
            assert_eq!(f.body.len(), 2);
        }
        other => panic!("unexpected {:?}", other),
    }
}

#[test]
fn asi_before_rbrace_and_eof() {
    assert!(parse("{ a = 1 }").is_ok());
    assert!(parse("a = 1").is_ok());
}

#[test]
fn asi_postfix_restriction() {
    // Newline before `++` starts a new statement.
    let prog = p("a\n++b");
    assert_eq!(prog.body.len(), 2);
}

#[test]
fn missing_semicolon_without_newline_is_error() {
    assert!(parse("a = 1 b = 2").is_err());
}

#[test]
fn asi_break_continue_labels() {
    // Newline after break ends the statement (label belongs to next stmt).
    let src = "x: for (;;) { break\nx; }";
    let prog = p(src);
    match &prog.body[0] {
        Stmt::Labeled { body, .. } => match &**body {
            Stmt::For { body, .. } => match &**body {
                Stmt::Block { body, .. } => {
                    assert!(matches!(body[0], Stmt::Break { label: None, .. }));
                }
                other => panic!("unexpected {:?}", other),
            },
            other => panic!("unexpected {:?}", other),
        },
        other => panic!("unexpected {:?}", other),
    }
}

// ---- errors ------------------------------------------------------------------

#[test]
fn syntax_errors_are_errors_not_panics() {
    for src in [
        "var;",
        "if (",
        "function () {}", // declaration requires name
        "for (var i = 0 i < 1;) {}",
        "a ==== b;",
        "class {",
        "({a:});",
        "[1, 2",
        "x ? y;",
        "*;",
    ] {
        assert!(parse(src).is_err(), "expected error for {:?}", src);
    }
}

#[test]
fn deeply_nested_input_errors_instead_of_overflowing() {
    let src = format!("{}1{}", "(".repeat(5000), ")".repeat(5000));
    assert!(parse(&src).is_err());
    let arr = format!("{}1{}", "[".repeat(5000), "]".repeat(5000));
    assert!(parse(&arr).is_err());
}

#[test]
fn fifty_k_deep_paren_bomb_errors_instead_of_overflowing() {
    // The ISSUE-4 regression input: 50k-deep `((((…))))`.
    let src = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
    assert!(parse(&src).is_err());
}

#[test]
fn new_chain_and_binding_pattern_bombs_error_instead_of_overflowing() {
    // `new new new … a` recurses through parse_member_only, which used to
    // have no depth guard.
    let src = format!("{}a", "new ".repeat(50_000));
    assert!(parse(&src).is_err());
    // Nested binding patterns recurse through parse_binding_pat, which also
    // used to have no depth guard.
    let pat = format!("var {}a{} = x;", "[".repeat(50_000), "]".repeat(50_000));
    assert!(parse(&pat).is_err());
    let obj = format!("var {}a{} = x;", "{a:".repeat(50_000), "}".repeat(50_000));
    assert!(parse(&obj).is_err());
}

#[test]
fn iterative_chain_bombs_error_instead_of_overflowing() {
    // Left-deep chains are built by parser loops, not recursion, so the
    // plain recursion guard never fires on them — but downstream recursive
    // consumers (and drop glue) descend one frame per link. The chain
    // charge must bound them all the same.
    let binary = format!("x = 1{};", "+1".repeat(200_000));
    assert!(parse(&binary).is_err());
    let call = format!("f{};", "()".repeat(100_000));
    assert!(parse(&call).is_err());
    let member = format!("a{};", ".b".repeat(100_000));
    assert!(parse(&member).is_err());
    let new_member = format!("new a{};", ".b".repeat(100_000));
    assert!(parse(&new_member).is_err());
    // Moderate chains — routine in minified bundles — still parse.
    let legit_binary = format!("x = 1{};", "+1".repeat(500));
    assert!(parse(&legit_binary).is_ok());
    let legit_member = format!("a{};", ".b".repeat(500));
    assert!(parse(&legit_member).is_ok());
}

#[test]
fn budgeted_parse_records_typed_depth_violation() {
    use jsdetect_guard::{AnalysisError, Budget, Limits};
    let src = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
    let budget = Budget::new(&Limits::wild());
    assert!(jsdetect_parser::parse_with_budget(&src, &budget).is_err());
    assert_eq!(
        budget.take_violation(),
        Some(AnalysisError::AstDepthExceeded { limit: Limits::wild().max_ast_depth })
    );
    // A shallow program under the same preset parses fine and records
    // nothing.
    let budget = Budget::new(&Limits::wild());
    assert!(jsdetect_parser::parse_with_budget("var x = (1 + 2) * 3;", &budget).is_ok());
    assert!(budget.take_violation().is_none());
    assert!(budget.tokens_used() > 0);
}

/// `x = (a = (a = … 1));`: `depth` nested groups, each a would-be arrow
/// head whose default holds the next.
fn nested_default_groups(depth: usize) -> String {
    format!("x = {}1{};", "(a = ".repeat(depth), ")".repeat(depth))
}

/// `x = f((a = f((a = … 1))));`: the same nesting through call arguments.
fn nested_default_calls(depth: usize) -> String {
    format!("x = {}1{};", "f((a = ".repeat(depth), "))".repeat(depth))
}

#[test]
fn nested_groups_are_lexed_once_under_the_wild_budget() {
    use jsdetect_guard::{Budget, Limits};
    for src in [nested_default_groups(20), nested_default_calls(14)] {
        let budget = Budget::new(&Limits::wild());
        let (_, _, counts) = jsdetect_parser::parse_with_comments_budget(&src, &budget)
            .unwrap_or_else(|e| panic!("{}: {}", src, e));
        assert_eq!(budget.tokens_used(), counts.total as u64, "{}", src);
    }
}

#[test]
fn deeply_nested_groups_fail_fast_on_depth() {
    use jsdetect_guard::{AnalysisError, Budget, Limits};
    let src = nested_default_groups(30);
    let budget = Budget::new(&Limits::trusted());
    let started = std::time::Instant::now();
    assert!(jsdetect_parser::parse_with_budget(&src, &budget).is_err());
    assert_eq!(
        budget.take_violation(),
        Some(AnalysisError::AstDepthExceeded { limit: Limits::trusted().max_ast_depth })
    );
    assert!(started.elapsed() < std::time::Duration::from_secs(1), "{:?}", started.elapsed());
}

/// `f = (a = (a = … 1) => 0 …) => 0;`: `depth` arrow functions, each the
/// default of the next one's parameter.
fn nested_default_arrows(depth: usize) -> String {
    format!("f = {}1{};", "(a = ".repeat(depth), ") => 0".repeat(depth))
}

#[test]
fn nested_arrow_defaults_take_one_frame_per_level() {
    use jsdetect_guard::{AnalysisError, Budget, Limits};
    for depth in [30, 100, 140] {
        let budget = Budget::new(&Limits::wild());
        let src = nested_default_arrows(depth);
        jsdetect_parser::parse_with_budget(&src, &budget)
            .unwrap_or_else(|e| panic!("{depth} levels: {e}"));
    }
    let budget = Budget::new(&Limits::wild());
    assert!(jsdetect_parser::parse_with_budget(&nested_default_arrows(150), &budget).is_err());
    assert_eq!(budget.take_violation(), Some(AnalysisError::AstDepthExceeded { limit: 150 }));
}

#[test]
fn groups_at_the_depth_limit_take_the_frames_of_their_grammar() {
    use jsdetect_guard::{Budget, Limits};
    // The smallest `max_ast_depth` each parses under: an arrow head takes
    // its parameter list's frames, a parenthesized expression or call the
    // expression grammar's.
    let cases = [
        ("x = (a) => 0;", 8),
        ("x = ([a, {b: [c]}]) => 0;", 8),
        ("x = async (a) => 0;", 8),
        ("x = async a => 0;", 8),
        ("x = (a = 1, ...r) => 0;", 8),
        ("f = (yield) => 0;", 8),
        ("x = async(a);", 11),
        ("x = (a);", 12),
        ("x = (a, b);", 12),
        ("x = ([a]);", 16),
    ];
    for (src, min) in cases {
        for (max_ast_depth, parses) in [(min - 1, false), (min, true)] {
            let budget = Budget::new(&Limits { max_ast_depth, ..Limits::wild() });
            let r = jsdetect_parser::parse_with_budget(src, &budget);
            assert_eq!(r.is_ok(), parses, "{src} under {max_ast_depth}");
            assert_eq!(budget.take_violation().is_some(), !parses, "{src} under {max_ast_depth}");
        }
    }
}

#[test]
fn arrow_heads_in_deep_arrays_take_no_expression_frames() {
    use jsdetect_guard::{Budget, Limits};
    // 35 or 36 arrays leave room for these parameter lists but not for the
    // five frames the expression grammar takes at `()`: the script's one
    // error is the syntax error after it, and no depth violation is left.
    let arrays = |k: usize, arrow: &str| format!("x = {}{arrow}{};", "[".repeat(k), "]".repeat(k));
    let budget = Budget::new(&Limits::wild());
    assert!(jsdetect_parser::parse_with_budget(&arrays(35, "(a) => 0"), &budget).is_ok());
    for k in [35, 36] {
        for arrow in ["() => {}", "(...r) => {}"] {
            let src = arrays(k, arrow) + " a b;";
            let budget = Budget::new(&Limits::wild());
            let e = jsdetect_parser::parse_with_budget(&src, &budget).unwrap_err();
            assert!(e.msg.starts_with("expected `;`"), "{src}: {e}");
            assert_eq!(budget.take_violation(), None, "{src}");
        }
    }
}

#[test]
fn yield_with_a_default_is_no_arrow_parameter_in_a_generator() {
    // In a generator the expression grammar reads `yield` before `=` as a
    // yield expression, and an arrow head is parsed by that grammar; a
    // bare `yield` still names a parameter.
    let e = parse("function* g() { f = (yield = 1) => 0; }").unwrap_err();
    assert_eq!((e.pos, e.msg.as_str()), (27, "unexpected `=` while parsing expression"));
    let e = parse("function* g() { f = ({a: yield} = {}) => 0; }").unwrap_err();
    assert_eq!((e.pos, e.msg.as_str()), (25, "invalid assignment target"));
    assert!(parse("function* g() { f = (yield) => 0; }").is_ok());
    // Outside one, `yield` is an identifier, with or without a default.
    assert!(parse("f = (yield = 1) => 0;").is_ok());
    assert!(parse("f = ({a: yield} = {}) => 0;").is_ok());
}

#[test]
fn realistic_program_parses() {
    let src = r#"
        (function (global, factory) {
            typeof exports === 'object' && typeof module !== 'undefined'
                ? factory(exports)
                : typeof define === 'function' && define.amd
                    ? define(['exports'], factory)
                    : factory((global = global || self).lib = {});
        }(this, function (exports) {
            'use strict';
            var VERSION = '1.2.3';
            function assign(target) {
                for (var i = 1; i < arguments.length; i++) {
                    var src = arguments[i];
                    for (var key in src) {
                        if (Object.prototype.hasOwnProperty.call(src, key)) {
                            target[key] = src[key];
                        }
                    }
                }
                return target;
            }
            var cache = {};
            function memoize(fn) {
                return function (arg) {
                    return cache[arg] !== undefined ? cache[arg] : (cache[arg] = fn(arg));
                };
            }
            exports.assign = assign;
            exports.memoize = memoize;
            exports.VERSION = VERSION;
            Object.defineProperty(exports, '__esModule', { value: true });
        }));
    "#;
    let prog = p(src);
    assert_eq!(prog.body.len(), 1);
}

#[test]
fn minified_style_program_parses() {
    let src = "var a=function(t,e){return t&&e?t+e:t||e},b=a(1,2),c=!0,d=b>2?[1,2,3].map(function(t){return t*2}):[];c&&d.forEach(function(t){console.log(t)});";
    assert!(parse(src).is_ok());
}

#[test]
fn obfuscated_style_program_parses() {
    let src = r#"var _0x1a2b=['\x48\x65\x6c\x6c\x6f','log'];(function(_0xc,_0xd){var _0xe=function(_0xf){while(--_0xf){_0xc['push'](_0xc['shift']());}};_0xe(++_0xd);}(_0x1a2b,0x1a3));var _0x3c4d=function(_0x10,_0x11){_0x10=_0x10-0x0;var _0x12=_0x1a2b[_0x10];return _0x12;};console[_0x3c4d('0x1')](_0x3c4d('0x0'));"#;
    assert!(parse(src).is_ok());
}

#[test]
fn getter_setter_named_get_set() {
    // `get` / `set` as ordinary property names and methods.
    assert!(parse("({get: 1, set: 2});").is_ok());
    assert!(parse("({get() { return 1; }, set() {}});").is_ok());
    assert!(parse("obj.get(1); obj.set(1);").is_ok());
}

#[test]
fn async_as_identifier() {
    assert!(parse("var async = 1; async = async + 1;").is_ok());
    assert!(parse("async();").is_ok());
}

#[test]
fn async_alone_is_an_arrow_parameter() {
    let Stmt::Expr { expr: Expr::Assign { value, .. }, .. } = &p("f = async => 1;").body[0] else {
        panic!("expected an assignment");
    };
    match &**value {
        Expr::Arrow { params, is_async: false, .. } => {
            assert!(matches!(&params[..], [Pat::Ident(i)] if i.name == "async"));
        }
        other => panic!("expected a plain arrow, got {:?}", other),
    }
    assert!(matches!(first_expr("async => async;"), Expr::Arrow { is_async: false, .. }));
    assert!(matches!(first_expr("async async => 1;"), Expr::Arrow { is_async: true, .. }));
    assert!(parse("async\n=> 1;").is_err());
}

#[test]
fn async_or_generator_property_requires_a_parameter_list() {
    for src in [
        "x = {async a};",
        "x = {*a: 1};",
        "x = {async a: 1};",
        "x = {*a};",
        "x = {async *a};",
        "({async a} = o);",
        "({*a: b} = o);",
        "({async a}) => 0;",
    ] {
        assert!(parse(src).is_err(), "expected error for {:?}", src);
    }
    for src in ["x = {async a() {}, *b() {}, async *c() {}};", "x = {async, async: 1};"] {
        assert!(parse(src).is_ok(), "expected {:?} to parse", src);
    }
}

#[test]
fn in_operator_inside_for_parens() {
    // `in` must be allowed inside parenthesized sub-expressions of for-init.
    assert!(parse("for (var x = ('a' in obj); x; x = false) {}").is_ok());
}

#[test]
fn comments_do_not_affect_ast() {
    let a = p("var x = 1; // trailing\n/* block */ var y = 2;");
    let b = p("var x = 1; var y = 2;");
    assert_eq!(kind_stream(&a), kind_stream(&b));
}

#[test]
fn spans_are_well_formed() {
    let src = "function f(a) { return a ? a + 1 : 0; }";
    let prog = p(src);
    walk(&prog, &mut |n, _| {
        let span = match n {
            NodeRef::Stmt(s) => s.span(),
            NodeRef::Expr(e) => e.span(),
            NodeRef::Pat(pat) => pat.span(),
            _ => return,
        };
        assert!(span.start <= span.end);
        assert!(span.end as usize <= src.len());
    });
}

use jsdetect_ast::visit::NodeRef;
