//! Control-flow flattening (paper §II-A, ref. \[23\]).
//!
//! Rewrites straight-line statement sequences into the obfuscator.io
//! dispatch shape: the statements move into the cases of a `switch` inside
//! an infinite `while` loop, executed in an order dictated by a shuffled
//! order-string:
//!
//! ```text
//! var _0xo = '2|0|1'.split('|'), _0xi = 0;
//! while (!![]) {
//!     switch (_0xo[_0xi++]) {
//!     case '0': ...; continue;
//!     ...
//!     }
//!     break;
//! }
//! ```

use jsdetect_ast::builder::*;
use jsdetect_ast::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Minimum number of flattenable statements in a body.
const MIN_STMTS: usize = 3;
/// Maximum number of statements to flatten in one body.
const MAX_STMTS: usize = 64;

/// Flattens eligible statement lists in place, function bodies and the
/// top-level program body. Returns how many bodies were flattened.
pub fn flatten_control_flow(program: &mut Program, rng: &mut StdRng) -> usize {
    let mut count = 0;
    // Function bodies first (visit before restructuring the top level).
    let mut body = std::mem::take(&mut program.body);
    for s in body.iter_mut() {
        count += flatten_in_stmt(s, rng);
    }
    count += flatten_list(&mut body, rng);
    program.body = body;
    count
}

fn flatten_in_stmt(s: &mut Stmt, rng: &mut StdRng) -> usize {
    let mut count = 0;
    match s {
        Stmt::FunctionDecl(f) => {
            for st in f.body.iter_mut() {
                count += flatten_in_stmt(st, rng);
            }
            count += flatten_list(&mut f.body, rng);
        }
        Stmt::Expr { expr, .. } => count += flatten_in_expr(expr, rng),
        Stmt::VarDecl { decls, .. } => {
            for d in decls.iter_mut() {
                if let Some(init) = &mut d.init {
                    count += flatten_in_expr(init, rng);
                }
            }
        }
        Stmt::Block { body, .. } => {
            for st in body.iter_mut() {
                count += flatten_in_stmt(st, rng);
            }
        }
        Stmt::If { consequent, alternate, .. } => {
            count += flatten_in_stmt(consequent, rng);
            if let Some(alt) = alternate {
                count += flatten_in_stmt(alt, rng);
            }
        }
        Stmt::For { body, .. }
        | Stmt::ForIn { body, .. }
        | Stmt::ForOf { body, .. }
        | Stmt::While { body, .. }
        | Stmt::DoWhile { body, .. }
        | Stmt::Labeled { body, .. }
        | Stmt::With { body, .. } => count += flatten_in_stmt(body, rng),
        Stmt::Try { block, handler, finalizer, .. } => {
            for st in block.iter_mut() {
                count += flatten_in_stmt(st, rng);
            }
            if let Some(h) = handler {
                for st in h.body.iter_mut() {
                    count += flatten_in_stmt(st, rng);
                }
            }
            if let Some(fin) = finalizer {
                for st in fin.iter_mut() {
                    count += flatten_in_stmt(st, rng);
                }
            }
        }
        _ => {}
    }
    count
}

fn flatten_in_expr(e: &mut Expr, rng: &mut StdRng) -> usize {
    let mut count = 0;
    match e {
        Expr::Function(f) => {
            for st in f.body.iter_mut() {
                count += flatten_in_stmt(st, rng);
            }
            count += flatten_list(&mut f.body, rng);
        }
        Expr::Arrow { body: ArrowBody::Block(stmts), .. } => {
            for st in stmts.iter_mut() {
                count += flatten_in_stmt(st, rng);
            }
            count += flatten_list(stmts, rng);
        }
        Expr::Call { callee, args, .. } | Expr::New { callee, args, .. } => {
            count += flatten_in_expr(callee, rng);
            for a in args.iter_mut() {
                count += flatten_in_expr(a, rng);
            }
        }
        Expr::Assign { value, .. } => count += flatten_in_expr(value, rng),
        Expr::Object { props, .. } => {
            for p in props.iter_mut() {
                count += flatten_in_expr(&mut p.value, rng);
            }
        }
        Expr::Array { elements, .. } => {
            for el in elements.iter_mut().flatten() {
                count += flatten_in_expr(el, rng);
            }
        }
        _ => {}
    }
    count
}

/// Whether a statement can safely move into a dispatch case.
fn is_flattenable(s: &Stmt) -> bool {
    match s {
        // Lexical declarations would become case-scoped; function
        // declarations in cases have messy hoisting semantics.
        Stmt::VarDecl { kind, .. } => !kind.is_lexical(),
        Stmt::FunctionDecl(_) | Stmt::ClassDecl(_) => false,
        // Bare break/continue at body top level cannot occur in valid
        // function bodies, but labeled ones can target enclosing labels.
        Stmt::Break { .. } | Stmt::Continue { .. } => false,
        Stmt::Expr { .. }
        | Stmt::If { .. }
        | Stmt::Return { .. }
        | Stmt::Throw { .. }
        | Stmt::While { .. }
        | Stmt::DoWhile { .. }
        | Stmt::For { .. }
        | Stmt::ForIn { .. }
        | Stmt::ForOf { .. }
        | Stmt::Switch { .. }
        | Stmt::Try { .. }
        | Stmt::Block { .. } => true,
        _ => false,
    }
}

/// Flattens one statement list if eligible. Returns 1 if flattened.
fn flatten_list(body: &mut Vec<Stmt>, rng: &mut StdRng) -> usize {
    let skip = crate::string_obf::directive_count(body);
    // Partition: leading directives + function/class declarations stay out.
    let decls: Vec<usize> = (skip..body.len())
        .filter(|&i| matches!(body[i], Stmt::FunctionDecl(_) | Stmt::ClassDecl(_)))
        .collect();
    let flatten_idx: Vec<usize> = (skip..body.len()).filter(|i| !decls.contains(i)).collect();
    if flatten_idx.len() < MIN_STMTS || flatten_idx.len() > MAX_STMTS {
        return 0;
    }
    if flatten_idx.iter().any(|&i| !is_flattenable(&body[i])) {
        return 0;
    }

    // Extract in order.
    let mut extracted = Vec::new();
    let mut kept = Vec::new();
    for (i, s) in std::mem::take(body).into_iter().enumerate() {
        if flatten_idx.contains(&i) {
            extracted.push(s);
        } else {
            kept.push(s);
        }
    }

    let n = extracted.len();
    // Shuffle the case order; the order string lists execution order.
    let mut case_ids: Vec<usize> = (0..n).collect();
    case_ids.shuffle(rng);
    // case_ids[j] = the dispatch key of the j-th statement to execute.
    let order_string = case_ids.iter().map(|k| k.to_string()).collect::<Vec<_>>().join("|");

    let order_name = format!("_0x{:x}o", rng.gen_range(0x1000u32..0xFFFF));
    let idx_name = format!("_0x{:x}i", rng.gen_range(0x1000u32..0xFFFF));

    // var ORDER = 'a|b|c'.split('|'), IDX = 0;
    let order_decl = Stmt::VarDecl {
        kind: VarKind::Var,
        decls: vec![
            VarDeclarator {
                id: Pat::Ident(Ident::new(order_name.clone())),
                init: Some(method_call(str_lit(order_string), "split", vec![str_lit("|")])),
                span: Span::DUMMY,
            },
            VarDeclarator {
                id: Pat::Ident(Ident::new(idx_name.clone())),
                init: Some(num_lit(0.0)),
                span: Span::DUMMY,
            },
        ],
        span: Span::DUMMY,
    };

    // Cases in key order 0..n, each holding the statement whose execution
    // position maps to that key.
    let mut stmt_of_key: Vec<Option<Stmt>> = (0..n).map(|_| None).collect();
    for (exec_pos, stmt) in extracted.into_iter().enumerate() {
        stmt_of_key[case_ids[exec_pos]] = Some(stmt);
    }
    let cases: Vec<SwitchCase> = stmt_of_key
        .into_iter()
        .enumerate()
        .map(|(key, stmt)| SwitchCase {
            test: Some(str_lit(key.to_string())),
            body: vec![stmt.unwrap(), Stmt::Continue { label: None, span: Span::DUMMY }],
            span: Span::DUMMY,
        })
        .collect();

    // switch (ORDER[IDX++]) { ... }
    let discriminant = index(
        ident(order_name),
        Expr::Update {
            op: UpdateOp::Increment,
            prefix: false,
            arg: Box::new(ident(idx_name)),
            span: Span::DUMMY,
        },
    );
    let switch_stmt = Stmt::Switch { discriminant, cases, span: Span::DUMMY };

    // while (!![]) { switch ...; break; }
    let cond = unary(
        UnaryOp::Not,
        unary(UnaryOp::Not, Expr::Array { elements: vec![], span: Span::DUMMY }),
    );
    let loop_stmt =
        while_stmt(cond, block(vec![switch_stmt, Stmt::Break { label: None, span: Span::DUMMY }]));

    // Reassemble: directives, declarations, dispatcher.
    let mut out = Vec::new();
    let mut kept_iter = kept.into_iter();
    for _ in 0..skip {
        if let Some(s) = kept_iter.next() {
            out.push(s);
        }
    }
    out.push(order_decl);
    out.extend(kept_iter); // remaining function/class declarations
    out.push(loop_stmt);
    *body = out;
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_codegen::to_minified;
    use jsdetect_parser::parse;
    use rand::SeedableRng;

    fn run(src: &str) -> String {
        let mut prog = parse(src).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        flatten_control_flow(&mut prog, &mut rng);
        to_minified(&prog)
    }

    #[test]
    fn flattens_top_level() {
        let out = run("a(); b(); c(); d();");
        assert!(out.contains("switch"), "{}", out);
        assert!(out.contains("while(!![])"), "{}", out);
        assert!(out.contains(".split('|')"), "{}", out);
        assert!(out.contains("continue;"), "{}", out);
        assert!(parse(&out).is_ok());
    }

    #[test]
    fn order_string_has_all_indices() {
        let out = run("a(); b(); c(); d(); e();");
        let order = out.split('\'').nth(1).unwrap();
        let mut keys: Vec<&str> = order.split('|').collect();
        keys.sort_unstable();
        assert_eq!(keys, vec!["0", "1", "2", "3", "4"]);
    }

    #[test]
    fn flattens_function_bodies() {
        let out = run("function f() { one(); two(); three(); }");
        assert!(out.contains("switch"), "{}", out);
        assert!(parse(&out).is_ok());
    }

    #[test]
    fn too_few_statements_untouched() {
        let out = run("a(); b();");
        assert!(!out.contains("switch"), "{}", out);
    }

    #[test]
    fn too_many_statements_untouched() {
        assert!(run(&"a();".repeat(MAX_STMTS)).contains("switch"));
        assert!(!run(&"a();".repeat(MAX_STMTS + 1)).contains("switch"));
    }

    #[test]
    fn lexical_declarations_block_flattening() {
        let out = run("let a = 1; f(a); g(a); h(a);");
        assert!(!out.contains("switch"), "{}", out);
    }

    #[test]
    fn function_declarations_stay_outside_switch() {
        let out = run("helper(); function helper() {} a(); b(); c();");
        assert!(out.contains("switch"), "{}", out);
        // The declaration must not be inside a case body.
        let before_switch = out.split("switch").next().unwrap();
        assert!(before_switch.contains("function helper()"), "{}", out);
    }

    #[test]
    fn var_declarations_can_be_flattened() {
        let out = run("var a = 1; var b = 2; use(a, b); more(b);");
        assert!(out.contains("switch"), "{}", out);
        assert!(parse(&out).is_ok());
    }

    #[test]
    fn returns_inside_functions_ok() {
        let out = run("function f(x) { var y = x * 2; log(y); return y; }");
        assert!(out.contains("switch"), "{}", out);
        assert!(out.contains("return"), "{}", out);
    }

    #[test]
    fn deterministic() {
        assert_eq!(run("a(); b(); c();"), run("a(); b(); c();"));
    }

    #[test]
    fn directive_stays_first() {
        let out = run("'use strict'; a(); b(); c();");
        assert!(out.starts_with("'use strict';"), "{}", out);
        assert!(out.contains("switch"), "{}", out);
    }
}
