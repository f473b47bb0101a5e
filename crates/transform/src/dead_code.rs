//! Dead-code injection (paper §II-A, *logic structure obfuscation*).
//!
//! Inserts statements that can never execute or whose results are never
//! used: opaque-predicate branches, unused helper functions, and junk
//! variable declarations. Predicates compare an injected sentinel variable
//! against a value it can never hold, so constant folding cannot remove
//! them.

use jsdetect_ast::builder::*;
use jsdetect_ast::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Injected statements per existing statement (approximate).
const DENSITY: f64 = 0.6;
/// Maximum junk statements to inject in total.
const MAX_INJECTED: usize = 64;

/// Injects dead code in place. Returns the number of injected statements.
pub fn inject_dead_code(program: &mut Program, rng: &mut StdRng) -> usize {
    let sentinel = format!("_0x{:x}s", rng.gen_range(0x1000u32..0xFFFF));
    let sentinel_value = format!("W{:x}", rng.gen::<u32>());
    let mut injector = Injector {
        rng,
        sentinel: sentinel.clone(),
        sentinel_value: sentinel_value.clone(),
        injected: 0,
    };
    let skip = crate::string_obf::directive_count(&program.body);
    let mut body = std::mem::take(&mut program.body);
    injector.stmt_list(&mut body, skip);
    // Also inject into function bodies.
    for s in body.iter_mut() {
        injector.walk_stmt(s);
    }
    let injected = injector.injected;
    // Sentinel declaration: holds a value the predicates never match.
    body.insert(
        skip.min(body.len()),
        var_decl(VarKind::Var, sentinel, Some(str_lit(sentinel_value))),
    );
    program.body = body;
    injected + 1
}

struct Injector<'a> {
    rng: &'a mut StdRng,
    sentinel: String,
    sentinel_value: String,
    injected: usize,
}

impl Injector<'_> {
    /// Inserts junk at random positions of a statement list.
    fn stmt_list(&mut self, body: &mut Vec<Stmt>, skip: usize) {
        if self.injected >= MAX_INJECTED {
            return;
        }
        let n = body.len().saturating_sub(skip);
        let count = ((n as f64 * DENSITY).ceil() as usize).clamp(1, 8);
        for _ in 0..count {
            if self.injected >= MAX_INJECTED {
                break;
            }
            let pos =
                if body.len() > skip { self.rng.gen_range(skip..=body.len()) } else { body.len() };
            let junk = self.junk_stmt();
            body.insert(pos, junk);
            self.injected += 1;
        }
    }

    /// Recursively injects into function bodies and blocks.
    fn walk_stmt(&mut self, s: &mut Stmt) {
        match s {
            Stmt::FunctionDecl(f) => {
                let skip = crate::string_obf::directive_count(&f.body);
                self.stmt_list(&mut f.body, skip);
                for st in f.body.iter_mut() {
                    self.walk_stmt(st);
                }
            }
            Stmt::Block { body, .. } => {
                for st in body.iter_mut() {
                    self.walk_stmt(st);
                }
            }
            Stmt::Expr { expr, .. } | Stmt::Throw { arg: expr, .. } => self.walk_expr(expr),
            Stmt::VarDecl { decls, .. } => {
                for d in decls.iter_mut() {
                    if let Some(init) = &mut d.init {
                        self.walk_expr(init);
                    }
                }
            }
            Stmt::If { consequent, alternate, .. } => {
                self.walk_stmt(consequent);
                if let Some(alt) = alternate {
                    self.walk_stmt(alt);
                }
            }
            Stmt::For { body, .. }
            | Stmt::ForIn { body, .. }
            | Stmt::ForOf { body, .. }
            | Stmt::While { body, .. }
            | Stmt::DoWhile { body, .. }
            | Stmt::Labeled { body, .. }
            | Stmt::With { body, .. } => self.walk_stmt(body),
            Stmt::Try { block, handler, finalizer, .. } => {
                for st in block.iter_mut() {
                    self.walk_stmt(st);
                }
                if let Some(h) = handler {
                    for st in h.body.iter_mut() {
                        self.walk_stmt(st);
                    }
                }
                if let Some(fin) = finalizer {
                    for st in fin.iter_mut() {
                        self.walk_stmt(st);
                    }
                }
            }
            _ => {}
        }
    }

    fn walk_expr(&mut self, e: &mut Expr) {
        if let Expr::Function(f) = e {
            let skip = crate::string_obf::directive_count(&f.body);
            self.stmt_list(&mut f.body, skip);
            for st in f.body.iter_mut() {
                self.walk_stmt(st);
            }
        }
        // Only function expressions get injections; other expressions are
        // left alone to keep the pass cheap.
    }

    fn junk_stmt(&mut self) -> Stmt {
        match self.rng.gen_range(0..4u8) {
            0 => self.opaque_branch(),
            1 => self.junk_function(),
            2 => self.junk_var(),
            _ => self.opaque_while(),
        }
    }

    fn junk_name(&mut self) -> String {
        format!("_0x{:x}", self.rng.gen_range(0x10000u32..0xFFFFFF))
    }

    /// `if (SENTINEL === 'xyz') { junk; }` — never true.
    fn opaque_branch(&mut self) -> Stmt {
        let other = format!("Q{:x}", self.rng.gen::<u32>());
        debug_assert_ne!(other, self.sentinel_value);
        if_stmt(
            binary(BinaryOp::EqEqEq, ident(self.sentinel.clone()), str_lit(other)),
            block(vec![self.junk_inner(), self.junk_inner()]),
            None,
        )
    }

    /// `while (SENTINEL === 'xyz') { junk; }` — never entered.
    fn opaque_while(&mut self) -> Stmt {
        let other = format!("R{:x}", self.rng.gen::<u32>());
        while_stmt(
            binary(BinaryOp::EqEqEq, ident(self.sentinel.clone()), str_lit(other)),
            block(vec![self.junk_inner()]),
        )
    }

    fn junk_function(&mut self) -> Stmt {
        let name = self.junk_name();
        let guard = self.opaque_branch();
        fn_decl(name, vec!["a", "b"], vec![guard, self.junk_inner(), ret(Some(self.junk_value()))])
    }

    fn junk_var(&mut self) -> Stmt {
        let name = self.junk_name();
        var_decl(VarKind::Var, name, Some(self.junk_value()))
    }

    fn junk_inner(&mut self) -> Stmt {
        match self.rng.gen_range(0..3u8) {
            0 => {
                let name = self.junk_name();
                var_decl(VarKind::Var, name, Some(self.junk_value()))
            }
            1 => expr_stmt(method_call(ident("console"), "log", vec![self.junk_value()])),
            _ => expr_stmt(self.junk_value()),
        }
    }

    fn junk_value(&mut self) -> Expr {
        match self.rng.gen_range(0..4u8) {
            0 => binary(
                BinaryOp::Mul,
                num_lit(self.rng.gen_range(2..100) as f64),
                num_lit(self.rng.gen_range(2..100) as f64),
            ),
            1 => method_call(
                ident("Math"),
                "floor",
                vec![binary(
                    BinaryOp::Div,
                    num_lit(self.rng.gen_range(100..10000) as f64),
                    num_lit(self.rng.gen_range(2..50) as f64),
                )],
            ),
            2 => str_lit(format!("k{:x}", self.rng.gen::<u32>())),
            _ => binary(
                BinaryOp::Add,
                str_lit(format!("p{:x}", self.rng.gen::<u16>())),
                num_lit(self.rng.gen_range(0..256) as f64),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_codegen::to_minified;
    use jsdetect_parser::parse;
    use rand::SeedableRng;

    fn run(src: &str) -> String {
        let mut prog = parse(src).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        inject_dead_code(&mut prog, &mut rng);
        to_minified(&prog)
    }

    #[test]
    fn output_parses_and_grows() {
        let src = "function work(x) { return x + 1; } work(1);";
        let out = run(src);
        assert!(parse(&out).is_ok(), "{}", out);
        assert!(out.len() > src.len());
    }

    #[test]
    fn injects_sentinel_declaration() {
        let out = run("f();");
        assert!(out.contains("var _0x"), "{}", out);
    }

    #[test]
    fn original_code_preserved() {
        let out = run("realWork(42);");
        assert!(out.contains("realWork(42)"), "{}", out);
    }

    #[test]
    fn injects_into_function_bodies() {
        let mut prog = parse("function deep() { inner(); }").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let n = inject_dead_code(&mut prog, &mut rng);
        assert!(n >= 3, "expected several injections, got {}", n);
    }

    #[test]
    fn respects_max_injected() {
        // Ten bodies of 14 statements ask for 8 junk statements each (the
        // per-list cap), plus 6 at the top level: 86 in all.
        let body = "a();b();c();d();e();f();g();h();i();j();k();l();m();n();";
        let src: String = (0..10).map(|i| format!("function f{}() {{ {} }}", i, body)).collect();
        let mut prog = parse(&src).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let n = inject_dead_code(&mut prog, &mut rng);
        assert_eq!(n, MAX_INJECTED + 1); // + sentinel
    }

    #[test]
    fn deterministic() {
        assert_eq!(run("f(); g();"), run("f(); g();"));
    }

    #[test]
    fn directive_stays_first() {
        let out = run("'use strict'; main();");
        assert!(out.starts_with("'use strict';"), "{}", out);
    }
}
