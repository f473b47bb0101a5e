//! Global array obfuscation (paper §II-A, *data obfuscation*).
//!
//! Moves string literals into a global array, rotated at load time by an
//! IIFE (the obfuscator.io shape), and replaces each literal
//! occurrence with a call to an accessor function taking a hex-string
//! index: `_0x4f2a('0x1')`.

use jsdetect_ast::builder::*;
use jsdetect_ast::visit_mut::{walk_expr_mut, MutVisitor};
use jsdetect_ast::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

/// Minimum string length to pool.
const MIN_LEN: usize = 2;

/// Applies the transformation in place. Returns the number of pooled
/// strings.
pub fn global_array(program: &mut Program, rng: &mut StdRng) -> usize {
    // Collect distinct strings in first-appearance order.
    let mut collector = Collect { seen: Vec::new() };
    let skip = crate::string_obf::directive_count(&program.body);
    for s in program.body.iter_mut().skip(skip) {
        collector.visit_stmt_mut(s);
    }
    let strings = collector.seen;
    if strings.is_empty() {
        return 0;
    }
    let index_of: HashMap<Atom, usize> = strings.iter().enumerate().map(|(i, s)| (*s, i)).collect();

    let arr_name = format!("_0x{:x}", rng.gen_range(0x1000u32..0xFFFFF));
    let acc_name = format!("_0x{:x}", rng.gen_range(0x1000u32..0xFFFFF));

    // Replace literals with accessor calls.
    let mut replacer = Replace { index_of: &index_of, acc_name: &acc_name, replaced: 0 };
    for s in program.body.iter_mut().skip(skip) {
        replacer.visit_stmt_mut(s);
    }

    // Rotation: emit the array pre-rotated so the runtime IIFE restores the
    // original order (`times = k` executes `k - 1` push/shift rotations).
    let k: usize = rng.gen_range(0x20..0x200);
    let mut stored = strings;
    // Runtime rotates left by `(k - 1) % n`; store rotated right by it.
    let left = (k - 1) % stored.len();
    stored.rotate_right(left);

    let prelude = [
        var_decl(
            VarKind::Var,
            arr_name.clone(),
            Some(array(stored.into_iter().map(str_lit).collect())),
        ),
        rotation_iife(&arr_name, k),
        accessor_decl(&acc_name, &arr_name),
    ];

    for (i, stmt) in prelude.into_iter().enumerate() {
        program.body.insert(skip + i, stmt);
    }
    index_of.len()
}

struct Collect {
    seen: Vec<Atom>,
}

impl MutVisitor for Collect {
    fn visit_expr_mut(&mut self, e: &mut Expr) {
        if let Expr::Lit(Lit { value: LitValue::Str(s), .. }) = e {
            if s.len() >= MIN_LEN && !self.seen.contains(s) {
                self.seen.push(*s);
            }
            return;
        }
        walk_expr_mut(self, e);
    }
}

struct Replace<'a> {
    index_of: &'a HashMap<Atom, usize>,
    acc_name: &'a str,
    replaced: usize,
}

impl MutVisitor for Replace<'_> {
    fn visit_expr_mut(&mut self, e: &mut Expr) {
        if let Expr::Lit(Lit { value: LitValue::Str(s), .. }) = e {
            if let Some(&i) = self.index_of.get(s) {
                *e = call(ident(self.acc_name.to_string()), vec![str_lit(format!("0x{:x}", i))]);
                self.replaced += 1;
            }
            return;
        }
        walk_expr_mut(self, e);
    }
}

/// `(function (arr, times) { var shift = function (t) { while (--t)
/// { arr.push(arr.shift()); } }; shift(++times); })(ARR, K);`
fn rotation_iife(arr_name: &str, k: usize) -> Stmt {
    let shift_fn = fn_expr(
        vec!["t"],
        vec![while_stmt(
            Expr::Update {
                op: UpdateOp::Decrement,
                prefix: true,
                arg: Box::new(ident("t")),
                span: Span::DUMMY,
            },
            block(vec![expr_stmt(method_call(
                ident("arr"),
                "push",
                vec![method_call(ident("arr"), "shift", vec![])],
            ))]),
        )],
    );
    let body = vec![
        var_decl(VarKind::Var, "shift", Some(shift_fn)),
        expr_stmt(call(
            ident("shift"),
            vec![Expr::Update {
                op: UpdateOp::Increment,
                prefix: true,
                arg: Box::new(ident("times")),
                span: Span::DUMMY,
            }],
        )),
    ];
    expr_stmt(call(
        fn_expr(vec!["arr", "times"], body),
        vec![ident(arr_name.to_string()), num_lit(k as f64)],
    ))
}

/// `var ACC = function (i) { return ARR[parseInt(i, 16)]; };`
fn accessor_decl(acc_name: &str, arr_name: &str) -> Stmt {
    let body = vec![ret(Some(index(
        ident(arr_name.to_string()),
        call(ident("parseInt"), vec![ident("i"), num_lit(16.0)]),
    )))];
    var_decl(VarKind::Var, acc_name.to_string(), Some(fn_expr(vec!["i"], body)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_codegen::to_minified;
    use jsdetect_parser::parse;
    use rand::SeedableRng;

    fn run(src: &str) -> String {
        let mut prog = parse(src).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        global_array(&mut prog, &mut rng);
        to_minified(&prog)
    }

    #[test]
    fn strings_pooled_and_replaced() {
        let out = run("f('alpha'); g('beta'); h('alpha');");
        // Array contains both strings once.
        assert_eq!(out.matches("'alpha'").count(), 1, "{}", out);
        assert_eq!(out.matches("'beta'").count(), 1, "{}", out);
        // Accessor calls with hex string indices.
        assert!(out.contains("('0x0')"), "{}", out);
        assert!(out.contains("('0x1')"), "{}", out);
        assert!(parse(&out).is_ok());
    }

    #[test]
    fn rotation_iife_injected() {
        let out = run("f('alpha'); g('beta'); h('gamma');");
        assert!(out.contains("push"), "{}", out);
        assert!(out.contains("shift"), "{}", out);
        assert!(parse(&out).is_ok());
    }

    #[test]
    fn accessor_uses_parse_int() {
        let out = run("f('alpha');");
        assert!(out.contains("parseInt("), "{}", out);
    }

    #[test]
    fn rotation_math_restores_order() {
        // Simulate: stored rotated right by (k-1)%n, runtime rotates left
        // by (k-1)%n → original order.
        let original = vec!["a", "b", "c", "d", "e"];
        for k in [1usize, 2, 5, 7, 400] {
            let n = original.len();
            let left = (k - 1) % n;
            let mut stored = original.clone();
            stored.rotate_right(left);
            // Runtime: while(--t) push(shift()) with t = k → k-1 rotations.
            let mut t = k;
            loop {
                t -= 1;
                if t == 0 {
                    break;
                }
                let first = stored.remove(0);
                stored.push(first);
            }
            assert_eq!(stored, original, "k={}", k);
        }
    }

    #[test]
    fn no_strings_is_noop() {
        let out = run("var x = 1 + 2;");
        assert_eq!(out, "var x=1+2;");
    }

    #[test]
    fn short_strings_skipped() {
        let out = run("f('a'); g('hello');");
        assert!(out.contains("f('a')"), "{}", out);
        assert!(!out.contains("g('hello')"), "{}", out);
    }
}
