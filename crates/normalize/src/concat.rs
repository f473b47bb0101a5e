//! String rebuilding collapse: undoes the runtime string constructions the
//! `transform::string_obf` pass emits.
//!
//! Three shapes fold back into plain string literals, bottom-up so whole
//! chains collapse in one traversal:
//!
//! - `'sec' + 'ret'` → `'secret'` (split concatenation),
//! - `String.fromCharCode(104, 105)` → `'hi'`,
//! - `'terces'.split('').reverse().join('')` → `'secret'`.

use crate::eval::str_expr;
use crate::{Pass, PassCx};
use jsdetect_ast::visit_mut::{walk_expr_mut, MutVisitor};
use jsdetect_ast::*;

/// See the module docs.
pub(crate) struct StringConcatPass;

impl Pass for StringConcatPass {
    fn name(&self) -> &'static str {
        "string-concat"
    }

    fn counter(&self) -> &'static str {
        "normalize/string-concat/rewrites"
    }

    fn run(&self, program: &mut Program, cx: &PassCx) -> u64 {
        let mut v = Collapse { cx, count: 0 };
        v.visit_program_mut(program);
        v.count
    }
}

struct Collapse<'a, 'b> {
    cx: &'a PassCx<'b>,
    count: u64,
}

impl MutVisitor for Collapse<'_, '_> {
    fn visit_expr_mut(&mut self, e: &mut Expr) {
        walk_expr_mut(self, e);
        self.cx.tick(1);
        if let Some(folded) = try_collapse(e) {
            if self.cx.spend() {
                *e = folded;
                self.count += 1;
            }
        }
    }
}

fn str_of(e: &Expr) -> Option<&str> {
    e.as_str_lit()
}

fn try_collapse(e: &Expr) -> Option<Expr> {
    match e {
        Expr::Binary { op: BinaryOp::Add, left, right, span } => {
            let (a, b) = (str_of(left)?, str_of(right)?);
            let mut s = String::with_capacity(a.len() + b.len());
            s.push_str(a);
            s.push_str(b);
            Some(str_expr(s, *span))
        }
        Expr::Call { callee, args, span } => {
            if is_static_member(callee, "String", "fromCharCode") {
                return from_char_code(args, *span);
            }
            reverse_chain(callee, args, *span)
        }
        _ => None,
    }
}

/// `String.fromCharCode(104, 105, ...)` with all-literal code units.
fn from_char_code(args: &[Expr], span: Span) -> Option<Expr> {
    if args.is_empty() {
        return Some(str_expr(String::new(), span));
    }
    let mut units: Vec<u16> = Vec::with_capacity(args.len());
    for a in args {
        let n = match a {
            Expr::Lit(Lit { value: LitValue::Num(n), .. }) => *n,
            _ => return None,
        };
        if n.fract() != 0.0 || !(0.0..=65_535.0).contains(&n) {
            return None;
        }
        units.push(n as u16);
    }
    // Lone surrogates have no valid string spelling; leave them alone.
    let s = String::from_utf16(&units).ok()?;
    Some(str_expr(s, span))
}

/// `'terces'.split('').reverse().join('')`.
fn reverse_chain(callee: &Expr, join_args: &[Expr], span: Span) -> Option<Expr> {
    let (reverse_call, m) = method_target(callee, "join")?;
    if !matches!(join_args, [arg] if str_of(arg) == Some("")) || m {
        return None;
    }
    let Expr::Call { callee: rev_callee, args: rev_args, .. } = reverse_call else { return None };
    let (split_call, _) = method_target(rev_callee, "reverse")?;
    if !rev_args.is_empty() {
        return None;
    }
    let Expr::Call { callee: split_callee, args: split_args, .. } = split_call else { return None };
    let (receiver, _) = method_target(split_callee, "split")?;
    if !matches!(split_args.as_slice(), [arg] if str_of(arg) == Some("")) {
        return None;
    }
    let reversed = str_of(receiver)?;
    Some(str_expr(reversed.chars().rev().collect::<String>(), span))
}

/// If `e` is `<object>.<name>`, returns the object (and whether the access
/// was optional, which disables folding).
fn method_target<'e>(e: &'e Expr, name: &str) -> Option<(&'e Expr, bool)> {
    match e {
        Expr::Member { object, property: MemberProp::Ident(id), optional, .. }
            if id.name == name =>
        {
            Some((object, *optional))
        }
        _ => None,
    }
}

fn is_static_member(e: &Expr, object: &str, name: &str) -> bool {
    match method_target(e, name) {
        Some((Expr::Ident(id), false)) => id.name == object,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use crate::{normalize_program, NormalizeOptions, PassKind};
    use jsdetect_codegen::to_minified;
    use jsdetect_parser::parse;

    fn run(src: &str) -> String {
        let p = parse(src).unwrap();
        let opts = NormalizeOptions {
            passes: vec![PassKind::StringConcat],
            ..NormalizeOptions::default()
        };
        to_minified(&normalize_program(&p, &opts).0)
    }

    #[test]
    fn collapses_split_chains_in_one_round() {
        assert_eq!(run("var m = 'se' + 'cr' + 'et';"), "var m='secret';");
    }

    #[test]
    fn collapses_from_char_code() {
        assert_eq!(run("var m = String.fromCharCode(104, 105);"), "var m='hi';");
        assert_eq!(run("var m = String.fromCharCode();"), "var m='';");
    }

    #[test]
    fn collapses_reverse_chains() {
        assert_eq!(run("var m = 'terces'.split('').reverse().join('');"), "var m='secret';");
    }

    #[test]
    fn leaves_dynamic_shapes_alone() {
        assert_eq!(run("var m = a + 'x';"), "var m=a+'x';");
        assert_eq!(run("var m = String.fromCharCode(c);"), "var m=String.fromCharCode(c);");
        assert_eq!(
            run("var m = s.split('').reverse().join('');"),
            "var m=s.split('').reverse().join('');"
        );
        assert_eq!(
            run("var m = 'ab'.split('-').reverse().join('');"),
            "var m='ab'.split('-').reverse().join('');"
        );
    }

    #[test]
    fn numbers_are_not_coerced() {
        assert_eq!(run("var m = 1 + 'x';"), "var m=1+'x';");
        assert_eq!(run("var m = 'x' + 1;"), "var m='x'+1;");
    }

    #[test]
    fn lone_surrogate_codes_are_left_alone() {
        let out = run("var m = String.fromCharCode(55296);");
        assert!(out.contains("fromCharCode"), "{}", out);
    }

    #[test]
    fn undoes_the_string_obf_transform() {
        use jsdetect_transform::{apply, Technique};
        let src = "function greet() { return 'hello world, obfuscated people'; }";
        for seed in [1u64, 2, 3, 4, 5] {
            let obf = apply(src, &[Technique::StringObfuscation], seed).unwrap();
            let (p, report) =
                normalize_program(&parse(&obf).unwrap(), &NormalizeOptions::default());
            let out = to_minified(&p);
            // Whatever mix of split/reverse/fromCharCode the seed picked,
            // every statically decodable chain must collapse; the encoded
            // decoder-call mode is the only shape allowed to survive.
            if !out.contains("parseInt") {
                assert!(out.contains("'hello world, obfuscated people'"), "seed {}: {}", seed, out);
            }
            assert!(report.total_rewrites() > 0 || out.contains("parseInt"), "seed {}", seed);
        }
    }
}
