//! Global string array inlining: undoes `transform::global_array` (the
//! obfuscator.io shape).
//!
//! The pass looks for the three-statement prelude the technique injects —
//! the pooled string array, an optional rotation IIFE, and the accessor
//! function — then resolves every `ACC('0x1')` call back to the pooled
//! string. The stored array is un-rotated with the same `(k - 1) % n`
//! arithmetic the runtime IIFE performs, so indices resolve against the
//! original order. When no reference to the array or accessor survives the
//! rewrite, the prelude itself is deleted.

use crate::eval::str_expr;
use crate::{Pass, PassCx};
use jsdetect_ast::visit_mut::{walk_expr_mut, walk_pat_mut, MutVisitor};
use jsdetect_ast::*;
use jsdetect_flow::analyze_scopes;

/// See the module docs.
pub(crate) struct ArrayInlinePass;

impl Pass for ArrayInlinePass {
    fn name(&self) -> &'static str {
        "array-inline"
    }

    fn counter(&self) -> &'static str {
        "normalize/array-inline/rewrites"
    }

    fn run(&self, program: &mut Program, cx: &PassCx) -> u64 {
        let mut count = 0;
        let mut scan_from = 0;
        while scan_from < program.body.len() {
            self.cx_tick(cx);
            let Some(pool) = find_pool(program, scan_from) else { break };
            // Never rescan this prelude: whether or not anything below
            // succeeds, the cursor moves past it, bounding the loop by the
            // statement count.
            scan_from = pool.arr_index + 1;
            if !names_bind_once(program, &pool) {
                continue;
            }
            let mut strings = pool.strings.clone();
            if let Some(k) = pool.rotation {
                let left = (k - 1) % strings.len();
                strings.rotate_left(left);
            }
            let mut inliner = Inline { cx, pool: &pool, strings: &strings, count: 0 };
            inliner.visit_program_mut(program);
            count += inliner.count;
            // Delete the prelude once nothing outside it uses the names.
            if remaining_refs(program, &pool) == 0 && cx.spend() {
                let mut doomed = vec![pool.arr_index, pool.acc_index];
                doomed.extend(pool.iife_index);
                doomed.sort_unstable();
                for i in doomed.into_iter().rev() {
                    program.body.remove(i);
                }
                count += 1;
                scan_from = pool.arr_index;
            }
        }
        count
    }
}

impl ArrayInlinePass {
    fn cx_tick(&self, cx: &PassCx) {
        cx.tick(8);
    }
}

struct Pool {
    arr_index: usize,
    iife_index: Option<usize>,
    acc_index: usize,
    arr_name: Atom,
    acc_name: Atom,
    strings: Vec<Atom>,
    /// Rotation IIFE count argument, when the IIFE is present.
    rotation: Option<usize>,
    /// Whether the accessor indexes via `parseInt(i, 16)` (hex string
    /// argument) rather than directly.
    hex_index: bool,
}

/// Finds the next array/accessor prelude at or after `from` in the
/// top-level statement list.
fn find_pool(program: &Program, from: usize) -> Option<Pool> {
    let body = &program.body;
    for i in from..body.len() {
        let Some((arr_name, strings)) = string_array_decl(&body[i]) else { continue };
        let rotation = body.get(i + 1).and_then(|s| rotation_iife(s, &arr_name));
        let acc_index = if rotation.is_some() { i + 2 } else { i + 1 };
        let Some((acc_name, hex_index)) =
            body.get(acc_index).and_then(|s| accessor_decl(s, &arr_name))
        else {
            continue;
        };
        // `k == 0` would underflow the un-rotation; the transform never
        // emits it, and a hand-built one means "no rotation happened".
        let rotation = rotation.filter(|&k| k >= 1);
        if rotation.is_none() && acc_index == i + 2 {
            continue;
        }
        return Some(Pool {
            arr_index: i,
            iife_index: (acc_index == i + 2).then_some(i + 1),
            acc_index,
            arr_name,
            acc_name,
            strings,
            rotation,
            hex_index,
        });
    }
    None
}

/// `var ARR = ['...', '...'];` with at least one all-string element.
fn string_array_decl(s: &Stmt) -> Option<(Atom, Vec<Atom>)> {
    let Stmt::VarDecl { decls, .. } = s else { return None };
    let [d] = decls.as_slice() else { return None };
    let Pat::Ident(id) = &d.id else { return None };
    let Some(Expr::Array { elements, .. }) = &d.init else { return None };
    if elements.is_empty() {
        return None;
    }
    let mut strings = Vec::with_capacity(elements.len());
    for el in elements {
        match el {
            Some(Expr::Lit(Lit { value: LitValue::Str(s), .. })) => strings.push(*s),
            _ => return None,
        }
    }
    Some((id.name, strings))
}

/// `(function (arr, times) { ... })(ARR, K);` — matched loosely: any
/// two-parameter function expression immediately invoked with the array
/// and a numeric literal.
fn rotation_iife(s: &Stmt, arr_name: &str) -> Option<usize> {
    let Stmt::Expr { expr: Expr::Call { callee, args, .. }, .. } = s else { return None };
    let Expr::Function(f) = &**callee else { return None };
    if f.params.len() != 2 {
        return None;
    }
    let [Expr::Ident(first), Expr::Lit(Lit { value: LitValue::Num(k), .. })] = args.as_slice()
    else {
        return None;
    };
    if first.name != arr_name || k.fract() != 0.0 || *k < 0.0 {
        return None;
    }
    Some(*k as usize)
}

/// `var ACC = function (i) { return ARR[parseInt(i, 16)]; };` or the
/// direct-index variant `return ARR[i];`.
fn accessor_decl(s: &Stmt, arr_name: &str) -> Option<(Atom, bool)> {
    let Stmt::VarDecl { decls, .. } = s else { return None };
    let [d] = decls.as_slice() else { return None };
    let Pat::Ident(acc) = &d.id else { return None };
    let Some(Expr::Function(f)) = &d.init else { return None };
    let [Pat::Ident(param)] = f.params.as_slice() else { return None };
    let [Stmt::Return { arg: Some(Expr::Member { object, property, .. }), .. }] = f.body.as_slice()
    else {
        return None;
    };
    let Expr::Ident(obj) = &**object else { return None };
    if obj.name != arr_name {
        return None;
    }
    let MemberProp::Computed(index) = property else { return None };
    let hex = match &**index {
        Expr::Ident(i) if i.name == param.name => false,
        Expr::Call { callee, args, .. } => {
            let Expr::Ident(pi) = &**callee else { return None };
            let [Expr::Ident(a), Expr::Lit(Lit { value: LitValue::Num(radix), .. })] =
                args.as_slice()
            else {
                return None;
            };
            if pi.name != "parseInt" || a.name != param.name || *radix != 16.0 {
                return None;
            }
            true
        }
        _ => return None,
    };
    Some((acc.name, hex))
}

/// The rewrite is only safe when each prelude name binds exactly once in
/// the whole program (no shadowing, no redeclaration).
fn names_bind_once(program: &mut Program, pool: &Pool) -> bool {
    let tree = analyze_scopes(program);
    for name in [&pool.arr_name, &pool.acc_name] {
        if tree.bindings().iter().filter(|b| &b.name == name).count() != 1 {
            return false;
        }
    }
    true
}

struct Inline<'a, 'b> {
    cx: &'a PassCx<'b>,
    pool: &'a Pool,
    strings: &'a [Atom],
    count: u64,
}

impl MutVisitor for Inline<'_, '_> {
    fn visit_expr_mut(&mut self, e: &mut Expr) {
        walk_expr_mut(self, e);
        self.cx.tick(1);
        let Expr::Call { callee, args, span } = e else { return };
        let Expr::Ident(id) = &**callee else { return };
        if id.name != self.pool.acc_name {
            return;
        }
        let [arg] = args.as_slice() else { return };
        let Some(idx) = decode_index(arg, self.pool.hex_index) else { return };
        let Some(s) = self.strings.get(idx) else { return };
        if self.cx.spend() {
            *e = str_expr(*s, *span);
            self.count += 1;
        }
    }
}

fn decode_index(arg: &Expr, hex: bool) -> Option<usize> {
    match (arg, hex) {
        (Expr::Lit(Lit { value: LitValue::Str(s), .. }), true) => {
            usize::from_str_radix(s.strip_prefix("0x")?, 16).ok()
        }
        (Expr::Lit(Lit { value: LitValue::Num(n), .. }), false) => {
            (n.fract() == 0.0 && *n >= 0.0).then_some(*n as usize)
        }
        _ => None,
    }
}

/// Counts surviving uses of the prelude names outside the prelude itself.
fn remaining_refs(program: &mut Program, pool: &Pool) -> u64 {
    struct Counter<'a> {
        names: [&'a str; 2],
        count: u64,
    }
    impl MutVisitor for Counter<'_> {
        fn visit_expr_mut(&mut self, e: &mut Expr) {
            if let Expr::Ident(id) = e {
                if self.names.contains(&id.name.as_str()) {
                    self.count += 1;
                }
            }
            walk_expr_mut(self, e);
        }
        fn visit_pat_mut(&mut self, p: &mut Pat) {
            if let Pat::Ident(id) = p {
                if self.names.contains(&id.name.as_str()) {
                    self.count += 1;
                }
            }
            walk_pat_mut(self, p);
        }
    }
    let prelude = [Some(pool.arr_index), pool.iife_index, Some(pool.acc_index)];
    let mut c = Counter { names: [&pool.arr_name, &pool.acc_name], count: 0 };
    for (i, s) in program.body.iter_mut().enumerate() {
        if prelude.contains(&Some(i)) {
            continue;
        }
        c.visit_stmt_mut(s);
    }
    c.count
}

#[cfg(test)]
mod tests {
    use crate::{normalize_program, NormalizeOptions, PassKind};
    use jsdetect_codegen::to_minified;
    use jsdetect_parser::parse;

    fn run(src: &str) -> String {
        let p = parse(src).unwrap();
        let opts =
            NormalizeOptions { passes: vec![PassKind::ArrayInline], ..NormalizeOptions::default() };
        to_minified(&normalize_program(&p, &opts).0)
    }

    #[test]
    fn inlines_unrotated_pool_and_removes_prelude() {
        let src = "var _0xa = ['alpha', 'beta'];\
                   var _0xb = function (i) { return _0xa[parseInt(i, 16)]; };\
                   f(_0xb('0x0')); g(_0xb('0x1'));";
        assert_eq!(run(src), "f('alpha');g('beta');");
    }

    #[test]
    fn inlines_direct_index_accessor() {
        let src = "var _0xa = ['alpha', 'beta'];\
                   var _0xb = function (i) { return _0xa[i]; };\
                   f(_0xb(1));";
        assert_eq!(run(src), "f('beta');");
    }

    #[test]
    fn unrotates_with_the_iife_arithmetic() {
        // Stored rotated right by (k-1)%n with k=4, n=3 → right by 0...
        // use k=5, n=3 → right by 1: original [a,b,c] stored as [c,a,b].
        let src = "var _0xa = ['c', 'a', 'b'];\
                   (function (arr, times) { var s = function (t) { while (--t) { arr.push(arr.shift()); } }; s(++times); })(_0xa, 5);\
                   var _0xb = function (i) { return _0xa[parseInt(i, 16)]; };\
                   f(_0xb('0x0'), _0xb('0x2'));";
        assert_eq!(run(src), "f('a','c');");
    }

    #[test]
    fn out_of_range_index_keeps_call_and_prelude() {
        let src = "var _0xa = ['alpha'];\
                   var _0xb = function (i) { return _0xa[parseInt(i, 16)]; };\
                   f(_0xb('0x7'));";
        let out = run(src);
        assert!(out.contains("_0xb('0x7')"), "{}", out);
        assert!(out.contains("var _0xa"), "prelude must survive a live ref: {}", out);
    }

    #[test]
    fn shadowed_accessor_name_disables_the_rewrite() {
        let src = "var _0xa = ['alpha'];\
                   var _0xb = function (i) { return _0xa[parseInt(i, 16)]; };\
                   function h(_0xb) { return _0xb('0x0'); }\
                   f(_0xb('0x0'));";
        let out = run(src);
        assert!(out.contains("f(_0xb('0x0'))"), "{}", out);
    }

    #[test]
    fn non_pool_arrays_are_untouched() {
        assert_eq!(run("var a = ['x', 'y']; f(a[0]);"), "var a=['x','y'];f(a[0]);");
    }

    #[test]
    fn reverses_the_global_array_transform_exactly() {
        use jsdetect_transform::{apply, Technique};
        let src = "function run() { log('alpha message'); log('beta message'); }\
                   run(); notify('gamma payload', 'alpha message');";
        let canonical = to_minified(&parse(src).unwrap());
        for seed in [1u64, 9, 42] {
            let obf = apply(src, &[Technique::GlobalArray], seed).unwrap();
            assert!(obf.contains("parseInt"), "transform applied: {}", obf);
            let opts = NormalizeOptions {
                passes: vec![PassKind::ArrayInline],
                ..NormalizeOptions::default()
            };
            let (p, report) = normalize_program(&parse(&obf).unwrap(), &opts);
            assert!(report.total_rewrites() > 0, "seed {}", seed);
            assert_eq!(to_minified(&p), canonical, "seed {}", seed);
        }
    }
}
