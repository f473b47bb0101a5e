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
//!
//! One run handles every prelude at once, so its cost is linear in the
//! program however many preludes it holds: one scope analysis checks the
//! names of all of them, one walk inlines every pool, and one walk counts
//! the references that survive. A prelude whose array only becomes a pool
//! once another pool is inlined into it is found by the next fixpoint
//! round.

use crate::eval::str_expr;
use crate::{Pass, PassCx};
use jsdetect_ast::visit_mut::{walk_expr_mut, walk_pat_mut, MutVisitor};
use jsdetect_ast::*;
use jsdetect_flow::analyze_scopes;
use std::collections::HashMap;

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
        cx.tick(8);
        // Past a deadline or out of fuel no pool can be rewritten.
        if !cx.healthy() {
            return 0;
        }
        let mut pools = find_pools(&program.body);
        keep_names_binding_once(program, &mut pools);
        if pools.is_empty() {
            return 0;
        }
        let mut by_accessor: HashMap<Atom, Vec<&Pool>> = HashMap::new();
        for pool in &pools {
            by_accessor.entry(pool.acc_name).or_default().push(pool);
        }
        let mut inliner = Inline { cx, by_accessor, count: 0 };
        inliner.visit_program_mut(program);
        let mut count = inliner.count;
        // Delete each prelude once nothing outside it uses its names.
        let mut doomed = vec![false; program.body.len()];
        for (pool, refs) in pools.iter().zip(remaining_refs(program, &pools)) {
            if refs == 0 && cx.spend() {
                for i in pool.statements() {
                    doomed[i] = true;
                }
                count += 1;
            }
        }
        let mut doomed = doomed.into_iter();
        program.body.retain(|_| !doomed.next().expect("one flag per statement"));
        count
    }
}

struct Pool {
    arr_index: usize,
    iife_index: Option<usize>,
    acc_index: usize,
    arr_name: Atom,
    acc_name: Atom,
    /// The pooled strings in their original order: the stored array
    /// un-rotated as the rotation IIFE does at load time.
    strings: Vec<Atom>,
    /// Whether the accessor indexes via `parseInt(i, 16)` (hex string
    /// argument) rather than directly.
    hex_index: bool,
}

impl Pool {
    /// The top-level statement indices of the prelude.
    fn statements(&self) -> impl Iterator<Item = usize> {
        [Some(self.arr_index), self.iife_index, Some(self.acc_index)].into_iter().flatten()
    }
}

/// Every array/accessor prelude in the top-level statement list, in
/// order. Preludes never overlap: a match's IIFE and accessor are not
/// string arrays, so the scan may resume right after the array.
fn find_pools(body: &[Stmt]) -> Vec<Pool> {
    let mut pools = Vec::new();
    let mut from = 0;
    while let Some(pool) = find_pool(body, from) {
        from = pool.arr_index + 1;
        pools.push(pool);
    }
    pools
}

/// Finds the next array/accessor prelude at or after `from`.
fn find_pool(body: &[Stmt], from: usize) -> Option<Pool> {
    for i in from..body.len() {
        let Some((arr_name, mut strings)) = string_array_decl(&body[i]) else { continue };
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
        if let Some(k) = rotation {
            let left = (k - 1) % strings.len();
            strings.rotate_left(left);
        }
        return Some(Pool {
            arr_index: i,
            iife_index: (acc_index == i + 2).then_some(i + 1),
            acc_index,
            arr_name,
            acc_name,
            strings,
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

/// Keeps the pools whose names each bind exactly once in the whole
/// program (no shadowing, no redeclaration): only then is the rewrite
/// safe.
fn keep_names_binding_once(program: &Program, pools: &mut Vec<Pool>) {
    if pools.is_empty() {
        return;
    }
    let mut binds: HashMap<Atom, usize> =
        pools.iter().flat_map(|p| [(p.arr_name, 0), (p.acc_name, 0)]).collect();
    for binding in analyze_scopes(program).bindings() {
        if let Some(n) = binds.get_mut(&binding.name) {
            *n += 1;
        }
    }
    pools.retain(|p| binds[&p.arr_name] == 1 && binds[&p.acc_name] == 1);
}

struct Inline<'a, 'b> {
    cx: &'a PassCx<'b>,
    /// The pools of each accessor name, in program order. Redeclared
    /// `var`s bind once, so two preludes can share an accessor name; a
    /// call resolves against the first pool that holds its index.
    by_accessor: HashMap<Atom, Vec<&'a Pool>>,
    count: u64,
}

impl MutVisitor for Inline<'_, '_> {
    fn visit_expr_mut(&mut self, e: &mut Expr) {
        walk_expr_mut(self, e);
        self.cx.tick(1);
        let Expr::Call { callee, args, span } = e else { return };
        let Expr::Ident(id) = &**callee else { return };
        let Some(pools) = self.by_accessor.get(&id.name) else { return };
        let [arg] = args.as_slice() else { return };
        let Some(s) = pools.iter().find_map(|pool| {
            decode_index(arg, pool.hex_index).and_then(|idx| pool.strings.get(idx))
        }) else {
            return;
        };
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

/// Counts, per pool, the surviving uses of its names outside its own
/// prelude. A pool whose array and accessor share a name counts each use
/// twice; only whether the count is zero matters.
fn remaining_refs(program: &mut Program, pools: &[Pool]) -> Vec<u64> {
    struct Uses(HashMap<Atom, u64>);
    impl Uses {
        fn bump(&mut self, name: &Atom) {
            if let Some(n) = self.0.get_mut(name) {
                *n += 1;
            }
        }
        fn of(&self, pool: &Pool) -> u64 {
            self.0[&pool.arr_name] + self.0[&pool.acc_name]
        }
    }
    impl MutVisitor for Uses {
        fn visit_expr_mut(&mut self, e: &mut Expr) {
            if let Expr::Ident(id) = e {
                self.bump(&id.name);
            }
            walk_expr_mut(self, e);
        }
        fn visit_pat_mut(&mut self, p: &mut Pat) {
            if let Pat::Ident(id) = p {
                self.bump(&id.name);
            }
            walk_pat_mut(self, p);
        }
    }
    let mut uses = Uses(pools.iter().flat_map(|p| [(p.arr_name, 0), (p.acc_name, 0)]).collect());
    let mut owner = vec![None; program.body.len()];
    for (p, pool) in pools.iter().enumerate() {
        for i in pool.statements() {
            owner[i] = Some(p);
        }
    }
    // Uses of each pool's names inside its own prelude.
    let mut own = vec![0; pools.len()];
    for (s, owner) in program.body.iter_mut().zip(owner) {
        let Some(p) = owner else {
            uses.visit_stmt_mut(s);
            continue;
        };
        let before = uses.of(&pools[p]);
        uses.visit_stmt_mut(s);
        own[p] += uses.of(&pools[p]) - before;
    }
    pools.iter().zip(own).map(|(pool, own)| uses.of(pool) - own).collect()
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
            NormalizeOptions { passes: vec![PassKind::ArrayInline], ..NormalizeOptions::default() };
        to_minified(&normalize(p, &opts).0)
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
    fn one_run_inlines_and_deletes_every_prelude() {
        let src = "var _0xa = ['alpha'];\
                   var _0xb = function (i) { return _0xa[parseInt(i, 16)]; };\
                   var _0xc = ['beta', 'gamma'];\
                   var _0xd = function (i) { return _0xc[i]; };\
                   f(_0xb('0x0'), _0xd(1));";
        let opts =
            NormalizeOptions { passes: vec![PassKind::ArrayInline], ..NormalizeOptions::default() };
        let (p, report) = normalize(parse(src).unwrap(), &opts);
        assert_eq!(to_minified(&p), "f('alpha','gamma');");
        // Two inlined calls and two deleted preludes, then a quiet round.
        assert_eq!(report.total_rewrites(), 4);
        assert_eq!(report.rounds, 2);
    }

    #[test]
    fn a_shared_accessor_name_resolves_against_the_first_pool_holding_the_index() {
        // The two `var _0xb`s bind once, so both preludes qualify; each
        // still declares the other's names, so neither is deleted.
        let src = "var _0xa = ['alpha'];\
                   var _0xb = function (i) { return _0xa[i]; };\
                   var _0xc = ['beta', 'gamma'];\
                   var _0xb = function (i) { return _0xc[i]; };\
                   f(_0xb(0), _0xb(1));";
        let out = run(src);
        assert!(out.ends_with("f('alpha','gamma');"), "{}", out);
        assert!(out.starts_with("var _0xa=['alpha'];"), "{}", out);
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
            let (p, report) = normalize(parse(&obf).unwrap(), &opts);
            assert!(report.total_rewrites() > 0, "seed {}", seed);
            assert_eq!(to_minified(&p), canonical, "seed {}", seed);
        }
    }
}
