//! Hand-picked features (paper §III-B).
//!
//! Each feature captures a syntactic trace left by regular code or by one
//! of the ten transformation techniques: layout statistics for
//! minification, identifier-shape statistics for identifier obfuscation,
//! string-operation and encoding statistics for string obfuscation,
//! bracket-vs-dot and array statistics for the global-array technique,
//! dispatch-loop statistics for control-flow flattening, charset
//! statistics for no-alphanumeric, and guard signatures for
//! self-defending / debug protection.

use crate::analysis::ScriptAnalysis;
use crate::tree::TreeStats;
use jsdetect_ast::*;
use jsdetect_flow::{DefValueKind, RefKind};

/// Names of the hand-picked features, index-aligned with
/// [`FeaturePayload::handpicked`](crate::FeaturePayload::handpicked).
pub const FEATURE_NAMES: &[&str] = &[
    "avg_chars_per_line",
    "log_max_line_len",
    "log_line_count",
    "log_byte_size",
    "ast_depth_per_line",
    "ast_breadth_per_line",
    "ast_nodes_per_line",
    "whitespace_ratio",
    "comment_byte_ratio",
    "comments_per_line",
    "prop_identifier",
    "prop_literal",
    "prop_call",
    "prop_member",
    "member_per_unique_ident",
    "prop_binary",
    "prop_var_decl",
    "prop_string_literal",
    "prop_numeric_literal",
    "avg_identifier_len",
    "avg_binding_len",
    "unique_ident_ratio",
    "hex_binding_ratio",
    "short_binding_ratio",
    "avg_string_len",
    "log_max_string_len",
    "avg_string_entropy",
    "hexlike_string_ratio",
    "ternary_per_statement",
    "bracket_member_ratio",
    "avg_array_size",
    "avg_object_size",
    "computed_member_def_ratio",
    "string_op_call_ratio",
    "eval_like_per_call",
    "debugger_per_statement",
    "debugger_string_present",
    "packed_regex_present",
    "avg_cases_per_switch",
    "literal_true_loop_ratio",
    "cf_edges_per_node",
    "df_edges_per_ident",
    "global_ref_ratio",
    "functions_per_line",
    "avg_params_per_function",
    "prop_new_expr",
    "jsfuck_charset_ratio",
    "alnum_char_ratio",
    "punct_token_ratio",
    "log_ast_depth",
    "prop_update_expr",
    "prop_sequence_expr",
    "not_on_number_per_node",
    "void_zero_per_node",
    "switch_in_loop_ratio",
    "string_split_concat_ratio",
    "unused_binding_ratio",
    "opaque_string_test_ratio",
];

/// Number of hand-picked features.
pub const N_HANDPICKED: usize = FEATURE_NAMES.len();

/// Computes the hand-picked feature vector for an analyzed script.
pub(crate) fn handpicked_features(a: &ScriptAnalysis<'_>) -> Vec<f32> {
    let src = a.src;
    let t = &a.tree;
    let w = &t.hand;
    let bytes = src.len().max(1) as f64;
    let (mut n_lines, mut max_line) = (0usize, 0usize);
    for line in src.lines() {
        n_lines += 1;
        max_line = max_line.max(line.len());
    }
    let lines = n_lines.max(1) as f64;
    let max_line = max_line as f64;
    let nodes = t.node_count.max(1) as f64;

    let n_idents = w.ident_occurrences.max(1) as f64;
    let n_literals = t.kind(NodeKind::Literal).max(1) as f64;
    let n_members = t.kind(NodeKind::MemberExpression).max(1) as f64;
    let n_calls = t.kind(NodeKind::CallExpression).max(1) as f64;
    let n_statements = statement_count(t).max(1) as f64;
    let n_strings = w.string_count.max(1) as f64;
    let n_functions = function_count(t).max(1) as f64;
    let n_loops = loop_count(t).max(1) as f64;

    let scopes = &a.graph.scopes;
    let bindings = scopes.bindings();
    let n_bindings = bindings.len().max(1) as f64;
    let unique_idents = w.unique_idents.len().max(1) as f64;

    let comment_bytes: u32 = a.comments.iter().map(|c| c.span.len()).sum();
    let (mut ws_chars, mut jsfuck_chars, mut alnum_chars) = (0usize, 0usize, 0usize);
    for c in src.chars() {
        if c.is_whitespace() {
            ws_chars += 1;
        } else if matches!(c, '[' | ']' | '(' | ')' | '!' | '+') {
            jsfuck_chars += 1;
        } else if c.is_alphanumeric() {
            alnum_chars += 1;
        }
    }
    let (ws_chars, jsfuck_chars, alnum_chars) =
        (ws_chars as f64, jsfuck_chars as f64, alnum_chars as f64);

    let hex_bindings = bindings.iter().filter(|b| is_hex_name(&b.name)).count() as f64;
    let short_bindings = bindings.iter().filter(|b| b.name.len() <= 2).count() as f64;
    let binding_len_sum: usize = bindings.iter().map(|b| b.name.len()).sum();

    let computed_defs = scopes
        .def_values()
        .iter()
        .filter(|(b, k)| b.is_some() && *k == DefValueKind::ComputedMember)
        .count() as f64;
    let total_defs = scopes.def_values().len().max(1) as f64;

    let unused_bindings = (0..bindings.len())
        .filter(|&b| !scopes.refs_of(b).any(|r| r.kind != RefKind::Write))
        .count() as f64;

    let n_refs = scopes.references().len().max(1) as f64;
    let global_refs = scopes.global_refs().count() as f64;
    let read_refs =
        scopes.references().iter().filter(|r| r.kind != RefKind::Write).count().max(1) as f64;

    let punct_tokens = a.tokens.punct as f64;
    let n_tokens = a.tokens.total.max(1) as f64;

    let v = vec![
        (src.len() as f64 / lines) as f32,
        (max_line.ln_1p()) as f32,
        (lines.ln_1p()) as f32,
        (bytes.ln_1p()) as f32,
        (t.max_depth as f64 / lines) as f32,
        (t.max_breadth as f64 / lines) as f32,
        (nodes / lines) as f32,
        (ws_chars / bytes) as f32,
        (comment_bytes as f64 / bytes) as f32,
        (a.comments.len() as f64 / lines) as f32,
        t.proportion(NodeKind::Identifier) as f32,
        t.proportion(NodeKind::Literal) as f32,
        t.proportion(NodeKind::CallExpression) as f32,
        t.proportion(NodeKind::MemberExpression) as f32,
        (n_members / unique_idents) as f32,
        t.proportion(NodeKind::BinaryExpression) as f32,
        t.proportion(NodeKind::VariableDeclaration) as f32,
        (w.string_count as f64 / n_literals) as f32,
        (w.number_count as f64 / n_literals) as f32,
        (w.ident_len_sum as f64 / n_idents) as f32,
        (binding_len_sum as f64 / n_bindings) as f32,
        (unique_idents / n_idents) as f32,
        (hex_bindings / n_bindings) as f32,
        (short_bindings / n_bindings) as f32,
        (w.string_len_sum as f64 / n_strings) as f32,
        ((w.max_string_len as f64).ln_1p()) as f32,
        t.mean_string_entropy(),
        (w.hexlike_strings as f64 / n_strings) as f32,
        (t.kind(NodeKind::ConditionalExpression) as f64 / n_statements) as f32,
        (w.computed_members as f64 / n_members) as f32,
        (w.array_elems_sum as f64 / t.kind(NodeKind::ArrayExpression).max(1) as f64) as f32,
        (w.object_props_sum as f64 / t.kind(NodeKind::ObjectExpression).max(1) as f64) as f32,
        (computed_defs / total_defs) as f32,
        (w.string_op_calls as f64 / n_calls) as f32,
        (w.eval_like_calls as f64 / n_calls) as f32,
        (t.kind(NodeKind::DebuggerStatement) as f64 / n_statements) as f32,
        if w.debugger_string { 1.0 } else { 0.0 },
        if w.packed_regex { 1.0 } else { 0.0 },
        (w.case_count as f64 / t.kind(NodeKind::SwitchStatement).max(1) as f64) as f32,
        (w.literal_true_loops as f64 / n_loops) as f32,
        (a.graph.control_flow.edges as f64 / a.graph.control_flow.node_count.max(1) as f64) as f32,
        (a.graph.dataflow.pairs as f64 / read_refs) as f32,
        (global_refs / n_refs) as f32,
        (n_functions / lines) as f32,
        (w.param_count as f64 / n_functions) as f32,
        t.proportion(NodeKind::NewExpression) as f32,
        (jsfuck_chars / bytes) as f32,
        (alnum_chars / bytes) as f32,
        (punct_tokens / n_tokens) as f32,
        ((t.max_depth as f64).ln_1p()) as f32,
        t.proportion(NodeKind::UpdateExpression) as f32,
        t.proportion(NodeKind::SequenceExpression) as f32,
        (w.not_on_number as f64 / nodes) as f32,
        (w.void_zero as f64 / nodes) as f32,
        (w.switch_in_loop as f64 / t.kind(NodeKind::SwitchStatement).max(1) as f64) as f32,
        (w.string_concat_chains as f64 / n_strings) as f32,
        (unused_bindings / n_bindings) as f32,
        (w.opaque_string_tests as f64 / n_statements) as f32,
    ];
    debug_assert_eq!(v.len(), N_HANDPICKED);
    v
}

fn statement_count(t: &TreeStats) -> usize {
    NodeKind::ALL.iter().filter(|k| k.is_statement()).map(|k| t.kind(*k)).sum()
}

fn function_count(t: &TreeStats) -> usize {
    t.kind_sum(&[
        NodeKind::FunctionDeclaration,
        NodeKind::FunctionExpression,
        NodeKind::ArrowFunctionExpression,
    ])
}

fn loop_count(t: &TreeStats) -> usize {
    t.kind_sum(&[
        NodeKind::WhileStatement,
        NodeKind::DoWhileStatement,
        NodeKind::ForStatement,
        NodeKind::ForInStatement,
        NodeKind::ForOfStatement,
    ])
}

fn is_hex_name(name: &str) -> bool {
    name.len() >= 4 && name.starts_with("_0x") && name[3..].chars().all(|c| c.is_ascii_hexdigit())
}

/// Methods whose calls indicate string manipulation.
const STRING_OPS: &[&str] = &[
    "split",
    "reverse",
    "join",
    "fromCharCode",
    "charCodeAt",
    "charAt",
    "substr",
    "substring",
    "replace",
    "concat",
    "slice",
    "toString",
    "parseInt",
    "unescape",
    "escape",
    "atob",
    "btoa",
    "decodeURIComponent",
    "encodeURIComponent",
];

/// The hand-picked quantities read from node contents, gathered node by
/// node in [`TreeStats::of`]'s walk.
#[derive(Debug, Default)]
pub(crate) struct Walked {
    ident_occurrences: usize,
    ident_len_sum: usize,
    unique_idents: std::collections::HashSet<Atom>,
    pub(crate) string_count: usize,
    number_count: usize,
    string_len_sum: usize,
    max_string_len: usize,
    pub(crate) string_entropy_sum: f64,
    hexlike_strings: usize,
    computed_members: usize,
    array_elems_sum: usize,
    object_props_sum: usize,
    string_op_calls: usize,
    eval_like_calls: usize,
    debugger_string: bool,
    packed_regex: bool,
    case_count: usize,
    literal_true_loops: usize,
    param_count: usize,
    not_on_number: usize,
    void_zero: usize,
    switch_in_loop: usize,
    string_concat_chains: usize,
    opaque_string_tests: usize,
}

impl Walked {
    pub(crate) fn visit(&mut self, node: NodeRef<'_>) {
        match node {
            NodeRef::Expr(e) => self.expr(e),
            NodeRef::Pat(Pat::Ident(i)) => self.ident(i.name),
            NodeRef::Ident(i) => self.ident(i.name),
            NodeRef::Stmt(s) => self.stmt(s),
            NodeRef::SwitchCase(_) => self.case_count += 1,
            _ => {}
        }
    }

    fn ident(&mut self, name: Atom) {
        self.ident_occurrences += 1;
        self.ident_len_sum += name.len();
        self.unique_idents.insert(name);
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::If { test, .. } if is_ident_vs_string_test(test) => {
                self.opaque_string_tests += 1;
            }
            Stmt::While { test, body, .. } | Stmt::DoWhile { test, body, .. } => {
                if is_literal_true(test) {
                    self.literal_true_loops += 1;
                }
                if contains_direct_switch(body) {
                    self.switch_in_loop += 1;
                }
                if is_ident_vs_string_test(test) {
                    self.opaque_string_tests += 1;
                }
            }
            Stmt::For { test, body, .. } => {
                if test.is_none() || test.as_ref().is_some_and(is_literal_true) {
                    self.literal_true_loops += 1;
                }
                if contains_direct_switch(body) {
                    self.switch_in_loop += 1;
                }
            }
            _ => {}
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Ident(i) => self.ident(i.name),
            Expr::Lit(l) => match &l.value {
                LitValue::Str(s) => {
                    self.string_count += 1;
                    self.string_len_sum += s.len();
                    self.max_string_len = self.max_string_len.max(s.len());
                    self.string_entropy_sum += byte_entropy(s);
                    if s.len() >= 4 && is_hexlike(s) {
                        self.hexlike_strings += 1;
                    }
                    if s == "debugger" {
                        self.debugger_string = true;
                    }
                    if is_packed_regex_source(s) {
                        self.packed_regex = true;
                    }
                }
                LitValue::Num(_) | LitValue::BigInt(_) => self.number_count += 1,
                LitValue::Regex { pattern, .. } if is_packed_regex_source(pattern) => {
                    self.packed_regex = true;
                }
                _ => {}
            },
            Expr::Member { property, .. } => {
                if matches!(property, MemberProp::Computed(_)) {
                    self.computed_members += 1;
                }
            }
            Expr::Array { elements, .. } => self.array_elems_sum += elements.len(),
            Expr::Object { props, .. } => self.object_props_sum += props.len(),
            Expr::Function(f) => self.param_count += f.params.len(),
            Expr::Arrow { params, .. } => self.param_count += params.len(),
            Expr::Call { callee, args, .. } => {
                if let Expr::Member { property: MemberProp::Ident(p), .. } = &**callee {
                    if STRING_OPS.contains(&p.name.as_str()) {
                        self.string_op_calls += 1;
                    }
                }
                if let Expr::Ident(i) = &**callee {
                    if STRING_OPS.contains(&i.name.as_str()) {
                        self.string_op_calls += 1;
                    }
                    if i.name == "eval" || i.name == "Function" {
                        self.eval_like_calls += 1;
                    }
                    if (i.name == "setTimeout" || i.name == "setInterval")
                        && matches!(
                            args.first(),
                            Some(Expr::Lit(Lit { value: LitValue::Str(_), .. }))
                        )
                    {
                        self.eval_like_calls += 1;
                    }
                }
                // member .constructor('...') — Function-constructor idiom.
                if let Expr::Member { property: MemberProp::Ident(p), .. } = &**callee {
                    if p.name == "constructor"
                        && matches!(
                            args.first(),
                            Some(Expr::Lit(Lit { value: LitValue::Str(_), .. }))
                        )
                    {
                        self.eval_like_calls += 1;
                    }
                }
            }
            Expr::New { callee, .. } => {
                if let Expr::Ident(i) = &**callee {
                    if i.name == "Function" {
                        self.eval_like_calls += 1;
                    }
                }
            }
            Expr::Unary { op: UnaryOp::Not, arg, .. } => {
                if matches!(&**arg, Expr::Lit(Lit { value: LitValue::Num(_), .. })) {
                    self.not_on_number += 1;
                }
            }
            Expr::Unary { op: UnaryOp::Void, arg, .. } => {
                if matches!(&**arg, Expr::Lit(Lit { value: LitValue::Num(_), .. })) {
                    self.void_zero += 1;
                }
            }
            Expr::Binary { op: BinaryOp::Add, left, right, .. } => {
                // String-literal concatenation chain member (split signal).
                let str_side =
                    |e: &Expr| matches!(e, Expr::Lit(Lit { value: LitValue::Str(_), .. }));
                if str_side(left) && str_side(right) {
                    self.string_concat_chains += 1;
                } else if str_side(right) {
                    if let Expr::Binary { op: BinaryOp::Add, right: inner_r, .. } = &**left {
                        if str_side(inner_r) {
                            self.string_concat_chains += 1;
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// `ident === 'str'` / `ident !== 'str'` — the shape of injected opaque
/// predicates (dead-code injection compares a sentinel variable against a
/// value it can never hold).
fn is_ident_vs_string_test(e: &Expr) -> bool {
    match e {
        Expr::Binary { op: BinaryOp::EqEqEq | BinaryOp::NotEqEq, left, right, .. } => {
            matches!(&**left, Expr::Ident(_))
                && matches!(&**right, Expr::Lit(Lit { value: LitValue::Str(_), .. }))
        }
        _ => false,
    }
}

fn is_literal_true(e: &Expr) -> bool {
    match e {
        Expr::Lit(Lit { value: LitValue::Bool(true), .. }) => true,
        Expr::Lit(Lit { value: LitValue::Num(n), .. }) => *n != 0.0,
        // `!![]`, `!0`
        Expr::Unary { op: UnaryOp::Not, arg, .. } => match &**arg {
            Expr::Unary { op: UnaryOp::Not, .. } => true,
            Expr::Lit(Lit { value: LitValue::Num(n), .. }) => *n == 0.0,
            _ => false,
        },
        _ => false,
    }
}

fn contains_direct_switch(body: &Stmt) -> bool {
    match body {
        Stmt::Switch { .. } => true,
        Stmt::Block { body, .. } => body.iter().any(|s| matches!(s, Stmt::Switch { .. })),
        _ => false,
    }
}

fn is_hexlike(s: &str) -> bool {
    s.chars().all(|c| c.is_ascii_hexdigit() || c == 'x' || c == '%' || c == 'u' || c == '\\')
}

/// The obfuscator.io self-defending idiom uses regexes like
/// `(((.+)+)+)+$` — detect "packed" nested-group patterns.
fn is_packed_regex_source(s: &str) -> bool {
    s.contains("+)+)") || s.contains("(((.")
}

/// Shannon entropy over bytes, in bits.
pub(crate) fn byte_entropy(s: &str) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let mut counts = [0usize; 256];
    for b in s.bytes() {
        counts[b as usize] += 1;
    }
    let n = s.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analysis_of;

    fn features(src: &str) -> Vec<f32> {
        handpicked_features(&analysis_of(src))
    }

    fn feature(src: &str, name: &str) -> f32 {
        let i = FEATURE_NAMES.iter().position(|n| *n == name).unwrap();
        features(src)[i]
    }

    #[test]
    fn vector_width_matches_names() {
        assert_eq!(features("var x = 1;").len(), N_HANDPICKED);
    }

    #[test]
    fn all_features_finite() {
        for src in
            ["", "var x = 1;", "f();", "'just a string';", "function f(){};", "while(true){}"]
        {
            if let Ok(p) = crate::analyze(src, &jsdetect_guard::Limits::trusted()).into_ok() {
                for (i, v) in p.handpicked.iter().enumerate() {
                    assert!(v.is_finite(), "feature {} ({}) = {}", i, FEATURE_NAMES[i], v);
                }
            }
        }
    }

    #[test]
    fn minified_code_has_long_lines() {
        let pretty = "var alpha = 1;\nvar beta = 2;\nvar gamma = alpha + beta;\n";
        let mini = "var alpha=1,beta=2,gamma=alpha+beta;";
        assert!(feature(mini, "avg_chars_per_line") > feature(pretty, "avg_chars_per_line"));
        assert!(feature(mini, "whitespace_ratio") < feature(pretty, "whitespace_ratio"));
    }

    #[test]
    fn hex_binding_ratio_detects_obfuscated_names() {
        let obf = "var _0x1a2b = 1; var _0x3c4d = _0x1a2b + 1; use(_0x3c4d);";
        let reg = "var counter = 1; var total = counter + 1; use(total);";
        assert_eq!(feature(obf, "hex_binding_ratio"), 1.0);
        assert_eq!(feature(reg, "hex_binding_ratio"), 0.0);
    }

    #[test]
    fn short_binding_ratio_detects_minified_names() {
        assert_eq!(feature("var a = 1, b = 2; f(a, b);", "short_binding_ratio"), 1.0);
        assert_eq!(
            feature("var counter = 1, total = 2; f(counter, total);", "short_binding_ratio"),
            0.0
        );
    }

    #[test]
    fn bracket_ratio_distinguishes_access_style() {
        let brackets = "o['a']; o['b']; o['c'];";
        let dots = "o.a; o.b; o.c;";
        assert_eq!(feature(brackets, "bracket_member_ratio"), 1.0);
        assert_eq!(feature(dots, "bracket_member_ratio"), 0.0);
    }

    #[test]
    fn string_ops_counted() {
        let src = "s.split('').reverse().join('');";
        assert!(feature(src, "string_op_call_ratio") > 0.9);
        assert_eq!(feature("f(); g();", "string_op_call_ratio"), 0.0);
    }

    #[test]
    fn eval_like_detection() {
        assert!(feature("eval('code');", "eval_like_per_call") > 0.0);
        assert!(feature("setTimeout('x()', 10);", "eval_like_per_call") > 0.0);
        assert!(feature("(function(){}.constructor('debugger'))();", "eval_like_per_call") > 0.0);
        assert_eq!(feature("setTimeout(fn, 10);", "eval_like_per_call"), 0.0);
    }

    #[test]
    fn debugger_signals() {
        assert_eq!(feature("x = 'debugger';", "debugger_string_present"), 1.0);
        assert!(feature("debugger;", "debugger_per_statement") > 0.0);
    }

    #[test]
    fn packed_regex_detection() {
        assert_eq!(feature("s.search('(((.+)+)+)+$');", "packed_regex_present"), 1.0);
        assert_eq!(feature("s.search('abc');", "packed_regex_present"), 0.0);
    }

    #[test]
    fn flattening_signals() {
        let flat = "while (!![]) { switch (o[i++]) { case '0': a(); continue; case '1': b(); continue; } break; }";
        assert!(feature(flat, "literal_true_loop_ratio") > 0.9);
        assert!(feature(flat, "switch_in_loop_ratio") > 0.9);
        assert!(feature(flat, "avg_cases_per_switch") >= 2.0);
    }

    #[test]
    fn jsfuck_charset_signal() {
        let js = "(![]+[])[+[]]+(![]+[])[!+[]+!+[]];";
        assert!(feature(js, "jsfuck_charset_ratio") > 0.8);
        assert!(feature(js, "alnum_char_ratio") < 0.1);
        assert!(feature("var hello = 'world';", "jsfuck_charset_ratio") < 0.2);
    }

    #[test]
    fn string_entropy_distinguishes_encoded() {
        let plain = "x = 'aaaaaaaaaaaaaaaaaaaa';";
        let encoded = "x = '9f8a7b6c5d4e3f2a1b0c';";
        assert!(feature(encoded, "avg_string_entropy") > feature(plain, "avg_string_entropy"));
    }

    #[test]
    fn hexlike_strings_detected() {
        assert_eq!(feature("x = 'deadbeef';", "hexlike_string_ratio"), 1.0);
        assert_eq!(feature("x = 'readable words';", "hexlike_string_ratio"), 0.0);
    }

    #[test]
    fn concat_chain_counts_split_strings() {
        let split = "x = 'ab' + 'cd' + 'ef';";
        assert!(feature(split, "string_split_concat_ratio") > 0.5);
    }

    #[test]
    fn computed_member_def_ratio_uses_dataflow() {
        let ga = "var arr = ['a','b']; var x = arr[0]; var y = arr[1];";
        assert!(feature(ga, "computed_member_def_ratio") > 0.5);
    }

    #[test]
    fn bool_compression_signals() {
        assert!(feature("x = !0; y = !1;", "not_on_number_per_node") > 0.0);
        assert!(feature("x = void 0;", "void_zero_per_node") > 0.0);
    }

    #[test]
    fn unused_binding_ratio_counts_bindings_never_read() {
        let ratio = |src| feature(src, "unused_binding_ratio");
        assert_eq!(ratio("var w = 1; w = 2;"), 1.0, "written only");
        assert_eq!(ratio("var r = 1; f(r);"), 0.0, "read");
        assert_eq!(ratio("var u = 0; u++;"), 0.0, "a read-write reads");
        // The outer `s` is only written; the read inside `h` is its
        // parameter's, which shadows it.
        let shadowed = "var s = 1; function h(s) { return s; } h(2);";
        assert_eq!(ratio(shadowed), (1.0f64 / 3.0) as f32);
    }

    #[test]
    fn entropy_helper() {
        assert_eq!(byte_entropy(""), 0.0);
        assert_eq!(byte_entropy("aaaa"), 0.0);
        assert!((byte_entropy("ab") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hex_name_recognizer() {
        assert!(is_hex_name("_0x3fa2"));
        assert!(is_hex_name("_0xABCDEF"));
        assert!(!is_hex_name("_0x"));
        assert!(!is_hex_name("counter"));
        assert!(!is_hex_name("_0xzz"));
    }
}
