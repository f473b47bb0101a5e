//! AST → JavaScript source printer.

use crate::writer::Writer;
use jsdetect_ast::*;

/// Prints a program; `minify` emits no whitespace beyond what token
/// boundaries require.
fn generate(program: &Program, minify: bool) -> String {
    let mut g = Gen { w: Writer::new(minify) };
    for s in &program.body {
        g.stmt(s);
    }
    let mut out = g.w.finish();
    if !minify && !out.ends_with('\n') && !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Prints a program in readable, indented form.
///
/// # Examples
///
/// ```
/// use jsdetect_parser::parse;
/// use jsdetect_codegen::to_source;
/// let prog = parse("var x=1;if(x)f(x);").unwrap();
/// assert_eq!(to_source(&prog), "var x = 1;\nif (x) f(x);\n");
/// ```
pub fn to_source(program: &Program) -> String {
    generate(program, false)
}

/// Prints a program in compact form (whitespace-stripped).
///
/// # Examples
///
/// ```
/// use jsdetect_parser::parse;
/// use jsdetect_codegen::to_minified;
/// let prog = parse("var x = 1;\nif (x) { f(x); }").unwrap();
/// assert_eq!(to_minified(&prog), "var x=1;if(x){f(x);}");
/// ```
pub fn to_minified(program: &Program) -> String {
    generate(program, true)
}

// Expression precedence levels used for parenthesization decisions.
const PREC_SEQ: u8 = 1;
const PREC_ASSIGN: u8 = 2;
const PREC_COND: u8 = 3;
const PREC_UNARY: u8 = 15;
const PREC_POSTFIX: u8 = 16;
const PREC_NEW_NO_ARGS: u8 = 17;
const PREC_CALL: u8 = 18;
const PREC_MEMBER: u8 = 19;
const PREC_PRIMARY: u8 = 20;

fn expr_prec(e: &Expr) -> u8 {
    match e {
        Expr::Sequence { .. } => PREC_SEQ,
        Expr::Assign { .. } | Expr::Arrow { .. } | Expr::Yield { .. } => PREC_ASSIGN,
        Expr::Conditional { .. } => PREC_COND,
        Expr::Logical { op, .. } => op.precedence(),
        Expr::Binary { op, .. } => op.precedence(),
        Expr::Unary { .. } | Expr::Await { .. } => PREC_UNARY,
        Expr::Update { prefix, .. } => {
            if *prefix {
                PREC_UNARY
            } else {
                PREC_POSTFIX
            }
        }
        Expr::New { args, .. } if args.is_empty() => PREC_NEW_NO_ARGS,
        Expr::Call { .. } | Expr::ImportCall { .. } => PREC_CALL,
        Expr::Member { .. } | Expr::TaggedTemplate { .. } | Expr::New { .. } => PREC_MEMBER,
        _ => PREC_PRIMARY,
    }
}

/// Whether the leftmost token of `e` would be `{`, `function`, or `class`
/// (which must be parenthesized in expression-statement / arrow-body
/// position).
fn starts_ambiguously(e: &Expr) -> bool {
    match e {
        Expr::Object { .. } | Expr::Function(_) | Expr::Class(_) => true,
        Expr::Binary { left, .. } | Expr::Logical { left, .. } => starts_ambiguously(left),
        Expr::Conditional { test, .. } => starts_ambiguously(test),
        Expr::Assign { target, .. } => pat_starts_ambiguously(target),
        Expr::Member { object, .. } => starts_ambiguously(object),
        Expr::Call { callee, .. } => starts_ambiguously(callee),
        Expr::TaggedTemplate { tag, .. } => starts_ambiguously(tag),
        Expr::Sequence { exprs, .. } => exprs.first().is_some_and(starts_ambiguously),
        Expr::Update { prefix: false, arg, .. } => starts_ambiguously(arg),
        _ => false,
    }
}

fn pat_starts_ambiguously(p: &Pat) -> bool {
    match p {
        Pat::Object { .. } => true,
        Pat::Member(e) => starts_ambiguously(e),
        _ => false,
    }
}

/// Whether `e` contains a top-level (unparenthesized) `in` operator, which
/// must be wrapped when printed inside a classic `for` initializer.
fn contains_top_level_in(e: &Expr) -> bool {
    match e {
        Expr::Binary { op: BinaryOp::In, .. } => true,
        Expr::Binary { left, right, .. } | Expr::Logical { left, right, .. } => {
            contains_top_level_in(left) || contains_top_level_in(right)
        }
        Expr::Conditional { test, consequent, alternate, .. } => {
            contains_top_level_in(test)
                || contains_top_level_in(consequent)
                || contains_top_level_in(alternate)
        }
        Expr::Assign { value, .. } => contains_top_level_in(value),
        Expr::Sequence { exprs, .. } => exprs.iter().any(contains_top_level_in),
        Expr::Unary { arg, .. } => contains_top_level_in(arg),
        _ => false,
    }
}

/// Whether a statement ends with an `if` lacking an `else` (the dangling-
/// else hazard when this statement is an `if` consequent).
fn ends_with_open_if(s: &Stmt) -> bool {
    match s {
        Stmt::If { alternate: None, .. } => true,
        Stmt::If { alternate: Some(alt), .. } => ends_with_open_if(alt),
        Stmt::Labeled { body, .. }
        | Stmt::While { body, .. }
        | Stmt::With { body, .. }
        | Stmt::For { body, .. }
        | Stmt::ForIn { body, .. }
        | Stmt::ForOf { body, .. } => ends_with_open_if(body),
        _ => false,
    }
}

struct Gen {
    w: Writer,
}

impl Gen {
    // ---- statements ------------------------------------------------------

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Expr { expr, .. } => {
                if starts_ambiguously(expr) {
                    self.w.token("(");
                    self.expr(expr, PREC_SEQ);
                    self.w.token(")");
                } else {
                    self.expr(expr, PREC_SEQ);
                }
                self.w.token(";");
                self.w.newline();
            }
            Stmt::Block { body, .. } => {
                self.block(body);
                self.w.newline();
            }
            Stmt::VarDecl { kind, decls, .. } => {
                self.var_decl(*kind, decls, true);
                self.w.newline();
            }
            Stmt::FunctionDecl(f) => {
                self.function(f, true);
                self.w.newline();
            }
            Stmt::ClassDecl(c) => {
                self.class(c);
                self.w.newline();
            }
            Stmt::If { test, consequent, alternate, .. } => {
                self.w.token("if");
                self.w.space();
                self.w.token("(");
                self.expr(test, PREC_SEQ);
                self.w.token(")");
                let needs_brace = alternate.is_some() && ends_with_open_if(consequent);
                if needs_brace {
                    self.w.space();
                    self.w.token("{");
                    self.w.newline();
                    self.w.indent_inc();
                    self.stmt(consequent);
                    self.w.indent_dec();
                    self.w.token("}");
                } else {
                    self.nested(consequent);
                }
                if let Some(alt) = alternate {
                    if self.w.last_char() == Some('}') {
                        self.w.space();
                    }
                    self.w.token("else");
                    if matches!(**alt, Stmt::If { .. }) {
                        self.w.space();
                        self.stmt(alt);
                        return;
                    }
                    self.nested(alt);
                }
                self.w.newline();
            }
            Stmt::For { init, test, update, .. } => {
                self.w.token("for");
                self.w.space();
                self.w.token("(");
                match init {
                    Some(ForInit::Var { kind, decls }) => self.var_decl(*kind, decls, false),
                    Some(ForInit::Expr(e)) => {
                        if contains_top_level_in(e) {
                            self.w.token("(");
                            self.expr(e, PREC_SEQ);
                            self.w.token(")");
                        } else {
                            self.expr(e, PREC_SEQ);
                        }
                    }
                    None => {}
                }
                self.w.token(";");
                if let Some(t) = test {
                    self.w.space();
                    self.expr(t, PREC_SEQ);
                }
                self.w.token(";");
                if let Some(u) = update {
                    self.w.space();
                    self.expr(u, PREC_SEQ);
                }
                self.w.token(")");
                self.loop_body(s);
            }
            Stmt::ForIn { target, object, .. } => {
                self.w.token("for");
                self.w.space();
                self.w.token("(");
                self.for_target(target);
                self.w.token("in");
                self.expr(object, PREC_SEQ);
                self.w.token(")");
                self.loop_body(s);
            }
            Stmt::ForOf { target, iterable, .. } => {
                self.w.token("for");
                self.w.space();
                self.w.token("(");
                self.for_target(target);
                self.w.token("of");
                self.expr(iterable, PREC_ASSIGN);
                self.w.token(")");
                self.loop_body(s);
            }
            Stmt::While { test, body, .. } => {
                self.w.token("while");
                self.w.space();
                self.w.token("(");
                self.expr(test, PREC_SEQ);
                self.w.token(")");
                self.nested(body);
                self.w.newline();
            }
            Stmt::DoWhile { body, test, .. } => {
                self.w.token("do");
                self.nested(body);
                if self.w.last_char() == Some('}') {
                    self.w.space();
                }
                self.w.token("while");
                self.w.space();
                self.w.token("(");
                self.expr(test, PREC_SEQ);
                self.w.token(")");
                self.w.token(";");
                self.w.newline();
            }
            Stmt::Switch { discriminant, cases, .. } => {
                self.w.token("switch");
                self.w.space();
                self.w.token("(");
                self.expr(discriminant, PREC_SEQ);
                self.w.token(")");
                self.w.space();
                self.w.token("{");
                self.w.newline();
                self.w.indent_inc();
                for case in cases {
                    match &case.test {
                        Some(t) => {
                            self.w.token("case");
                            self.expr(t, PREC_SEQ);
                            self.w.token(":");
                        }
                        None => {
                            self.w.token("default");
                            self.w.token(":");
                        }
                    }
                    self.w.newline();
                    self.w.indent_inc();
                    for st in &case.body {
                        self.stmt(st);
                    }
                    self.w.indent_dec();
                }
                self.w.indent_dec();
                self.w.token("}");
                self.w.newline();
            }
            Stmt::Try { block, handler, finalizer, .. } => {
                self.w.token("try");
                self.w.space();
                self.block(block);
                if let Some(h) = handler {
                    self.w.space();
                    self.w.token("catch");
                    if let Some(p) = &h.param {
                        self.w.space();
                        self.w.token("(");
                        self.pat(p);
                        self.w.token(")");
                    }
                    self.w.space();
                    self.block(&h.body);
                }
                if let Some(fin) = finalizer {
                    self.w.space();
                    self.w.token("finally");
                    self.w.space();
                    self.block(fin);
                }
                self.w.newline();
            }
            Stmt::Throw { arg, .. } => {
                self.w.token("throw");
                self.expr(arg, PREC_SEQ);
                self.w.token(";");
                self.w.newline();
            }
            Stmt::Return { arg, .. } => {
                self.w.token("return");
                if let Some(a) = arg {
                    if starts_ambiguously(a) {
                        self.w.token("(");
                        self.expr(a, PREC_SEQ);
                        self.w.token(")");
                    } else {
                        self.expr(a, PREC_SEQ);
                    }
                }
                self.w.token(";");
                self.w.newline();
            }
            Stmt::Break { label, .. } => {
                self.w.token("break");
                if let Some(l) = label {
                    self.w.token(&l.name);
                }
                self.w.token(";");
                self.w.newline();
            }
            Stmt::Continue { label, .. } => {
                self.w.token("continue");
                if let Some(l) = label {
                    self.w.token(&l.name);
                }
                self.w.token(";");
                self.w.newline();
            }
            Stmt::Labeled { label, body, .. } => {
                self.w.token(&label.name);
                self.w.token(":");
                self.w.space();
                self.stmt(body);
            }
            Stmt::Empty { .. } => {
                self.w.token(";");
                self.w.newline();
            }
            Stmt::Debugger { .. } => {
                self.w.token("debugger");
                self.w.token(";");
                self.w.newline();
            }
            Stmt::With { object, body, .. } => {
                self.w.token("with");
                self.w.space();
                self.w.token("(");
                self.expr(object, PREC_SEQ);
                self.w.token(")");
                self.nested(body);
                self.w.newline();
            }
            Stmt::Import { specifiers, source, .. } => {
                self.w.token("import");
                if !specifiers.is_empty() {
                    self.w.space();
                    self.import_specifiers(specifiers);
                    self.w.space();
                    self.w.token("from");
                }
                self.w.space();
                self.lit(source);
                self.w.token(";");
                self.w.newline();
            }
            Stmt::ExportNamed { decl, specifiers, source, .. } => {
                self.w.token("export");
                if let Some(decl) = decl {
                    // The declaration prints its own terminator/newline.
                    self.stmt(decl);
                } else {
                    self.w.space();
                    self.w.token("{");
                    for (i, sp) in specifiers.iter().enumerate() {
                        if i > 0 {
                            self.w.token(",");
                            self.w.space();
                        }
                        self.w.token(&sp.local.name);
                        if sp.exported != sp.local.name {
                            self.w.space();
                            self.w.token("as");
                            self.w.token(sp.exported.as_str());
                        }
                    }
                    self.w.token("}");
                    if let Some(src) = source {
                        self.w.space();
                        self.w.token("from");
                        self.w.space();
                        self.lit(src);
                    }
                    self.w.token(";");
                    self.w.newline();
                }
            }
            Stmt::ExportDefault { expr, .. } => {
                self.w.token("export");
                self.w.token("default");
                self.w.space();
                self.expr(expr, PREC_ASSIGN);
                // Function/class forms are declarations: a trailing `;`
                // would reparse as an extra EmptyStatement.
                if !matches!(expr, Expr::Function(_) | Expr::Class(_)) {
                    self.w.token(";");
                }
                self.w.newline();
            }
            Stmt::ExportAll { exported, source, .. } => {
                self.w.token("export");
                self.w.space();
                self.w.token("*");
                if let Some(ns) = exported {
                    self.w.space();
                    self.w.token("as");
                    self.w.token(&ns.name);
                }
                self.w.space();
                self.w.token("from");
                self.w.space();
                self.lit(source);
                self.w.token(";");
                self.w.newline();
            }
        }
    }

    /// Prints an import clause in canonical order: default, namespace,
    /// then the named group.
    fn import_specifiers(&mut self, specifiers: &[ImportSpecifier]) {
        let mut first = true;
        for sp in specifiers {
            if let ImportSpecifier::Default { local } = sp {
                if !first {
                    self.w.token(",");
                    self.w.space();
                }
                self.w.token(&local.name);
                first = false;
            }
        }
        for sp in specifiers {
            if let ImportSpecifier::Namespace { local } = sp {
                if !first {
                    self.w.token(",");
                    self.w.space();
                }
                self.w.token("*");
                self.w.space();
                self.w.token("as");
                self.w.token(&local.name);
                first = false;
            }
        }
        let named: Vec<_> = specifiers
            .iter()
            .filter_map(|sp| match sp {
                ImportSpecifier::Named { imported, local } => Some((*imported, local)),
                _ => None,
            })
            .collect();
        if !named.is_empty() {
            if !first {
                self.w.token(",");
                self.w.space();
            }
            self.w.token("{");
            for (i, (imported, local)) in named.iter().enumerate() {
                if i > 0 {
                    self.w.token(",");
                    self.w.space();
                }
                if *imported == local.name {
                    self.w.token(&local.name);
                } else {
                    self.w.token(imported.as_str());
                    self.w.token("as");
                    self.w.token(&local.name);
                }
            }
            self.w.token("}");
        }
    }

    fn loop_body(&mut self, s: &Stmt) {
        let body = match s {
            Stmt::For { body, .. } | Stmt::ForIn { body, .. } | Stmt::ForOf { body, .. } => body,
            _ => unreachable!(),
        };
        self.nested(body);
        self.w.newline();
    }

    /// Prints a nested statement (loop/if body): blocks inline, single
    /// statements on an indented line in pretty mode.
    fn nested(&mut self, s: &Stmt) {
        match s {
            Stmt::Block { body, .. } => {
                self.w.space();
                self.block(body);
            }
            _ => {
                if self.w.minify {
                    self.stmt(s);
                } else {
                    self.w.space();
                    self.stmt(s);
                }
            }
        }
    }

    fn block(&mut self, body: &[Stmt]) {
        self.w.token("{");
        if body.is_empty() {
            self.w.token("}");
            return;
        }
        self.w.newline();
        self.w.indent_inc();
        for s in body {
            self.stmt(s);
        }
        self.w.indent_dec();
        self.w.token("}");
    }

    fn var_decl(&mut self, kind: VarKind, decls: &[VarDeclarator], semi: bool) {
        self.w.token(kind.as_str());
        for (i, d) in decls.iter().enumerate() {
            if i > 0 {
                self.w.token(",");
                self.w.space();
            }
            self.pat(&d.id);
            if let Some(init) = &d.init {
                self.w.space();
                self.w.token("=");
                self.w.space();
                self.expr(init, PREC_ASSIGN);
            }
        }
        if semi {
            self.w.token(";");
        }
    }

    fn for_target(&mut self, t: &ForTarget) {
        match t {
            ForTarget::Var { kind, pat } => {
                self.w.token(kind.as_str());
                self.pat(pat);
            }
            ForTarget::Pat(p) => self.pat(p),
        }
    }

    // ---- functions / classes ----------------------------------------------

    fn function(&mut self, f: &Function, _decl: bool) {
        if f.is_async {
            self.w.token("async");
        }
        self.w.token("function");
        if f.is_generator {
            self.w.token("*");
        }
        if let Some(id) = &f.id {
            self.w.token(&id.name);
        }
        self.params(&f.params);
        self.w.space();
        self.block(&f.body);
    }

    fn params(&mut self, params: &[Pat]) {
        self.w.token("(");
        for (i, p) in params.iter().enumerate() {
            if i > 0 {
                self.w.token(",");
                self.w.space();
            }
            self.pat(p);
        }
        self.w.token(")");
    }

    fn class(&mut self, c: &Class) {
        self.w.token("class");
        if let Some(id) = &c.id {
            self.w.token(&id.name);
        }
        if let Some(sup) = &c.super_class {
            self.w.token("extends");
            self.expr(sup, PREC_MEMBER);
        }
        self.w.space();
        self.w.token("{");
        self.w.newline();
        self.w.indent_inc();
        for m in &c.body {
            self.class_member(m);
        }
        self.w.indent_dec();
        self.w.token("}");
    }

    fn class_member(&mut self, m: &ClassMember) {
        if m.is_static {
            self.w.token("static");
        }
        match &m.value {
            ClassMemberValue::Method(f) => {
                if f.is_async {
                    self.w.token("async");
                }
                if f.is_generator {
                    self.w.token("*");
                }
                match m.kind {
                    MethodKind::Get => self.w.token("get"),
                    MethodKind::Set => self.w.token("set"),
                    _ => {}
                }
                self.prop_key(&m.key, m.computed);
                self.params(&f.params);
                self.w.space();
                self.block(&f.body);
                self.w.newline();
            }
            ClassMemberValue::Field(value) => {
                self.prop_key(&m.key, m.computed);
                if let Some(v) = value {
                    self.w.space();
                    self.w.token("=");
                    self.w.space();
                    self.expr(v, PREC_ASSIGN);
                }
                self.w.token(";");
                self.w.newline();
            }
        }
    }

    fn prop_key(&mut self, k: &PropKey, computed: bool) {
        if computed {
            self.w.token("[");
            match k {
                PropKey::Computed(e) => self.expr(e, PREC_ASSIGN),
                PropKey::Ident(i) => self.w.token(&i.name),
                PropKey::Lit(l) => self.lit(l),
                PropKey::Private(p) => self.private_name(p),
            }
            self.w.token("]");
            return;
        }
        match k {
            PropKey::Ident(i) => self.w.token(&i.name),
            PropKey::Lit(l) => self.lit(l),
            PropKey::Computed(e) => {
                self.w.token("[");
                self.expr(e, PREC_ASSIGN);
                self.w.token("]");
            }
            PropKey::Private(p) => self.private_name(p),
        }
    }

    fn private_name(&mut self, p: &Ident) {
        self.w.token(&format!("#{}", p.name));
    }

    // ---- patterns -----------------------------------------------------------

    fn pat(&mut self, p: &Pat) {
        match p {
            Pat::Ident(i) => self.w.token(&i.name),
            Pat::Array { elements, .. } => {
                self.w.token("[");
                for (i, el) in elements.iter().enumerate() {
                    if i > 0 {
                        self.w.token(",");
                        self.w.space();
                    }
                    if let Some(p) = el {
                        self.pat(p);
                    }
                }
                self.w.token("]");
            }
            Pat::Object { props, .. } => {
                self.w.token("{");
                for (i, prop) in props.iter().enumerate() {
                    if i > 0 {
                        self.w.token(",");
                        self.w.space();
                    }
                    if matches!(prop.value, Pat::Rest { .. }) {
                        self.pat(&prop.value);
                        continue;
                    }
                    let shorthand_ok = prop.shorthand
                        && match (&prop.key, &prop.value) {
                            (PropKey::Ident(k), Pat::Ident(v)) => k.name == v.name,
                            (PropKey::Ident(k), Pat::Assign { target, .. }) => {
                                matches!(&**target, Pat::Ident(v) if v.name == k.name)
                            }
                            _ => false,
                        };
                    if shorthand_ok {
                        self.pat(&prop.value);
                    } else {
                        self.prop_key(&prop.key, prop.computed);
                        self.w.token(":");
                        self.w.space();
                        self.pat(&prop.value);
                    }
                }
                self.w.token("}");
            }
            Pat::Assign { target, value, .. } => {
                self.pat(target);
                self.w.space();
                self.w.token("=");
                self.w.space();
                self.expr(value, PREC_ASSIGN);
            }
            Pat::Rest { arg, .. } => {
                self.w.token("...");
                self.pat(arg);
            }
            Pat::Member(e) => self.expr(e, PREC_MEMBER),
        }
    }

    // ---- expressions ----------------------------------------------------------

    fn expr(&mut self, e: &Expr, min_prec: u8) {
        if expr_prec(e) < min_prec {
            self.w.token("(");
            self.expr_inner(e);
            self.w.token(")");
        } else {
            self.expr_inner(e);
        }
    }

    fn expr_inner(&mut self, e: &Expr) {
        match e {
            Expr::Ident(i) => self.w.token(&i.name),
            Expr::Lit(l) => self.lit(l),
            Expr::This { .. } => self.w.token("this"),
            Expr::Super { .. } => self.w.token("super"),
            Expr::Array { elements, .. } => {
                self.w.token("[");
                for (i, el) in elements.iter().enumerate() {
                    if i > 0 {
                        self.w.token(",");
                        self.w.space();
                    }
                    if let Some(el) = el {
                        self.expr(el, PREC_ASSIGN);
                    }
                }
                // A trailing hole needs an extra comma: `[1,,]`.
                if matches!(elements.last(), Some(None)) {
                    self.w.token(",");
                }
                self.w.token("]");
            }
            Expr::Object { props, .. } => {
                self.w.token("{");
                for (i, p) in props.iter().enumerate() {
                    if i > 0 {
                        self.w.token(",");
                        self.w.space();
                    }
                    self.property(p);
                }
                self.w.token("}");
            }
            Expr::Function(f) => self.function(f, false),
            Expr::Arrow { params, body, is_async, .. } => {
                if *is_async {
                    self.w.token("async");
                }
                // Single plain identifier param may omit parentheses.
                match params.as_slice() {
                    [Pat::Ident(i)] => self.w.token(&i.name),
                    _ => self.params(params),
                }
                self.w.space();
                self.w.token("=>");
                self.w.space();
                match body {
                    ArrowBody::Expr(e) => {
                        if starts_ambiguously(e) {
                            self.w.token("(");
                            self.expr(e, PREC_SEQ);
                            self.w.token(")");
                        } else {
                            self.expr(e, PREC_ASSIGN);
                        }
                    }
                    ArrowBody::Block(stmts) => self.block(stmts),
                }
            }
            Expr::Class(c) => self.class(c),
            Expr::Template { quasis, exprs, .. } => self.template(quasis, exprs),
            Expr::TaggedTemplate { tag, quasis, exprs, .. } => {
                self.expr(tag, PREC_MEMBER);
                self.template(quasis, exprs);
            }
            Expr::Unary { op, arg, .. } => {
                self.w.token(op.as_str());
                self.expr(arg, PREC_UNARY);
            }
            Expr::Update { op, prefix, arg, .. } => {
                if *prefix {
                    self.w.token(op.as_str());
                    self.expr(arg, PREC_UNARY);
                } else {
                    self.expr(arg, PREC_POSTFIX);
                    self.w.token(op.as_str());
                }
            }
            Expr::Binary { op, left, right, .. } => {
                let prec = op.precedence();
                let (lmin, rmin) = if *op == BinaryOp::Exp {
                    // Right-associative; unary left operand must be wrapped.
                    (PREC_POSTFIX, prec)
                } else {
                    (prec, prec + 1)
                };
                self.expr(left, lmin);
                self.w.space();
                self.w.token(op.as_str());
                self.w.space();
                self.expr(right, rmin);
            }
            Expr::Logical { op, left, right, .. } => {
                let prec = op.precedence();
                // `??` must not mix unparenthesized with `&&`/`||`.
                let mixes = |child: &Expr| {
                    matches!(
                        (op, child),
                        (
                            LogicalOp::NullishCoalescing,
                            Expr::Logical { op: LogicalOp::And | LogicalOp::Or, .. }
                        ) | (
                            LogicalOp::Or | LogicalOp::And,
                            Expr::Logical { op: LogicalOp::NullishCoalescing, .. }
                        )
                    )
                };
                let lmin = if mixes(left) { prec + 1 } else { prec };
                let rmin = prec + 1;
                self.expr(left, lmin);
                self.w.space();
                self.w.token(op.as_str());
                self.w.space();
                self.expr(right, rmin);
            }
            Expr::Assign { op, target, value, .. } => {
                self.pat(target);
                self.w.space();
                self.w.token(op.as_str());
                self.w.space();
                self.expr(value, PREC_ASSIGN);
            }
            Expr::Conditional { test, consequent, alternate, .. } => {
                self.expr(test, PREC_COND + 1);
                self.w.space();
                self.w.token("?");
                self.w.space();
                self.expr(consequent, PREC_ASSIGN);
                self.w.space();
                self.w.token(":");
                self.w.space();
                self.expr(alternate, PREC_ASSIGN);
            }
            Expr::Call { callee, args, .. } => {
                self.expr(callee, PREC_CALL);
                self.args(args);
            }
            Expr::New { callee, args, .. } => {
                self.w.token("new");
                // The callee of `new` must not contain a top-level call.
                let callee_prec = expr_prec(callee);
                if callee_prec < PREC_MEMBER || contains_call(callee) {
                    self.w.token("(");
                    self.expr(callee, PREC_SEQ);
                    self.w.token(")");
                } else {
                    self.expr(callee, PREC_MEMBER);
                }
                if !args.is_empty() {
                    self.args(args);
                } else {
                    self.w.token("(");
                    self.w.token(")");
                }
            }
            Expr::Member { object, property, optional, .. } => {
                // Numeric literal objects need parens: `(1).toString()`.
                let needs_parens =
                    matches!(&**object, Expr::Lit(Lit { value: LitValue::Num(_), .. }))
                        || expr_prec(object) < PREC_CALL;
                if needs_parens {
                    self.w.token("(");
                    self.expr(object, PREC_SEQ);
                    self.w.token(")");
                } else {
                    self.expr(object, PREC_CALL);
                }
                match property {
                    MemberProp::Ident(i) => {
                        self.w.token(if *optional { "?." } else { "." });
                        self.w.token(&i.name);
                    }
                    MemberProp::Computed(p) => {
                        if *optional {
                            self.w.token("?.");
                        }
                        self.w.token("[");
                        self.expr(p, PREC_SEQ);
                        self.w.token("]");
                    }
                    MemberProp::Private(p) => {
                        self.w.token(if *optional { "?." } else { "." });
                        self.private_name(p);
                    }
                }
            }
            Expr::Sequence { exprs, .. } => {
                for (i, ex) in exprs.iter().enumerate() {
                    if i > 0 {
                        self.w.token(",");
                        self.w.space();
                    }
                    self.expr(ex, PREC_ASSIGN);
                }
            }
            Expr::Spread { arg, .. } => {
                self.w.token("...");
                self.expr(arg, PREC_ASSIGN);
            }
            Expr::Yield { arg, delegate, .. } => {
                self.w.token("yield");
                if *delegate {
                    self.w.token("*");
                }
                if let Some(a) = arg {
                    self.w.space();
                    self.expr(a, PREC_ASSIGN);
                }
            }
            Expr::Await { arg, .. } => {
                self.w.token("await");
                self.expr(arg, PREC_UNARY);
            }
            Expr::MetaProperty { meta, property, .. } => {
                self.w.token(&meta.name);
                self.w.token(".");
                self.w.token(&property.name);
            }
            Expr::ImportCall { arg, .. } => {
                self.w.token("import");
                self.w.token("(");
                self.expr(arg, PREC_ASSIGN);
                self.w.token(")");
            }
        }
    }

    fn args(&mut self, args: &[Expr]) {
        self.w.token("(");
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                self.w.token(",");
                self.w.space();
            }
            self.expr(a, PREC_ASSIGN);
        }
        self.w.token(")");
    }

    fn property(&mut self, p: &Property) {
        // Spread property.
        if let Expr::Spread { .. } = &p.value {
            self.expr(&p.value, PREC_SEQ);
            return;
        }
        match p.kind {
            PropKind::Get | PropKind::Set => {
                self.w.token(if p.kind == PropKind::Get { "get" } else { "set" });
                self.prop_key(&p.key, p.computed);
                if let Expr::Function(f) = &p.value {
                    self.params(&f.params);
                    self.w.space();
                    self.block(&f.body);
                }
                return;
            }
            PropKind::Init => {}
        }
        if p.method {
            if let Expr::Function(f) = &p.value {
                if f.is_async {
                    self.w.token("async");
                }
                if f.is_generator {
                    self.w.token("*");
                }
                self.prop_key(&p.key, p.computed);
                self.params(&f.params);
                self.w.space();
                self.block(&f.body);
                return;
            }
        }
        let shorthand_ok = p.shorthand
            && matches!((&p.key, &p.value), (PropKey::Ident(k), Expr::Ident(v)) if k.name == v.name);
        if shorthand_ok {
            self.expr(&p.value, PREC_PRIMARY);
            return;
        }
        self.prop_key(&p.key, p.computed);
        self.w.token(":");
        self.w.space();
        self.expr(&p.value, PREC_ASSIGN);
    }

    fn template(&mut self, quasis: &[TemplateElement], exprs: &[Expr]) {
        let mut out = String::from("`");
        for (i, q) in quasis.iter().enumerate() {
            if !q.raw.is_empty() {
                out.push_str(&q.raw);
            } else {
                out.push_str(&escape_template(&q.cooked));
            }
            if i < exprs.len() {
                out.push_str("${");
                // Flush accumulated text and print the expression.
                self.w.token(&out);
                out.clear();
                self.expr(&exprs[i], PREC_SEQ);
                out.push('}');
            }
        }
        out.push('`');
        self.w.token(&out);
    }

    fn lit(&mut self, l: &Lit) {
        match &l.value {
            LitValue::Str(s) => {
                let escaped = escape_string(s);
                self.w.token(&escaped);
            }
            LitValue::Num(n) => self.w.token(&format_number(*n)),
            LitValue::BigInt(d) => self.w.token(&format!("{}n", d)),
            LitValue::Bool(b) => self.w.token(if *b { "true" } else { "false" }),
            LitValue::Null => self.w.token("null"),
            LitValue::Regex { pattern, flags } => {
                let pat = if pattern.is_empty() { "(?:)" } else { pattern };
                self.w.token(&format!("/{}/{}", pat, flags));
            }
        }
    }
}

fn contains_call(e: &Expr) -> bool {
    match e {
        Expr::Call { .. } => true,
        Expr::Member { object, .. } => contains_call(object),
        Expr::TaggedTemplate { tag, .. } => contains_call(tag),
        Expr::New { callee, .. } => contains_call(callee),
        _ => false,
    }
}

/// Formats a number the way JavaScript source can express it.
pub fn format_number(n: f64) -> String {
    if n.is_nan() {
        return "NaN".into();
    }
    if n.is_infinite() {
        return if n > 0.0 { "Infinity".into() } else { "-Infinity".into() };
    }
    if n == 0.0 && n.is_sign_negative() {
        return "-0".into();
    }
    format!("{}", n)
}

/// Escapes a cooked string value as a single-quoted JavaScript literal.
pub fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('\'');
    for c in s.chars() {
        match c {
            '\'' => out.push_str("\\'"),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\0' => out.push_str("\\0"),
            '\u{8}' => out.push_str("\\b"),
            '\u{b}' => out.push_str("\\v"),
            '\u{c}' => out.push_str("\\f"),
            '\u{2028}' => out.push_str("\\u2028"),
            '\u{2029}' => out.push_str("\\u2029"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\x{:02x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('\'');
    out
}

fn escape_template(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '`' => out.push_str("\\`"),
            '\\' => out.push_str("\\\\"),
            '$' if chars.peek() == Some(&'{') => out.push_str("\\$"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_parser::parse;

    #[test]
    fn pretty_output_indents_four_spaces() {
        let prog = parse("if(x){f();}").unwrap();
        assert_eq!(to_source(&prog), "if (x) {\n    f();\n}\n");
        assert_eq!(to_minified(&prog), "if(x){f();}");
    }

    #[test]
    fn empty_program_prints_empty() {
        let prog = parse("").unwrap();
        assert_eq!(to_source(&prog), "");
        assert_eq!(to_minified(&prog), "");
    }

    #[test]
    fn starts_ambiguously_cases() {
        let obj = parse("x = {a: 1};").unwrap();
        if let jsdetect_ast::Stmt::Expr { expr: Expr::Assign { value, .. }, .. } = &obj.body[0] {
            assert!(starts_ambiguously(value));
        }
        let plain = parse("x = 1 + 2;").unwrap();
        if let jsdetect_ast::Stmt::Expr { expr, .. } = &plain.body[0] {
            assert!(!starts_ambiguously(expr));
        }
    }

    #[test]
    fn contains_top_level_in_detection() {
        let prog = parse("x = ('a' in o);").unwrap();
        if let jsdetect_ast::Stmt::Expr { expr, .. } = &prog.body[0] {
            assert!(contains_top_level_in(expr));
        }
        let prog = parse("x = f(a);").unwrap();
        if let jsdetect_ast::Stmt::Expr { expr, .. } = &prog.body[0] {
            assert!(!contains_top_level_in(expr));
        }
    }
}
