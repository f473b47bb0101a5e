//! Scope analysis: binding declaration and reference resolution.
//!
//! Implements the scoping rules the paper's data-flow layer relies on:
//! `var` and function declarations hoist to the enclosing function (or
//! global) scope, `let`/`const`/`class` are block-scoped, `catch` binds its
//! parameter in a dedicated scope, and unresolved names are classified as
//! globals (e.g. `window`, `document`, `Math`).

use jsdetect_ast::*;
use std::collections::HashMap;

/// Identifies a scope within a [`ScopeTree`].
pub type ScopeId = usize;
/// Identifies a binding within a [`ScopeTree`].
pub type BindingId = usize;

/// What introduced a scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// The top-level program scope.
    Global,
    /// A function (declaration, expression, arrow, or method) scope.
    Function,
    /// A block / loop / switch scope.
    Block,
    /// A `catch` clause scope.
    Catch,
}

/// What introduced a binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingKind {
    /// `var` declaration (function-scoped).
    Var,
    /// `let` declaration.
    Let,
    /// `const` declaration.
    Const,
    /// Function declaration or named function expression.
    Function,
    /// Class declaration/expression name.
    Class,
    /// Formal parameter.
    Param,
    /// `catch` parameter.
    CatchParam,
}

/// A declared name.
#[derive(Debug, Clone)]
pub struct Binding {
    /// The declared name.
    pub name: Atom,
    /// How the name was declared.
    pub kind: BindingKind,
    /// Span of the declaring identifier.
    pub decl_span: Span,
    /// Scope that owns the binding.
    pub scope: ScopeId,
}

/// How a reference uses a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefKind {
    /// The value is read.
    Read,
    /// The value is written (assignment target).
    Write,
    /// Read-modify-write (`x++`, `x += 1`).
    ReadWrite,
}

/// An identifier occurrence referring to a (possibly global) name.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Referenced name.
    pub name: Atom,
    /// Span of the identifier occurrence.
    pub span: Span,
    /// Resolved binding, or `None` for globals/undeclared.
    pub binding: Option<BindingId>,
    /// Access kind.
    pub kind: RefKind,
}

/// One lexical scope.
#[derive(Debug, Clone)]
pub struct Scope {
    /// This scope's id.
    pub id: ScopeId,
    /// Parent scope (`None` for the global scope).
    pub parent: Option<ScopeId>,
    /// What introduced the scope.
    pub kind: ScopeKind,
    names: HashMap<Atom, BindingId>,
}

/// Classification of the value expression assigned to a variable,
/// recorded at definition sites (declarations and plain assignments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefValueKind {
    /// `x = arr[i]` — computed member access (bracket notation), the shape
    /// left by the *global array* obfuscation technique.
    ComputedMember,
    /// `x = obj.prop` — dot member access.
    DotMember,
    /// `x = [...]`.
    ArrayLiteral,
    /// `x = {...}`.
    ObjectLiteral,
    /// String literal.
    StringLiteral,
    /// Numeric literal.
    NumberLiteral,
    /// Function or arrow expression.
    FunctionValue,
    /// Call or `new` result.
    CallResult,
    /// Anything else.
    Other,
}

/// Classifies a definition's right-hand side.
pub fn classify_def_value(e: &Expr) -> DefValueKind {
    match e {
        Expr::Member { property: MemberProp::Computed(_), .. } => DefValueKind::ComputedMember,
        Expr::Member { property: MemberProp::Ident(_), .. } => DefValueKind::DotMember,
        Expr::Array { .. } => DefValueKind::ArrayLiteral,
        Expr::Object { .. } => DefValueKind::ObjectLiteral,
        Expr::Lit(Lit { value: LitValue::Str(_), .. }) => DefValueKind::StringLiteral,
        Expr::Lit(Lit { value: LitValue::Num(_), .. }) => DefValueKind::NumberLiteral,
        Expr::Function(_) | Expr::Arrow { .. } => DefValueKind::FunctionValue,
        Expr::Call { .. } | Expr::New { .. } => DefValueKind::CallResult,
        _ => DefValueKind::Other,
    }
}

/// The result of scope analysis.
#[derive(Debug, Clone)]
pub struct ScopeTree {
    scopes: Vec<Scope>,
    bindings: Vec<Binding>,
    references: Vec<Reference>,
    /// Per binding, the indices of its references in source order, so a
    /// per-binding query costs that binding's references, not all of them.
    refs_by_binding: Vec<Vec<u32>>,
    def_values: Vec<(Option<BindingId>, DefValueKind)>,
}

impl ScopeTree {
    /// All scopes, indexable by [`ScopeId`].
    pub fn scopes(&self) -> &[Scope] {
        &self.scopes
    }

    /// All bindings, indexable by [`BindingId`].
    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    /// All identifier references (resolved and global).
    pub fn references(&self) -> &[Reference] {
        &self.references
    }

    /// References that did not resolve to a local binding.
    pub fn global_refs(&self) -> impl Iterator<Item = &Reference> {
        self.references.iter().filter(|r| r.binding.is_none())
    }

    /// All references resolved to `binding`, in source order.
    pub fn refs_of(&self, binding: BindingId) -> impl Iterator<Item = &Reference> {
        self.refs_by_binding[binding].iter().map(|&i| &self.references[i as usize])
    }

    /// `(reads, writes)` for a binding. A `ReadWrite` reference (compound
    /// assignment, update expression) counts toward both.
    pub fn rw_counts(&self, binding: BindingId) -> (usize, usize) {
        let (mut reads, mut writes) = (0usize, 0usize);
        for r in self.refs_of(binding) {
            match r.kind {
                RefKind::Read => reads += 1,
                RefKind::Write => writes += 1,
                RefKind::ReadWrite => {
                    reads += 1;
                    writes += 1;
                }
            }
        }
        (reads, writes)
    }

    /// Definition-site value classifications: one entry per declaration
    /// initializer or plain assignment whose target is a simple variable.
    pub fn def_values(&self) -> &[(Option<BindingId>, DefValueKind)] {
        &self.def_values
    }

    /// Looks a name up through the scope chain starting at `scope`.
    pub fn lookup(&self, mut scope: ScopeId, name: impl Into<Atom>) -> Option<BindingId> {
        let name = name.into();
        loop {
            let s = &self.scopes[scope];
            if let Some(&b) = s.names.get(&name) {
                return Some(b);
            }
            match s.parent {
                Some(p) => scope = p,
                None => return None,
            }
        }
    }
}

/// Builds the scope tree for a program.
pub fn analyze_scopes(program: &Program) -> ScopeTree {
    let mut b = Builder {
        tree: ScopeTree {
            scopes: Vec::new(),
            bindings: Vec::new(),
            references: Vec::new(),
            refs_by_binding: Vec::new(),
            def_values: Vec::new(),
        },
    };
    let global = b.new_scope(None, ScopeKind::Global);
    b.hoist_stmts(&program.body, global, global);
    for s in &program.body {
        b.stmt(s, global, global);
    }
    let mut tree = b.tree;
    tree.refs_by_binding = vec![Vec::new(); tree.bindings.len()];
    for (i, r) in tree.references.iter().enumerate() {
        if let Some(b) = r.binding {
            tree.refs_by_binding[b].push(i as u32);
        }
    }
    tree
}

struct Builder {
    tree: ScopeTree,
}

impl Builder {
    fn new_scope(&mut self, parent: Option<ScopeId>, kind: ScopeKind) -> ScopeId {
        let id = self.tree.scopes.len();
        self.tree.scopes.push(Scope { id, parent, kind, names: HashMap::new() });
        id
    }

    fn declare(&mut self, scope: ScopeId, name: Atom, kind: BindingKind, span: Span) -> BindingId {
        if let Some(&existing) = self.tree.scopes[scope].names.get(&name) {
            // Redeclaration (`var x; var x;`): keep the first binding.
            return existing;
        }
        let id = self.tree.bindings.len();
        self.tree.bindings.push(Binding { name, kind, decl_span: span, scope });
        self.tree.scopes[scope].names.insert(name, id);
        id
    }

    fn reference(&mut self, scope: ScopeId, name: Atom, span: Span, kind: RefKind) {
        let binding = self.tree.lookup(scope, name);
        self.tree.references.push(Reference { name, span, binding, kind });
    }

    // ---- hoisting pre-pass -------------------------------------------------

    /// Declares `var` and function declarations of a function (or global)
    /// body into `fn_scope`, recursing through nested blocks but not nested
    /// functions.
    fn hoist_stmts(&mut self, stmts: &[Stmt], fn_scope: ScopeId, _cur: ScopeId) {
        for s in stmts {
            self.hoist_stmt(s, fn_scope);
        }
    }

    fn hoist_stmt(&mut self, s: &Stmt, fn_scope: ScopeId) {
        match s {
            Stmt::VarDecl { kind: VarKind::Var, decls, .. } => {
                for d in decls {
                    self.hoist_pat(&d.id, fn_scope);
                }
            }
            Stmt::FunctionDecl(f) => {
                if let Some(id) = &f.id {
                    self.declare(fn_scope, id.name, BindingKind::Function, id.span);
                }
            }
            Stmt::Block { body, .. } => self.hoist_stmts(body, fn_scope, fn_scope),
            Stmt::If { consequent, alternate, .. } => {
                self.hoist_stmt(consequent, fn_scope);
                if let Some(alt) = alternate {
                    self.hoist_stmt(alt, fn_scope);
                }
            }
            Stmt::For { init, body, .. } => {
                if let Some(ForInit::Var { kind: VarKind::Var, decls }) = init {
                    for d in decls {
                        self.hoist_pat(&d.id, fn_scope);
                    }
                }
                self.hoist_stmt(body, fn_scope);
            }
            Stmt::ForIn { target, body, .. } | Stmt::ForOf { target, iterable: _, body, .. } => {
                if let ForTarget::Var { kind: VarKind::Var, pat } = target {
                    self.hoist_pat(pat, fn_scope);
                }
                self.hoist_stmt(body, fn_scope);
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => {
                self.hoist_stmt(body, fn_scope)
            }
            Stmt::Labeled { body, .. } | Stmt::With { body, .. } => self.hoist_stmt(body, fn_scope),
            Stmt::Switch { cases, .. } => {
                for c in cases {
                    self.hoist_stmts(&c.body, fn_scope, fn_scope);
                }
            }
            Stmt::Try { block, handler, finalizer, .. } => {
                self.hoist_stmts(block, fn_scope, fn_scope);
                if let Some(h) = handler {
                    self.hoist_stmts(&h.body, fn_scope, fn_scope);
                }
                if let Some(fin) = finalizer {
                    self.hoist_stmts(fin, fn_scope, fn_scope);
                }
            }
            Stmt::ExportNamed { decl: Some(d), .. } => self.hoist_stmt(d, fn_scope),
            _ => {}
        }
    }

    fn hoist_pat(&mut self, p: &Pat, fn_scope: ScopeId) {
        self.bind_pat(p, fn_scope, BindingKind::Var);
    }

    /// Declares every identifier bound by a pattern.
    fn bind_pat(&mut self, p: &Pat, scope: ScopeId, kind: BindingKind) {
        match p {
            Pat::Ident(i) => {
                self.declare(scope, i.name, kind, i.span);
            }
            Pat::Array { elements, .. } => {
                for el in elements.iter().flatten() {
                    self.bind_pat(el, scope, kind);
                }
            }
            Pat::Object { props, .. } => {
                for prop in props {
                    if let PropKey::Computed(e) = &prop.key {
                        self.expr(e, scope);
                    }
                    self.bind_pat(&prop.value, scope, kind);
                }
            }
            Pat::Assign { target, value, .. } => {
                self.bind_pat(target, scope, kind);
                self.expr(value, scope);
            }
            Pat::Rest { arg, .. } => self.bind_pat(arg, scope, kind),
            Pat::Member(e) => self.expr(e, scope),
        }
    }

    // ---- main pass -----------------------------------------------------------

    #[allow(clippy::only_used_in_recursion)]
    fn stmt(&mut self, s: &Stmt, scope: ScopeId, fn_scope: ScopeId) {
        match s {
            Stmt::Expr { expr, .. } => self.expr(expr, scope),
            Stmt::Block { body, .. } => {
                let inner = self.new_scope(Some(scope), ScopeKind::Block);
                self.declare_lexical(body, inner);
                for st in body {
                    self.stmt(st, inner, fn_scope);
                }
            }
            Stmt::VarDecl { kind, decls, .. } => {
                for d in decls {
                    if kind.is_lexical() {
                        self.bind_pat(&d.id, scope, lexical_kind(*kind));
                    }
                    // `var` ids were hoisted; record writes via init.
                    if let Some(init) = &d.init {
                        self.expr(init, scope);
                        self.pat_def_refs(&d.id, scope);
                        if let Pat::Ident(i) = &d.id {
                            let b = self.tree.lookup(scope, i.name);
                            self.tree.def_values.push((b, classify_def_value(init)));
                        }
                    }
                }
            }
            Stmt::FunctionDecl(f) => self.function(f, scope, false),
            Stmt::ClassDecl(c) => {
                if let Some(id) = &c.id {
                    self.declare(scope, id.name, BindingKind::Class, id.span);
                }
                self.class(c, scope);
            }
            Stmt::If { test, consequent, alternate, .. } => {
                self.expr(test, scope);
                self.stmt(consequent, scope, fn_scope);
                if let Some(alt) = alternate {
                    self.stmt(alt, scope, fn_scope);
                }
            }
            Stmt::For { init, test, update, body, .. } => {
                let head = self.new_scope(Some(scope), ScopeKind::Block);
                match init {
                    Some(ForInit::Var { kind, decls }) => {
                        for d in decls {
                            if kind.is_lexical() {
                                self.bind_pat(&d.id, head, lexical_kind(*kind));
                            }
                            if let Some(e) = &d.init {
                                self.expr(e, head);
                                self.pat_def_refs(&d.id, head);
                            }
                        }
                    }
                    Some(ForInit::Expr(e)) => self.expr(e, head),
                    None => {}
                }
                if let Some(t) = test {
                    self.expr(t, head);
                }
                if let Some(u) = update {
                    self.expr(u, head);
                }
                self.stmt(body, head, fn_scope);
            }
            Stmt::ForIn { target, object, body, .. } => {
                let head = self.new_scope(Some(scope), ScopeKind::Block);
                self.for_target(target, head);
                self.expr(object, head);
                self.stmt(body, head, fn_scope);
            }
            Stmt::ForOf { target, iterable, body, .. } => {
                let head = self.new_scope(Some(scope), ScopeKind::Block);
                self.for_target(target, head);
                self.expr(iterable, head);
                self.stmt(body, head, fn_scope);
            }
            Stmt::While { test, body, .. } => {
                self.expr(test, scope);
                self.stmt(body, scope, fn_scope);
            }
            Stmt::DoWhile { body, test, .. } => {
                self.stmt(body, scope, fn_scope);
                self.expr(test, scope);
            }
            Stmt::Switch { discriminant, cases, .. } => {
                self.expr(discriminant, scope);
                let inner = self.new_scope(Some(scope), ScopeKind::Block);
                for c in cases {
                    self.declare_lexical(&c.body, inner);
                }
                for c in cases {
                    if let Some(t) = &c.test {
                        self.expr(t, inner);
                    }
                    for st in &c.body {
                        self.stmt(st, inner, fn_scope);
                    }
                }
            }
            Stmt::Try { block, handler, finalizer, .. } => {
                let tscope = self.new_scope(Some(scope), ScopeKind::Block);
                self.declare_lexical(block, tscope);
                for st in block {
                    self.stmt(st, tscope, fn_scope);
                }
                if let Some(h) = handler {
                    let cscope = self.new_scope(Some(scope), ScopeKind::Catch);
                    if let Some(p) = &h.param {
                        self.bind_pat(p, cscope, BindingKind::CatchParam);
                    }
                    self.declare_lexical(&h.body, cscope);
                    for st in &h.body {
                        self.stmt(st, cscope, fn_scope);
                    }
                }
                if let Some(fin) = finalizer {
                    let fscope = self.new_scope(Some(scope), ScopeKind::Block);
                    self.declare_lexical(fin, fscope);
                    for st in fin {
                        self.stmt(st, fscope, fn_scope);
                    }
                }
            }
            Stmt::Throw { arg, .. } => self.expr(arg, scope),
            Stmt::Return { arg, .. } => {
                if let Some(a) = arg {
                    self.expr(a, scope);
                }
            }
            Stmt::Labeled { body, .. } => self.stmt(body, scope, fn_scope),
            Stmt::With { object, body, .. } => {
                self.expr(object, scope);
                self.stmt(body, scope, fn_scope);
            }
            Stmt::Break { .. }
            | Stmt::Continue { .. }
            | Stmt::Empty { .. }
            | Stmt::Debugger { .. } => {}
            // Import bindings were declared in the lexical pre-pass (module
            // bindings hoist like `const`); nothing to walk here.
            Stmt::Import { .. } => {}
            Stmt::ExportNamed { decl, specifiers, source, .. } => {
                if let Some(decl) = decl {
                    self.stmt(decl, scope, fn_scope);
                }
                // `export { a }` reads local bindings; `export { a } from`
                // re-exports without touching local scope.
                if source.is_none() {
                    for sp in specifiers {
                        self.reference(scope, sp.local.name, sp.local.span, RefKind::Read);
                    }
                }
            }
            Stmt::ExportDefault { expr, .. } => self.expr(expr, scope),
            Stmt::ExportAll { .. } => {}
        }
    }

    /// Declares the lexical (`let`/`const`/`class`) names of a statement
    /// list into `scope` before the main walk (simplified TDZ-free model).
    fn declare_lexical(&mut self, stmts: &[Stmt], scope: ScopeId) {
        for s in stmts {
            match s {
                Stmt::VarDecl { kind, decls, .. } if kind.is_lexical() => {
                    for d in decls {
                        self.bind_pat_names_only(&d.id, scope, lexical_kind(*kind));
                    }
                }
                Stmt::ClassDecl(c) => {
                    if let Some(id) = &c.id {
                        self.declare(scope, id.name, BindingKind::Class, id.span);
                    }
                }
                Stmt::FunctionDecl(f) => {
                    // Block-level function declarations (sloppy mode).
                    if let Some(id) = &f.id {
                        self.declare(scope, id.name, BindingKind::Function, id.span);
                    }
                }
                Stmt::Import { specifiers, .. } => {
                    // Module bindings hoist like `const` (immutable locals).
                    for sp in specifiers {
                        let local = sp.local();
                        self.declare(scope, local.name, BindingKind::Const, local.span);
                    }
                }
                Stmt::ExportNamed { decl: Some(d), .. } => {
                    self.declare_lexical(std::slice::from_ref(d), scope);
                }
                _ => {}
            }
        }
    }

    /// Declares pattern names without walking default-value expressions
    /// (used by the lexical pre-pass; values are walked in the main pass).
    fn bind_pat_names_only(&mut self, p: &Pat, scope: ScopeId, kind: BindingKind) {
        match p {
            Pat::Ident(i) => {
                self.declare(scope, i.name, kind, i.span);
            }
            Pat::Array { elements, .. } => {
                for el in elements.iter().flatten() {
                    self.bind_pat_names_only(el, scope, kind);
                }
            }
            Pat::Object { props, .. } => {
                for prop in props {
                    self.bind_pat_names_only(&prop.value, scope, kind);
                }
            }
            Pat::Assign { target, .. } => self.bind_pat_names_only(target, scope, kind),
            Pat::Rest { arg, .. } => self.bind_pat_names_only(arg, scope, kind),
            Pat::Member(_) => {}
        }
    }

    fn for_target(&mut self, t: &ForTarget, scope: ScopeId) {
        match t {
            ForTarget::Var { kind, pat } => {
                if kind.is_lexical() {
                    self.bind_pat(pat, scope, lexical_kind(*kind));
                }
                self.pat_def_refs(pat, scope);
            }
            ForTarget::Pat(p) => self.pat_write_refs(p, scope),
        }
    }

    /// Records `Write` references for the identifiers a declaration pattern
    /// binds (a declaration with an initializer *defines* those names).
    fn pat_def_refs(&mut self, p: &Pat, scope: ScopeId) {
        match p {
            Pat::Ident(i) => self.reference(scope, i.name, i.span, RefKind::Write),
            Pat::Array { elements, .. } => {
                for el in elements.iter().flatten() {
                    self.pat_def_refs(el, scope);
                }
            }
            Pat::Object { props, .. } => {
                for prop in props {
                    self.pat_def_refs(&prop.value, scope);
                }
            }
            Pat::Assign { target, .. } => self.pat_def_refs(target, scope),
            Pat::Rest { arg, .. } => self.pat_def_refs(arg, scope),
            Pat::Member(e) => self.expr(e, scope),
        }
    }

    /// Records references for an assignment-target pattern.
    fn pat_write_refs(&mut self, p: &Pat, scope: ScopeId) {
        match p {
            Pat::Ident(i) => self.reference(scope, i.name, i.span, RefKind::Write),
            Pat::Array { elements, .. } => {
                for el in elements.iter().flatten() {
                    self.pat_write_refs(el, scope);
                }
            }
            Pat::Object { props, .. } => {
                for prop in props {
                    if let PropKey::Computed(e) = &prop.key {
                        self.expr(e, scope);
                    }
                    self.pat_write_refs(&prop.value, scope);
                }
            }
            Pat::Assign { target, value, .. } => {
                self.pat_write_refs(target, scope);
                self.expr(value, scope);
            }
            Pat::Rest { arg, .. } => self.pat_write_refs(arg, scope),
            Pat::Member(e) => self.expr(e, scope),
        }
    }

    fn function(&mut self, f: &Function, scope: ScopeId, is_expr: bool) {
        // A named function expression binds its own name inside itself.
        let fscope = self.new_scope(Some(scope), ScopeKind::Function);
        if is_expr {
            if let Some(id) = &f.id {
                self.declare(fscope, id.name, BindingKind::Function, id.span);
            }
        }
        for p in &f.params {
            self.bind_pat(p, fscope, BindingKind::Param);
        }
        self.hoist_stmts(&f.body, fscope, fscope);
        self.declare_lexical(&f.body, fscope);
        for s in &f.body {
            self.stmt(s, fscope, fscope);
        }
    }

    fn class(&mut self, c: &Class, scope: ScopeId) {
        if let Some(sup) = &c.super_class {
            self.expr(sup, scope);
        }
        for m in &c.body {
            if let PropKey::Computed(e) = &m.key {
                self.expr(e, scope);
            }
            match &m.value {
                ClassMemberValue::Method(f) => self.function(f, scope, true),
                ClassMemberValue::Field(Some(e)) => self.expr(e, scope),
                ClassMemberValue::Field(None) => {}
            }
        }
    }

    fn expr(&mut self, e: &Expr, scope: ScopeId) {
        match e {
            Expr::Ident(i) => self.reference(scope, i.name, i.span, RefKind::Read),
            Expr::Lit(_) | Expr::This { .. } | Expr::Super { .. } | Expr::MetaProperty { .. } => {}
            Expr::Array { elements, .. } => {
                for el in elements.iter().flatten() {
                    self.expr(el, scope);
                }
            }
            Expr::Object { props, .. } => {
                for p in props {
                    if let PropKey::Computed(k) = &p.key {
                        self.expr(k, scope);
                    }
                    self.expr(&p.value, scope);
                }
            }
            Expr::Function(f) => self.function(f, scope, true),
            Expr::Arrow { params, body, .. } => {
                let fscope = self.new_scope(Some(scope), ScopeKind::Function);
                for p in params {
                    self.bind_pat(p, fscope, BindingKind::Param);
                }
                match body {
                    ArrowBody::Expr(e) => self.expr(e, fscope),
                    ArrowBody::Block(stmts) => {
                        self.hoist_stmts(stmts, fscope, fscope);
                        self.declare_lexical(stmts, fscope);
                        for s in stmts {
                            self.stmt(s, fscope, fscope);
                        }
                    }
                }
            }
            Expr::Class(c) => self.class(c, scope),
            Expr::Template { exprs, .. } => {
                for ex in exprs {
                    self.expr(ex, scope);
                }
            }
            Expr::TaggedTemplate { tag, exprs, .. } => {
                self.expr(tag, scope);
                for ex in exprs {
                    self.expr(ex, scope);
                }
            }
            Expr::Unary { arg, .. } | Expr::Spread { arg, .. } | Expr::Await { arg, .. } => {
                self.expr(arg, scope)
            }
            Expr::Update { arg, .. } => {
                if let Expr::Ident(i) = &**arg {
                    self.reference(scope, i.name, i.span, RefKind::ReadWrite);
                } else {
                    self.expr(arg, scope);
                }
            }
            Expr::Binary { left, right, .. } | Expr::Logical { left, right, .. } => {
                self.expr(left, scope);
                self.expr(right, scope);
            }
            Expr::Assign { op, target, value, .. } => {
                if op.is_plain() {
                    self.pat_write_refs(target, scope);
                    if let Pat::Ident(i) = &**target {
                        let b = self.tree.lookup(scope, i.name);
                        self.tree.def_values.push((b, classify_def_value(value)));
                    }
                } else if let Pat::Ident(i) = &**target {
                    self.reference(scope, i.name, i.span, RefKind::ReadWrite);
                } else {
                    self.pat_write_refs(target, scope);
                }
                self.expr(value, scope);
            }
            Expr::Conditional { test, consequent, alternate, .. } => {
                self.expr(test, scope);
                self.expr(consequent, scope);
                self.expr(alternate, scope);
            }
            Expr::Call { callee, args, .. } | Expr::New { callee, args, .. } => {
                self.expr(callee, scope);
                for a in args {
                    self.expr(a, scope);
                }
            }
            Expr::Member { object, property, .. } => {
                self.expr(object, scope);
                if let MemberProp::Computed(p) = property {
                    self.expr(p, scope);
                }
            }
            Expr::Sequence { exprs, .. } => {
                for ex in exprs {
                    self.expr(ex, scope);
                }
            }
            Expr::Yield { arg, .. } => {
                if let Some(a) = arg {
                    self.expr(a, scope);
                }
            }
            Expr::ImportCall { arg, .. } => self.expr(arg, scope),
        }
    }
}

fn lexical_kind(k: VarKind) -> BindingKind {
    match k {
        VarKind::Let => BindingKind::Let,
        VarKind::Const => BindingKind::Const,
        VarKind::Var => BindingKind::Var,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_parser::parse;

    fn tree(src: &str) -> ScopeTree {
        analyze_scopes(&parse(src).unwrap())
    }

    fn binding_names(t: &ScopeTree) -> Vec<&str> {
        t.bindings().iter().map(|b| b.name.as_str()).collect()
    }

    #[test]
    fn global_var_binding_and_use() {
        let t = tree("var x = 1; use(x);");
        assert_eq!(binding_names(&t), vec!["x"]);
        // `use` is a global ref, `x` resolves.
        let x_refs: Vec<_> = t.references().iter().filter(|r| r.name == "x").collect();
        assert_eq!(x_refs.len(), 2); // def-write + read
        assert!(x_refs.iter().all(|r| r.binding == Some(0)));
        assert!(t.global_refs().any(|r| r.name == "use"));
    }

    #[test]
    fn var_hoisting_allows_use_before_decl() {
        let t = tree("f(x); var x = 1;");
        let first_x = t.references().iter().find(|r| r.name == "x").unwrap();
        assert!(first_x.binding.is_some(), "hoisted var must resolve");
    }

    #[test]
    fn let_is_block_scoped() {
        let t = tree("{ let y = 1; } y = 2;");
        let refs: Vec<_> = t.references().iter().filter(|r| r.name == "y").collect();
        // Inner def resolves, outer write is global.
        assert!(refs.iter().any(|r| r.binding.is_some()));
        assert!(refs.iter().any(|r| r.binding.is_none()));
    }

    #[test]
    fn var_escapes_block() {
        let t = tree("{ var z = 1; } z = 2;");
        let refs: Vec<_> = t.references().iter().filter(|r| r.name == "z").collect();
        assert!(refs.iter().all(|r| r.binding.is_some()));
    }

    #[test]
    fn function_params_shadow_globals() {
        let t = tree("var a = 1; function f(a) { return a; }");
        // The `a` read inside f must resolve to the Param binding.
        let param =
            t.bindings().iter().position(|b| b.kind == BindingKind::Param).expect("param binding");
        let read =
            t.references().iter().find(|r| r.name == "a" && r.kind == RefKind::Read).unwrap();
        assert_eq!(read.binding, Some(param));
    }

    #[test]
    fn catch_param_scoped_to_handler() {
        let t = tree("try { f(); } catch (e) { g(e); } h(e);");
        let refs: Vec<_> = t.references().iter().filter(|r| r.name == "e").collect();
        assert!(refs.iter().any(|r| r.binding.is_some())); // inside handler
        assert!(refs.iter().any(|r| r.binding.is_none())); // outside
    }

    #[test]
    fn named_function_expression_binds_own_name() {
        let t = tree("var f = function rec(n) { return n ? rec(n - 1) : 0; };");
        let rec_read =
            t.references().iter().find(|r| r.name == "rec" && r.kind == RefKind::Read).unwrap();
        assert!(rec_read.binding.is_some());
    }

    #[test]
    fn closures_resolve_through_scope_chain() {
        let t = tree("function outer() { var v = 1; return function () { return v; }; }");
        let reads: Vec<_> =
            t.references().iter().filter(|r| r.name == "v" && r.kind == RefKind::Read).collect();
        assert_eq!(reads.len(), 1);
        assert!(reads[0].binding.is_some());
    }

    #[test]
    fn update_is_read_write() {
        let t = tree("var i = 0; i++;");
        assert!(t.references().iter().any(|r| r.name == "i" && r.kind == RefKind::ReadWrite));
    }

    #[test]
    fn compound_assign_is_read_write() {
        let t = tree("var s = ''; s += 'a';");
        assert!(t.references().iter().any(|r| r.name == "s" && r.kind == RefKind::ReadWrite));
    }

    #[test]
    fn destructuring_declares_all_names() {
        let t = tree("const {a, b: [c, d], ...rest} = obj;");
        let names = binding_names(&t);
        for n in ["a", "c", "d", "rest"] {
            assert!(names.contains(&n), "missing {}", n);
        }
        assert!(!names.contains(&"b"), "property key `b` must not bind");
    }

    #[test]
    fn for_loop_head_let_scoped_to_loop() {
        let t = tree("for (let i = 0; i < 3; i++) { use(i); } i;");
        let refs: Vec<_> = t.references().iter().filter(|r| r.name == "i").collect();
        let unresolved = refs.iter().filter(|r| r.binding.is_none()).count();
        assert_eq!(unresolved, 1, "only the trailing `i` is global");
    }

    #[test]
    fn member_properties_are_not_references() {
        let t = tree("console.log(window.location.href);");
        let names: Vec<_> = t.references().iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"console"));
        assert!(names.contains(&"window"));
        assert!(!names.contains(&"log"));
        assert!(!names.contains(&"href"));
    }

    #[test]
    fn class_name_binds() {
        let t = tree("class Widget {} new Widget();");
        assert!(t.bindings().iter().any(|b| b.kind == BindingKind::Class));
        let read =
            t.references().iter().find(|r| r.name == "Widget" && r.kind == RefKind::Read).unwrap();
        assert!(read.binding.is_some());
    }

    #[test]
    fn arrow_params_bind() {
        let t = tree("xs.map(x => x * 2);");
        let reads: Vec<_> =
            t.references().iter().filter(|r| r.name == "x" && r.kind == RefKind::Read).collect();
        assert_eq!(reads.len(), 1);
        assert!(reads[0].binding.is_some());
    }

    #[test]
    fn refs_of_is_the_filter_over_all_references_in_order() {
        let t = tree(
            "var a = 1, b; function f(a) { a++; b = a; return g(a, b); } \
             { let a = 2; a += b; } try { f(a); } catch (a) { a = b; } a = b = a;",
        );
        assert!(t.bindings().len() >= 4);
        for b in 0..t.bindings().len() {
            let filtered: Vec<*const Reference> =
                t.references().iter().filter(|r| r.binding == Some(b)).map(|r| r as _).collect();
            let indexed: Vec<*const Reference> = t.refs_of(b).map(|r| r as _).collect();
            assert!(!indexed.is_empty(), "binding {} has no references", b);
            assert_eq!(indexed, filtered, "binding {}", b);
        }
    }

    #[test]
    fn switch_cases_share_scope() {
        let t = tree("switch (v) { case 1: let w = 1; break; case 2: w = 2; }");
        let refs: Vec<_> = t.references().iter().filter(|r| r.name == "w").collect();
        assert!(refs.iter().all(|r| r.binding.is_some()));
    }
}
