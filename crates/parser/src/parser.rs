//! Recursive-descent parser producing the ESTree-style AST.
//!
//! Covers the ES2022-level subset the reproduction needs: all classic
//! statements, functions (incl. async/generator), arrow functions, classes
//! with fields and private (`#name`) members, template literals,
//! destructuring, spread/rest, optional chaining (`?.`), nullish
//! coalescing (`??`), logical assignment (`&&=`/`||=`/`??=`), BigInt
//! literals, ES modules (`import`/`export` declarations, dynamic
//! `import()`, `import.meta`), and automatic semicolon insertion.
//!
//! Module declarations are accepted at any statement position rather than
//! only at a module-goal top level — wild scripts mix goals freely, and the
//! detector must not reject them. [`Program::module_goal`] reports whether
//! a parse actually contained module syntax. The parser never backtracks:
//! a parenthesized group is parsed once as an expression and read as
//! arrow-function parameters when `=>` follows (the cover grammar of
//! ECMA-262's `CoverParenthesizedExpressionAndArrowParameterList`), and
//! `/` is rescanned as a regular expression whenever the parser sits at
//! an expression-start position.

use crate::error::ParseError;
use jsdetect_ast::*;
use jsdetect_guard::{AnalysisError, Budget};
use jsdetect_lexer::{Comment, Kw, Lexer, Punct, Token, TokenCounts, TokenKind};

/// Maximum AST nesting depth accepted by the parser.
///
/// Protects against stack exhaustion on pathological inputs (deeply nested
/// parentheses or arrays), which matters because the property-based tests
/// feed the parser arbitrary byte strings. Budgeted entry points use the
/// budget's own `max_ast_depth` instead.
const MAX_DEPTH: u32 = jsdetect_guard::LEGACY_MAX_DEPTH;

/// Left-deep chains (`1+1+1+…`, `f()()()`, `a.b.b.b`) are built by loops,
/// so the recursion guard never sees their nesting — yet every recursive
/// consumer of the AST (metrics, flow, drop glue) descends them one frame
/// per link. Chains therefore charge one depth unit per this many links
/// while they grow, released when the chain's loop exits. Consumer frames
/// are much smaller than parser frames, so the grain keeps legitimate
/// minified chains (hundreds of links) inside the cap while bounding the
/// worst case at `grain × max_depth` AST levels.
const CHAIN_DEPTH_GRAIN: u32 = 8;

/// Parses a complete program.
///
/// # Examples
///
/// ```
/// use jsdetect_parser::parse;
/// let prog = parse("var x = 1 + 2;").unwrap();
/// assert_eq!(prog.body.len(), 1);
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    Parser::new(src, None)?.parse_program()
}

/// Parses under a [`Budget`]: tokens and recursion depth are charged as the
/// parse runs. A blown budget surfaces as a `ParseError` here — the precise
/// typed cause stays recorded in the budget for the caller to recover via
/// `Budget::take_violation`.
pub fn parse_with_budget(src: &str, budget: &Budget) -> Result<Program, ParseError> {
    Parser::new(src, Some(budget))?.parse_program()
}

/// [`parse_with_budget`], returning the comments and the counts of the
/// tokens alongside. A `/` or `}` the parser re-lexed counts as the regex
/// or template token it became, so the counts are those of the script's
/// one token list, EOF included.
pub fn parse_with_comments_budget<'s>(
    src: &'s str,
    budget: &'s Budget,
) -> Result<(Program, Vec<Comment>, TokenCounts), ParseError> {
    let mut p = Parser::new(src, Some(budget))?;
    let prog = p.parse_program()?;
    p.counts.add(&p.cur); // EOF
    Ok((prog, p.lexer.into_comments(), p.counts))
}

struct Parser<'s> {
    lexer: Lexer<'s>,
    cur: Token,
    peeked: Option<Token>,
    /// Tokens the parse has moved past. A token is counted when it stops
    /// being `cur`, so the rescans that replace `cur` need no correction.
    counts: TokenCounts,
    /// Recursion-guard frames charged, and their limit.
    depth: u32,
    limit: u32,
    src_len: u32,
    budget: Option<&'s Budget>,
    /// The covers open around the current token, innermost last.
    covers: Vec<Cover>,
    /// How many of the next frames are owed to the innermost cover.
    owe: u8,
    /// Start of the last cover element whose frames were owed, or of the
    /// arguments of a cover's `async(…)`: a list there is in its pattern.
    pattern_at: u32,
    /// Whether the current token is in the body of a generator: only there
    /// is `yield` an expression; elsewhere it is an identifier, as in
    /// sloppy-mode code.
    in_generator: bool,
}

/// A group, `async(…)`, `async x`, or `x` before `=>`, at the start of an
/// assignment expression: parsed once, charged as the grammar it turns out
/// to be. The frames the expression grammar takes beyond a parameter list's
/// one per binding pattern are owed here until it closes.
#[derive(Default)]
struct Cover {
    start: u32,
    /// Owed frames open now.
    owed: u32,
    /// The depths reached, read as an expression and as parameters.
    expr: Reach,
    params: Reach,
    /// Set by a group closed right before a same-line `=>`: whether its
    /// expression is the `Sequence` of its elements, even of one.
    head: Option<bool>,
    /// The expression grammar's error at an arrow-only form; `expr`
    /// records nothing past it.
    provisional: Option<ParseError>,
    /// Set at a parenthesized element, a spread before a comma or a
    /// prefixed property without a body in its pattern: it binds nothing.
    refused: bool,
}

impl Cover {
    fn reach_expr(&mut self, depth: u32, pos: u32) {
        if self.provisional.is_none() {
            self.expr.push(depth, pos);
        }
    }
}

/// Running maxima of the depth over a region in token order: each a depth
/// and the first position that reached it.
#[derive(Default)]
struct Reach(Vec<(u32, u32)>);

impl Reach {
    fn push(&mut self, depth: u32, pos: u32) {
        if self.0.last().is_none_or(|&(d, _)| depth > d) {
            self.0.push((depth, pos));
        }
    }

    fn first_over(&self, limit: u32) -> Option<u32> {
        self.0.iter().find(|&&(d, _)| d > limit).map(|&(_, pos)| pos)
    }
}

impl<'s> Parser<'s> {
    fn new(src: &'s str, budget: Option<&'s Budget>) -> Result<Self, ParseError> {
        let mut lexer = match budget {
            Some(b) => Lexer::with_budget(src, b),
            None => Lexer::new(src),
        };
        let cur = lexer.next_token(false)?;
        Ok(Parser {
            lexer,
            cur,
            peeked: None,
            counts: TokenCounts::default(),
            depth: 0,
            limit: budget.map_or(MAX_DEPTH, |b| b.limits().max_ast_depth),
            src_len: src.len() as u32,
            budget,
            covers: Vec::new(),
            owe: 0,
            pattern_at: u32::MAX,
            in_generator: false,
        })
    }

    // ---- token plumbing -------------------------------------------------

    fn advance(&mut self) -> Result<(), ParseError> {
        self.counts.add(&self.cur);
        self.cur = match self.peeked.take() {
            Some(t) => t,
            None => self.lexer.next_token(false)?,
        };
        Ok(())
    }

    fn peek(&mut self) -> Result<&Token, ParseError> {
        if self.peeked.is_none() {
            self.peeked = Some(self.lexer.next_token(false)?);
        }
        Ok(self.peeked.as_ref().unwrap())
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.cur.span.start)
    }

    fn unexpected(&self, what: &str) -> ParseError {
        self.err_here(format!("unexpected {} while parsing {}", self.cur.kind, what))
    }

    fn is_punct(&self, p: Punct) -> bool {
        self.cur.is_punct(p)
    }

    fn is_kw(&self, k: Kw) -> bool {
        self.cur.is_kw(k)
    }

    fn is_ident(&self, name: &str) -> bool {
        self.cur.ident_name() == Some(name)
    }

    fn eat_punct(&mut self, p: Punct) -> Result<bool, ParseError> {
        if self.is_punct(p) {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        if self.eat_punct(p)? {
            Ok(())
        } else {
            Err(self.err_here(format!("expected `{}`, found {}", p.as_str(), self.cur.kind)))
        }
    }

    fn expect_kw(&mut self, k: Kw) -> Result<(), ParseError> {
        if self.is_kw(k) {
            self.advance()
        } else {
            Err(self.err_here(format!("expected `{}`, found {}", k.as_str(), self.cur.kind)))
        }
    }

    /// Rescans the current token as a regex if it is `/` or `/=`; called at
    /// every expression-start position.
    fn rescan_regex_if_slash(&mut self) -> Result<(), ParseError> {
        if matches!(
            self.cur.kind,
            TokenKind::Punct(Punct::Slash) | TokenKind::Punct(Punct::SlashEq)
        ) && self.peeked.is_none()
        {
            self.cur = self.lexer.rescan_regex(self.cur.span.start, self.cur.newline_before)?;
        }
        Ok(())
    }

    /// Enters a recursion-guard frame: owed to the innermost cover while
    /// `owe` lasts (returns `true`), else charged.
    fn enter(&mut self) -> Result<bool, ParseError> {
        if self.owe == 0 {
            self.charge()?;
            return Ok(false);
        }
        self.owe -= 1;
        let (depth, pos) = (self.depth, self.cur.span.start);
        let cover = self.covers.last_mut().expect("frames are owed to a cover");
        cover.owed += 1;
        cover.reach_expr(depth + cover.owed, pos);
        Ok(true)
    }

    fn leave(&mut self, owed: bool) {
        match owed {
            true => self.covers.last_mut().expect("owed to a cover").owed -= 1,
            false => self.depth -= 1,
        }
    }

    /// Charges a frame; past the limit every reading of the open covers fails.
    fn charge(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        let pos = self.cur.span.start;
        if let Some(cover) = self.covers.last_mut() {
            cover.reach_expr(self.depth + cover.owed, pos);
            cover.params.push(self.depth, pos);
        }
        match self.depth > self.limit {
            true => Err(self.depth_error(pos)),
            false => Ok(()),
        }
    }

    fn depth_error(&self, pos: u32) -> ParseError {
        let msg = match self.budget {
            Some(_) => AnalysisError::AstDepthExceeded { limit: self.limit }.to_string(),
            None => "nesting too deep".into(),
        };
        ParseError::new(msg, pos)
    }

    /// Charges one more link of an iteratively-built chain against the
    /// depth budget (see [`CHAIN_DEPTH_GRAIN`]). Call once per wrap inside
    /// a chain loop; pair with [`Parser::chain_release`] on every exit.
    fn chain_link(&mut self, links: &mut u32) -> Result<(), ParseError> {
        *links += 1;
        if links.is_multiple_of(CHAIN_DEPTH_GRAIN) {
            self.charge()?;
        }
        Ok(())
    }

    /// Releases the depth charged by `links` chain links. Exact for any
    /// final `links` value: the charge is `links / GRAIN` whether the loop
    /// finished or errored mid-chain.
    fn chain_release(&mut self, links: u32) {
        self.depth -= links / CHAIN_DEPTH_GRAIN;
    }

    /// Automatic semicolon insertion at the end of a statement.
    fn consume_semi(&mut self, what: &str) -> Result<(), ParseError> {
        if self.eat_punct(Punct::Semi)? {
            return Ok(());
        }
        if self.is_punct(Punct::RBrace) || self.cur.is_eof() || self.cur.newline_before {
            return Ok(());
        }
        Err(self.err_here(format!("expected `;` after {}, found {}", what, self.cur.kind)))
    }

    // ---- program --------------------------------------------------------

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        let mut body = Vec::new();
        while !self.cur.is_eof() {
            // The typed `AstDepthExceeded` is recorded once the error is
            // final: in a cover an earlier error may take its place.
            let stmt = self.parse_stmt().inspect_err(|e| {
                if let Some(budget) = self.budget.filter(|_| *e == self.depth_error(e.pos)) {
                    let _ = budget.check_depth(u32::MAX);
                }
            });
            body.push(stmt?);
        }
        Ok(Program { body, span: Span::new(0, self.src_len) })
    }

    // ---- statements -----------------------------------------------------

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        let g = self.enter()?;
        let r = self.parse_stmt_inner();
        self.leave(g);
        r
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        match &self.cur.kind {
            TokenKind::Punct(Punct::LBrace) => self.parse_block(),
            TokenKind::Punct(Punct::Semi) => {
                let span = self.cur.span;
                self.advance()?;
                Ok(Stmt::Empty { span })
            }
            TokenKind::Keyword(kw) => match kw {
                Kw::Var => self.parse_var_stmt(VarKind::Var),
                Kw::Const => self.parse_var_stmt(VarKind::Const),
                Kw::Function => {
                    let f = self.parse_function(false)?;
                    Ok(Stmt::FunctionDecl(f))
                }
                Kw::Class => {
                    let c = self.parse_class()?;
                    Ok(Stmt::ClassDecl(c))
                }
                Kw::If => self.parse_if(),
                Kw::For => self.parse_for(),
                Kw::While => self.parse_while(),
                Kw::Do => self.parse_do_while(),
                Kw::Switch => self.parse_switch(),
                Kw::Try => self.parse_try(),
                Kw::Throw => self.parse_throw(),
                Kw::Return => self.parse_return(),
                Kw::Break => self.parse_break_continue(true),
                Kw::Continue => self.parse_break_continue(false),
                Kw::Debugger => {
                    let span = self.cur.span;
                    self.advance()?;
                    self.consume_semi("debugger statement")?;
                    Ok(Stmt::Debugger { span })
                }
                Kw::With => self.parse_with(),
                _ => self.parse_expr_stmt(start),
            },
            TokenKind::Ident(_) => {
                let name = self.cur.ident_atom().unwrap_or_default();
                // `let` declaration (contextual), `async function`, labels.
                if name == "let" {
                    let next = self.peek()?;
                    let starts_binding = matches!(&next.kind, TokenKind::Ident(_))
                        || next.is_punct(Punct::LBracket)
                        || next.is_punct(Punct::LBrace)
                        || matches!(&next.kind, TokenKind::Keyword(Kw::Yield));
                    if starts_binding {
                        return self.parse_var_stmt(VarKind::Let);
                    }
                } else if name == "async" {
                    let next = self.peek()?;
                    if next.is_kw(Kw::Function) && !next.newline_before {
                        self.advance()?; // async
                        let mut f = self.parse_function(false)?;
                        f.is_async = true;
                        return Ok(Stmt::FunctionDecl(f));
                    }
                } else if name == "import" {
                    // Declaration unless it is the expression form
                    // `import(...)` or `import.meta`, which fall through
                    // to the expression-statement path.
                    let next = self.peek()?;
                    if !next.is_punct(Punct::LParen) && !next.is_punct(Punct::Dot) {
                        return self.parse_import_decl();
                    }
                } else if name == "export" {
                    let next = self.peek()?;
                    let starts_export = next.is_punct(Punct::LBrace)
                        || next.is_punct(Punct::Star)
                        || matches!(
                            &next.kind,
                            TokenKind::Keyword(
                                Kw::Var | Kw::Const | Kw::Function | Kw::Class | Kw::Default
                            )
                        )
                        || matches!(next.ident_name(), Some("let" | "async"));
                    if starts_export {
                        return self.parse_export_decl();
                    }
                }
                // Label: `ident :`
                if self.peek()?.is_punct(Punct::Colon) {
                    let label = Ident { name, span: self.cur.span };
                    self.advance()?; // ident
                    self.advance()?; // :
                    let body = self.parse_stmt()?;
                    let span = Span::new(start, body.span().end);
                    return Ok(Stmt::Labeled { label, body: Box::new(body), span });
                }
                self.parse_expr_stmt(start)
            }
            _ => self.parse_expr_stmt(start),
        }
    }

    fn parse_block(&mut self) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        self.expect_punct(Punct::LBrace)?;
        let mut body = Vec::new();
        while !self.is_punct(Punct::RBrace) {
            if self.cur.is_eof() {
                return Err(self.err_here("unterminated block"));
            }
            body.push(self.parse_stmt()?);
        }
        let end = self.cur.span.end;
        self.advance()?;
        Ok(Stmt::Block { body, span: Span::new(start, end) })
    }

    fn parse_var_stmt(&mut self, kind: VarKind) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        self.advance()?; // var/let/const
        let decls = self.parse_var_declarators(kind, true)?;
        let end = decls.last().map(|d| d.span.end).unwrap_or(start);
        self.consume_semi("variable declaration")?;
        Ok(Stmt::VarDecl { kind, decls, span: Span::new(start, end) })
    }

    fn parse_var_declarators(
        &mut self,
        kind: VarKind,
        in_allowed: bool,
    ) -> Result<Vec<VarDeclarator>, ParseError> {
        let mut decls = Vec::new();
        loop {
            let id = self.parse_binding_pat()?;
            let init = if self.eat_punct(Punct::Eq)? {
                Some(self.parse_assignment(in_allowed)?)
            } else {
                if kind == VarKind::Const && !matches!(id, Pat::Ident(_)) {
                    // Destructuring const without init is invalid; identifier
                    // const without init tolerated (found in the wild).
                }
                None
            };
            let span = Span::new(
                id.span().start,
                init.as_ref().map(|e| e.span().end).unwrap_or(id.span().end),
            );
            decls.push(VarDeclarator { id, init, span });
            if !self.eat_punct(Punct::Comma)? {
                break;
            }
        }
        Ok(decls)
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        self.expect_kw(Kw::If)?;
        self.expect_punct(Punct::LParen)?;
        let test = self.parse_expr(true)?;
        self.expect_punct(Punct::RParen)?;
        let consequent = Box::new(self.parse_stmt()?);
        let alternate = if self.is_kw(Kw::Else) {
            self.advance()?;
            Some(Box::new(self.parse_stmt()?))
        } else {
            None
        };
        let end = alternate.as_ref().map(|s| s.span().end).unwrap_or_else(|| consequent.span().end);
        Ok(Stmt::If { test, consequent, alternate, span: Span::new(start, end) })
    }

    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        self.expect_kw(Kw::For)?;
        // `for await (x of iterable)` — async iteration (ES2018). The
        // await marker does not change the AST shape we produce.
        if self.is_ident("await") {
            self.advance()?;
        }
        self.expect_punct(Punct::LParen)?;

        // Empty init: `for (;;)`.
        if self.eat_punct(Punct::Semi)? {
            return self.parse_for_rest(start, None);
        }

        // Declaration-led: `for (var/let/const ...`.
        let decl_kind = if self.is_kw(Kw::Var) {
            Some(VarKind::Var)
        } else if self.is_kw(Kw::Const) {
            Some(VarKind::Const)
        } else if self.is_ident("let") {
            let next = self.peek()?;
            let binding = matches!(&next.kind, TokenKind::Ident(_))
                || next.is_punct(Punct::LBracket)
                || next.is_punct(Punct::LBrace);
            if binding {
                Some(VarKind::Let)
            } else {
                None
            }
        } else {
            None
        };

        if let Some(kind) = decl_kind {
            self.advance()?; // var/let/const
            let pat = self.parse_binding_pat()?;
            if self.is_kw(Kw::In) {
                self.advance()?;
                let object = self.parse_expr(true)?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.parse_stmt()?);
                let span = Span::new(start, body.span().end);
                return Ok(Stmt::ForIn {
                    target: ForTarget::Var { kind, pat },
                    object,
                    body,
                    span,
                });
            }
            if self.is_ident("of") {
                self.advance()?;
                let iterable = self.parse_assignment(true)?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.parse_stmt()?);
                let span = Span::new(start, body.span().end);
                return Ok(Stmt::ForOf {
                    target: ForTarget::Var { kind, pat },
                    iterable,
                    body,
                    span,
                });
            }
            // Classic for with declaration init.
            let mut decls = Vec::new();
            let init =
                if self.eat_punct(Punct::Eq)? { Some(self.parse_assignment(false)?) } else { None };
            let dspan = Span::new(
                pat.span().start,
                init.as_ref().map(|e| e.span().end).unwrap_or(pat.span().end),
            );
            decls.push(VarDeclarator { id: pat, init, span: dspan });
            if self.eat_punct(Punct::Comma)? {
                decls.extend(self.parse_var_declarators(kind, false)?);
            }
            self.expect_punct(Punct::Semi)?;
            return self.parse_for_rest(start, Some(ForInit::Var { kind, decls }));
        }

        // Expression-led.
        let first = self.parse_expr(false)?;
        if self.is_kw(Kw::In) {
            self.advance()?;
            let target = ForTarget::Pat(expr_to_pat(first, false)?);
            let object = self.parse_expr(true)?;
            self.expect_punct(Punct::RParen)?;
            let body = Box::new(self.parse_stmt()?);
            let span = Span::new(start, body.span().end);
            return Ok(Stmt::ForIn { target, object, body, span });
        }
        if self.is_ident("of") {
            self.advance()?;
            let target = ForTarget::Pat(expr_to_pat(first, false)?);
            let iterable = self.parse_assignment(true)?;
            self.expect_punct(Punct::RParen)?;
            let body = Box::new(self.parse_stmt()?);
            let span = Span::new(start, body.span().end);
            return Ok(Stmt::ForOf { target, iterable, body, span });
        }
        self.expect_punct(Punct::Semi)?;
        self.parse_for_rest(start, Some(ForInit::Expr(first)))
    }

    fn parse_for_rest(&mut self, start: u32, init: Option<ForInit>) -> Result<Stmt, ParseError> {
        let test = if self.is_punct(Punct::Semi) { None } else { Some(self.parse_expr(true)?) };
        self.expect_punct(Punct::Semi)?;
        let update = if self.is_punct(Punct::RParen) { None } else { Some(self.parse_expr(true)?) };
        self.expect_punct(Punct::RParen)?;
        let body = Box::new(self.parse_stmt()?);
        let span = Span::new(start, body.span().end);
        Ok(Stmt::For { init, test, update, body, span })
    }

    fn parse_while(&mut self) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        self.expect_kw(Kw::While)?;
        self.expect_punct(Punct::LParen)?;
        let test = self.parse_expr(true)?;
        self.expect_punct(Punct::RParen)?;
        let body = Box::new(self.parse_stmt()?);
        let span = Span::new(start, body.span().end);
        Ok(Stmt::While { test, body, span })
    }

    fn parse_do_while(&mut self) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        self.expect_kw(Kw::Do)?;
        let body = Box::new(self.parse_stmt()?);
        self.expect_kw(Kw::While)?;
        self.expect_punct(Punct::LParen)?;
        let test = self.parse_expr(true)?;
        let end = self.cur.span.end;
        self.expect_punct(Punct::RParen)?;
        // ASI: `do ... while (x)` needs no semicolon.
        let _ = self.eat_punct(Punct::Semi)?;
        Ok(Stmt::DoWhile { body, test, span: Span::new(start, end) })
    }

    fn parse_switch(&mut self) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        self.expect_kw(Kw::Switch)?;
        self.expect_punct(Punct::LParen)?;
        let discriminant = self.parse_expr(true)?;
        self.expect_punct(Punct::RParen)?;
        self.expect_punct(Punct::LBrace)?;
        let mut cases = Vec::new();
        let mut seen_default = false;
        while !self.is_punct(Punct::RBrace) {
            let cstart = self.cur.span.start;
            let test = if self.is_kw(Kw::Case) {
                self.advance()?;
                Some(self.parse_expr(true)?)
            } else if self.is_kw(Kw::Default) {
                if seen_default {
                    return Err(self.err_here("duplicate `default` clause"));
                }
                seen_default = true;
                self.advance()?;
                None
            } else {
                return Err(self.unexpected("switch case"));
            };
            self.expect_punct(Punct::Colon)?;
            let mut body = Vec::new();
            while !self.is_punct(Punct::RBrace) && !self.is_kw(Kw::Case) && !self.is_kw(Kw::Default)
            {
                if self.cur.is_eof() {
                    return Err(self.err_here("unterminated switch"));
                }
                body.push(self.parse_stmt()?);
            }
            let cend = body.last().map(|s| s.span().end).unwrap_or(cstart);
            cases.push(SwitchCase { test, body, span: Span::new(cstart, cend) });
        }
        let end = self.cur.span.end;
        self.advance()?;
        Ok(Stmt::Switch { discriminant, cases, span: Span::new(start, end) })
    }

    fn parse_try(&mut self) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        self.expect_kw(Kw::Try)?;
        let block = match self.parse_block()? {
            Stmt::Block { body, .. } => body,
            _ => unreachable!(),
        };
        let mut handler = None;
        if self.is_kw(Kw::Catch) {
            let cstart = self.cur.span.start;
            self.advance()?;
            let param = if self.eat_punct(Punct::LParen)? {
                let p = self.parse_binding_pat()?;
                self.expect_punct(Punct::RParen)?;
                Some(p)
            } else {
                None
            };
            let body = match self.parse_block()? {
                Stmt::Block { body, span } => {
                    handler = Some(CatchClause {
                        param,
                        body: Vec::new(),
                        span: Span::new(cstart, span.end),
                    });
                    body
                }
                _ => unreachable!(),
            };
            if let Some(h) = &mut handler {
                h.body = body;
            }
        }
        let finalizer = if self.is_kw(Kw::Finally) {
            self.advance()?;
            match self.parse_block()? {
                Stmt::Block { body, .. } => Some(body),
                _ => unreachable!(),
            }
        } else {
            None
        };
        if handler.is_none() && finalizer.is_none() {
            return Err(self.err_here("`try` requires `catch` or `finally`"));
        }
        let end = self.cur.span.start;
        Ok(Stmt::Try { block, handler, finalizer, span: Span::new(start, end) })
    }

    fn parse_throw(&mut self) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        self.expect_kw(Kw::Throw)?;
        if self.cur.newline_before {
            return Err(self.err_here("newline not allowed after `throw`"));
        }
        let arg = self.parse_expr(true)?;
        let end = arg.span().end;
        self.consume_semi("throw statement")?;
        Ok(Stmt::Throw { arg, span: Span::new(start, end) })
    }

    fn parse_return(&mut self) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        let mut end = self.cur.span.end;
        self.expect_kw(Kw::Return)?;
        let arg = if self.is_punct(Punct::Semi)
            || self.is_punct(Punct::RBrace)
            || self.cur.is_eof()
            || self.cur.newline_before
        {
            None
        } else {
            let e = self.parse_expr(true)?;
            end = e.span().end;
            Some(e)
        };
        self.consume_semi("return statement")?;
        Ok(Stmt::Return { arg, span: Span::new(start, end) })
    }

    fn parse_break_continue(&mut self, is_break: bool) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        let mut end = self.cur.span.end;
        self.advance()?;
        let label = if let TokenKind::Ident(name) = &self.cur.kind {
            if self.cur.newline_before {
                None
            } else {
                let id = Ident { name: *name, span: self.cur.span };
                end = self.cur.span.end;
                self.advance()?;
                Some(id)
            }
        } else {
            None
        };
        self.consume_semi(if is_break { "break statement" } else { "continue statement" })?;
        let span = Span::new(start, end);
        Ok(if is_break { Stmt::Break { label, span } } else { Stmt::Continue { label, span } })
    }

    fn parse_with(&mut self) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        self.expect_kw(Kw::With)?;
        self.expect_punct(Punct::LParen)?;
        let object = self.parse_expr(true)?;
        self.expect_punct(Punct::RParen)?;
        let body = Box::new(self.parse_stmt()?);
        let span = Span::new(start, body.span().end);
        Ok(Stmt::With { object, body, span })
    }

    fn parse_expr_stmt(&mut self, start: u32) -> Result<Stmt, ParseError> {
        // `function`/`class` cannot start an expression statement.
        let expr = self.parse_expr(true)?;
        let end = expr.span().end;
        self.consume_semi("expression statement")?;
        Ok(Stmt::Expr { expr, span: Span::new(start, end) })
    }

    // ---- modules ---------------------------------------------------------

    /// Parses an `import` declaration. The caller has already ruled out the
    /// expression forms (`import(...)`, `import.meta`) by lookahead.
    fn parse_import_decl(&mut self) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        self.advance()?; // import
                         // Bare side-effect import: `import "mod";`
        if matches!(self.cur.kind, TokenKind::Str(_)) {
            let source = self.parse_module_source()?;
            let end = source.span.end;
            self.consume_semi("import declaration")?;
            return Ok(Stmt::Import {
                specifiers: Vec::new(),
                source,
                span: Span::new(start, end),
            });
        }
        let mut specifiers = Vec::new();
        if let TokenKind::Ident(name) = &self.cur.kind {
            let local = Ident { name: *name, span: self.cur.span };
            self.advance()?;
            specifiers.push(ImportSpecifier::Default { local });
            if self.eat_punct(Punct::Comma)? {
                self.parse_import_clause_tail(&mut specifiers)?;
            }
        } else {
            self.parse_import_clause_tail(&mut specifiers)?;
        }
        if !self.is_ident("from") {
            return Err(self.err_here(format!(
                "expected `from` in import declaration, found {}",
                self.cur.kind
            )));
        }
        self.advance()?; // from
        let source = self.parse_module_source()?;
        let end = source.span.end;
        self.consume_semi("import declaration")?;
        Ok(Stmt::Import { specifiers, source, span: Span::new(start, end) })
    }

    /// Parses the namespace (`* as ns`) or named (`{a, b as c}`) part of an
    /// import clause, after any default binding and its comma.
    fn parse_import_clause_tail(
        &mut self,
        specifiers: &mut Vec<ImportSpecifier>,
    ) -> Result<(), ParseError> {
        if self.eat_punct(Punct::Star)? {
            if !self.is_ident("as") {
                return Err(self.err_here(format!(
                    "expected `as` in namespace import, found {}",
                    self.cur.kind
                )));
            }
            self.advance()?; // as
            let local = self.parse_binding_ident("namespace import binding")?;
            specifiers.push(ImportSpecifier::Namespace { local });
            return Ok(());
        }
        self.expect_punct(Punct::LBrace)?;
        while !self.is_punct(Punct::RBrace) {
            let (imported, ispan) = self.parse_module_export_name()?;
            let local = if self.is_ident("as") {
                self.advance()?;
                self.parse_binding_ident("import binding")?
            } else {
                Ident { name: imported, span: ispan }
            };
            specifiers.push(ImportSpecifier::Named { imported, local });
            if !self.eat_punct(Punct::Comma)? {
                break;
            }
        }
        self.expect_punct(Punct::RBrace)?;
        Ok(())
    }

    /// Parses an `export` declaration: `export * [as ns] from`, `export
    /// default <expr>`, `export {specs} [from]`, or `export <declaration>`.
    fn parse_export_decl(&mut self) -> Result<Stmt, ParseError> {
        let start = self.cur.span.start;
        self.advance()?; // export

        if self.eat_punct(Punct::Star)? {
            let exported = if self.is_ident("as") {
                self.advance()?;
                let (name, span) = self.parse_module_export_name()?;
                Some(Ident { name, span })
            } else {
                None
            };
            if !self.is_ident("from") {
                return Err(self.err_here(format!(
                    "expected `from` in export declaration, found {}",
                    self.cur.kind
                )));
            }
            self.advance()?; // from
            let source = self.parse_module_source()?;
            let end = source.span.end;
            self.consume_semi("export declaration")?;
            return Ok(Stmt::ExportAll { exported, source, span: Span::new(start, end) });
        }

        if self.is_kw(Kw::Default) {
            self.advance()?;
            // `function`/`class` parse as (possibly anonymous) expressions
            // here; the printer knows not to terminate them with `;`.
            let expr = self.parse_assignment(true)?;
            let end = expr.span().end;
            self.consume_semi("export declaration")?;
            return Ok(Stmt::ExportDefault { expr, span: Span::new(start, end) });
        }

        if self.is_punct(Punct::LBrace) {
            self.advance()?;
            let mut specifiers = Vec::new();
            while !self.is_punct(Punct::RBrace) {
                let (lname, lspan) = self.parse_module_export_name()?;
                let exported = if self.is_ident("as") {
                    self.advance()?;
                    let (ename, _) = self.parse_module_export_name()?;
                    ename
                } else {
                    lname
                };
                specifiers
                    .push(ExportSpecifier { local: Ident { name: lname, span: lspan }, exported });
                if !self.eat_punct(Punct::Comma)? {
                    break;
                }
            }
            let mut end = self.cur.span.end;
            self.expect_punct(Punct::RBrace)?;
            let source = if self.is_ident("from") {
                self.advance()?;
                let s = self.parse_module_source()?;
                end = s.span.end;
                Some(s)
            } else {
                None
            };
            self.consume_semi("export declaration")?;
            return Ok(Stmt::ExportNamed {
                decl: None,
                specifiers,
                source,
                span: Span::new(start, end),
            });
        }

        // `export var/let/const/function/class/async function ...`
        let decl = self.parse_stmt()?;
        let end = decl.span().end;
        Ok(Stmt::ExportNamed {
            decl: Some(Box::new(decl)),
            specifiers: Vec::new(),
            source: None,
            span: Span::new(start, end),
        })
    }

    /// A module specifier string literal (`from "mod"`, `import "mod"`).
    fn parse_module_source(&mut self) -> Result<Lit, ParseError> {
        match &self.cur.kind {
            TokenKind::Str(s) => {
                let lit = Lit { value: LitValue::Str(*s), raw: Atom::empty(), span: self.cur.span };
                self.advance()?;
                Ok(lit)
            }
            _ => Err(self.unexpected("module specifier")),
        }
    }

    /// An import/export specifier name. Keywords are valid module export
    /// names (`import { default as d }`), so both token kinds are accepted.
    fn parse_module_export_name(&mut self) -> Result<(Atom, Span), ParseError> {
        let span = self.cur.span;
        let name = match &self.cur.kind {
            TokenKind::Ident(n) => *n,
            TokenKind::Keyword(kw) => kw.atom(),
            _ => return Err(self.unexpected("import/export specifier")),
        };
        self.advance()?;
        Ok((name, span))
    }

    /// A plain identifier binding (no destructuring), e.g. an import local.
    fn parse_binding_ident(&mut self, what: &str) -> Result<Ident, ParseError> {
        match &self.cur.kind {
            TokenKind::Ident(n) => {
                let id = Ident { name: *n, span: self.cur.span };
                self.advance()?;
                Ok(id)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    // ---- functions & classes -------------------------------------------

    /// Parses `function [name](params) { body }`; `expr_ctx` allows an
    /// anonymous function.
    fn parse_function(&mut self, expr_ctx: bool) -> Result<Function, ParseError> {
        let start = self.cur.span.start;
        self.expect_kw(Kw::Function)?;
        let is_generator = self.eat_punct(Punct::Star)?;
        let id = if let TokenKind::Ident(name) = &self.cur.kind {
            let id = Ident { name: *name, span: self.cur.span };
            self.advance()?;
            Some(id)
        } else if !expr_ctx {
            return Err(self.err_here("function declaration requires a name"));
        } else {
            None
        };
        let params = self.parse_params()?;
        let (body, end) = self.parse_fn_body(is_generator)?;
        Ok(Function {
            id,
            params,
            body,
            is_generator,
            is_async: false,
            span: Span::new(start, end),
        })
    }

    fn parse_params(&mut self) -> Result<Vec<Pat>, ParseError> {
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        while !self.is_punct(Punct::RParen) {
            if self.is_punct(Punct::Ellipsis) {
                params.push(self.parse_rest_pat()?);
                break;
            }
            let p = self.parse_binding_pat()?;
            params.push(self.parse_default(p)?);
            if !self.eat_punct(Punct::Comma)? {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok(params)
    }

    /// A function body, a generator's if `generator`. A parse error ends
    /// the parse, so only success restores the outer context.
    fn parse_fn_body(&mut self, generator: bool) -> Result<(Vec<Stmt>, u32), ParseError> {
        let outer = std::mem::replace(&mut self.in_generator, generator);
        let Stmt::Block { body, span } = self.parse_block()? else { unreachable!() };
        self.in_generator = outer;
        Ok((body, span.end))
    }

    fn parse_class(&mut self) -> Result<Class, ParseError> {
        let start = self.cur.span.start;
        self.expect_kw(Kw::Class)?;
        let id = if let TokenKind::Ident(name) = &self.cur.kind {
            let id = Ident { name: *name, span: self.cur.span };
            self.advance()?;
            Some(id)
        } else {
            None
        };
        let super_class = if self.is_kw(Kw::Extends) {
            self.advance()?;
            Some(Box::new(self.parse_lhs_expr()?))
        } else {
            None
        };
        self.expect_punct(Punct::LBrace)?;
        let mut body = Vec::new();
        while !self.is_punct(Punct::RBrace) {
            if self.cur.is_eof() {
                return Err(self.err_here("unterminated class body"));
            }
            if self.eat_punct(Punct::Semi)? {
                continue;
            }
            body.push(self.parse_class_member()?);
        }
        let end = self.cur.span.end;
        self.advance()?;
        Ok(Class { id, super_class, body, span: Span::new(start, end) })
    }

    fn parse_class_member(&mut self) -> Result<ClassMember, ParseError> {
        let start = self.cur.span.start;
        let mut is_static = false;
        if self.is_ident("static") && !self.peek()?.is_punct(Punct::LParen) {
            is_static = true;
            self.advance()?;
        }
        let mut is_async = false;
        let mut is_generator = false;
        let mut kind = MethodKind::Method;

        if self.is_ident("async")
            && !self.peek()?.is_punct(Punct::LParen)
            && !self.peek()?.is_punct(Punct::Eq)
            && !self.peek()?.newline_before
        {
            is_async = true;
            self.advance()?;
        }
        if self.is_punct(Punct::Star) {
            is_generator = true;
            self.advance()?;
        }
        if (self.is_ident("get") || self.is_ident("set"))
            && !self.peek()?.is_punct(Punct::LParen)
            && !self.peek()?.is_punct(Punct::Eq)
        {
            kind = if self.is_ident("get") { MethodKind::Get } else { MethodKind::Set };
            self.advance()?;
        }

        let (key, computed) = self.parse_prop_key()?;

        if self.is_punct(Punct::LParen) {
            if kind == MethodKind::Method
                && !is_static
                && key.static_name().as_deref() == Some("constructor")
            {
                kind = MethodKind::Constructor;
            }
            let params = self.parse_params()?;
            let (body, end) = self.parse_fn_body(is_generator)?;
            let f = Function {
                id: None,
                params,
                body,
                is_generator,
                is_async,
                span: Span::new(start, end),
            };
            Ok(ClassMember {
                key,
                value: ClassMemberValue::Method(f),
                kind,
                is_static,
                computed,
                span: Span::new(start, end),
            })
        } else {
            // Field: `name = value;` or `name;`
            let value =
                if self.eat_punct(Punct::Eq)? { Some(self.parse_assignment(true)?) } else { None };
            let end = value.as_ref().map(|v| v.span().end).unwrap_or(self.cur.span.start);
            self.consume_semi("class field")?;
            Ok(ClassMember {
                key,
                value: ClassMemberValue::Field(value),
                kind: MethodKind::Field,
                is_static,
                computed,
                span: Span::new(start, end),
            })
        }
    }

    /// Parses a property key (identifier, keyword-as-name, string/number
    /// literal, or computed `[expr]`). Returns `(key, computed)`.
    fn parse_prop_key(&mut self) -> Result<(PropKey, bool), ParseError> {
        match &self.cur.kind {
            TokenKind::Ident(name) => {
                let id = Ident { name: *name, span: self.cur.span };
                self.advance()?;
                Ok((PropKey::Ident(id), false))
            }
            TokenKind::Keyword(kw) => {
                // Keywords are valid property names: `{new: 1}`, `obj.class`.
                let id = Ident { name: kw.atom(), span: self.cur.span };
                self.advance()?;
                Ok((PropKey::Ident(id), false))
            }
            TokenKind::Str(_) | TokenKind::Num(_) | TokenKind::BigInt(_) => {
                let Expr::Lit(lit) = self.parse_primary()? else { unreachable!() };
                Ok((PropKey::Lit(lit), false))
            }
            TokenKind::PrivateName(n) => {
                let id = Ident { name: *n, span: self.cur.span };
                self.advance()?;
                Ok((PropKey::Private(id), false))
            }
            TokenKind::Punct(Punct::LBracket) => {
                self.advance()?;
                let e = self.parse_assignment(true)?;
                self.expect_punct(Punct::RBracket)?;
                Ok((PropKey::Computed(Box::new(e)), true))
            }
            _ => Err(self.unexpected("property key")),
        }
    }

    // ---- expressions -----------------------------------------------------

    /// Parses a (possibly comma-separated sequence) expression.
    fn parse_expr(&mut self, in_allowed: bool) -> Result<Expr, ParseError> {
        let g = self.enter()?;
        let r = self.parse_expr_inner(in_allowed);
        self.leave(g);
        r
    }

    fn parse_expr_inner(&mut self, in_allowed: bool) -> Result<Expr, ParseError> {
        let first = self.parse_assignment(in_allowed)?;
        if !self.is_punct(Punct::Comma) {
            return Ok(first);
        }
        let start = first.span().start;
        let mut exprs = vec![first];
        while self.eat_punct(Punct::Comma)? {
            exprs.push(self.parse_assignment(in_allowed)?);
        }
        let end = exprs.last().unwrap().span().end;
        Ok(Expr::Sequence { exprs, span: Span::new(start, end) })
    }

    /// Parses an assignment-level expression (includes arrows, ternary,
    /// yield).
    fn parse_assignment(&mut self, in_allowed: bool) -> Result<Expr, ParseError> {
        let g = self.enter()?;
        let r = self.parse_assignment_inner(in_allowed);
        self.leave(g);
        r
    }

    fn parse_assignment_inner(&mut self, in_allowed: bool) -> Result<Expr, ParseError> {
        self.rescan_regex_if_slash()?;

        // yield-expression.
        if self.in_generator && self.is_kw(Kw::Yield) {
            let start = self.cur.span.start;
            if self.pattern_at == start {
                // A bare `yield` element binds a name: the parameter
                // grammar's frame for it, on that reading only.
                let cover = self.covers.last_mut().expect("an element is in a cover");
                cover.params.push(self.depth + 1, start);
            }
            self.owe = 0;
            let mut end = self.cur.span.end;
            self.advance()?;
            let delegate = if !self.cur.newline_before && self.is_punct(Punct::Star) {
                self.advance()?;
                true
            } else {
                false
            };
            let arg = if self.cur.newline_before
                || self.is_punct(Punct::Semi)
                || self.is_punct(Punct::RParen)
                || self.is_punct(Punct::RBrace)
                || self.is_punct(Punct::RBracket)
                || self.is_punct(Punct::Comma)
                || self.is_punct(Punct::Colon)
                || self.cur.is_eof()
            {
                None
            } else {
                let e = self.parse_assignment(in_allowed)?;
                end = e.span().end;
                Some(Box::new(e))
            };
            return Ok(Expr::Yield { arg, delegate, span: Span::new(start, end) });
        }

        // Arrow functions: a cover parses as an expression and is read as
        // arrow parameters when `=>` follows.
        let start = self.cur.span.start;
        let covered = self.opens_cover()?;
        if covered {
            self.covers.push(Cover { start, ..Cover::default() });
            // The binary, unary and left-hand-side frames down to it.
            self.owe = 3;
        }
        let lhs = self.parse_conditional(in_allowed);
        let lhs = match covered {
            true => match self.close_cover(start, lhs)? {
                (arrow, true) => return Ok(arrow),
                (lhs, false) => lhs,
            },
            false => lhs?,
        };

        // Assignment operators.
        let op = match &self.cur.kind {
            TokenKind::Punct(p) => assign_op_of(*p),
            _ => None,
        };
        if let Some(op) = op {
            let target = expr_to_pat(lhs, false)?;
            self.advance()?;
            let value = self.parse_assignment(in_allowed)?;
            let span = Span::new(target.span().start, value.span().end);
            return Ok(Expr::Assign { op, target: Box::new(target), value: Box::new(value), span });
        }
        Ok(lhs)
    }

    /// Whether the current token opens a [`Cover`]: `(`, `async` followed on
    /// its line by `(` or an identifier, or any identifier (`async` too) by
    /// `=>`.
    fn opens_cover(&mut self) -> Result<bool, ParseError> {
        let TokenKind::Ident(name) = self.cur.kind else {
            return Ok(self.is_punct(Punct::LParen));
        };
        let next = *self.peek()?;
        let arrow = next.is_punct(Punct::Arrow);
        if next.newline_before || name != "async" || arrow {
            return Ok(!next.newline_before && arrow);
        }
        if next.is_punct(Punct::LParen) {
            // The arguments of `async(…)` are the cover's elements.
            self.pattern_at = next.span.start;
        }
        Ok(next.is_punct(Punct::LParen) || matches!(next.kind, TokenKind::Ident(_)))
    }

    /// Closes the cover opened at `start` on its expression `lhs`: the
    /// arrow function it heads and `true`, or `lhs` and `false`.
    fn close_cover(
        &mut self,
        start: u32,
        lhs: Result<Expr, ParseError>,
    ) -> Result<(Expr, bool), ParseError> {
        let cover = self.covers.pop().expect("a cover is open");
        self.owe = 0;
        let (is_async, lhs) = lhs
            .and_then(|lhs| Ok((self.cover_arrow(&cover, &lhs)?, lhs)))
            .map_err(|e| self.cover_error(&cover, Some(e)))?;
        self.settle(&cover, is_async.is_some())?;
        let Some(is_async) = is_async else {
            return Ok((lhs, false));
        };
        // A head that binds is a list group's `Sequence`, `async(…)`, the
        // identifier after `async`, or a lone element or identifier.
        let elems = match lhs {
            Expr::Sequence { exprs, .. } if cover.head == Some(true) => exprs,
            Expr::Call { args, .. } if is_async => args,
            Expr::Ident(_) if is_async => {
                let TokenKind::Ident(name) = self.cur.kind else { unreachable!() };
                let param = Expr::Ident(Ident { name, span: self.cur.span });
                self.advance()?;
                vec![param]
            }
            e => vec![e],
        };
        let params = elems.into_iter().map(|e| expr_to_pat(e, true)).collect::<Result<_, _>>()?;
        self.advance()?; // =>
        let (body, end) = match self.is_punct(Punct::LBrace) {
            true => self.parse_fn_body(false).map(|(body, end)| (ArrowBody::Block(body), end))?,
            false => {
                // An arrow body is never a generator's, even inside one.
                let outer = std::mem::replace(&mut self.in_generator, false);
                let e = self.parse_assignment(true)?;
                self.in_generator = outer;
                let end = e.span().end;
                (ArrowBody::Expr(Box::new(e)), end)
            }
        };
        Ok((Expr::Arrow { params, body, is_async, span: Span::new(start, end) }, true))
    }

    /// Whether `cover`, parsed as `lhs` and followed by a same-line `=>`,
    /// heads an arrow function, and if so whether an async one. A
    /// provisional group that does not bind fails with its error.
    fn cover_arrow(&mut self, cover: &Cover, lhs: &Expr) -> Result<Option<bool>, ParseError> {
        let at_start = |e: &Expr| matches!(e, Expr::Ident(i) if i.span.start == cover.start);
        let arrow_next = self.is_punct(Punct::Arrow) && !self.cur.newline_before;
        let elems = match (cover.head, lhs) {
            (Some(true), Expr::Sequence { exprs, .. }) => exprs.as_slice(),
            (Some(_), e) => std::slice::from_ref(e),
            (None, Expr::Call { callee, args, .. }) if arrow_next && at_start(callee) => {
                args.as_slice()
            }
            (None, e) if arrow_next && at_start(e) => return Ok(Some(false)),
            (None, e) if at_start(e) && !self.cur.newline_before => {
                let ident = matches!(self.cur.kind, TokenKind::Ident(_));
                let next = self.peek()?;
                return Ok(
                    (ident && next.is_punct(Punct::Arrow) && !next.newline_before).then_some(true)
                );
            }
            _ => return Ok(None),
        };
        if !cover.refused && elems.iter().all(|e| binds(e, true)) {
            return Ok(Some(cover.head.is_none()));
        }
        match &cover.provisional {
            Some(err) if cover.head.is_some() => Err(err.clone()),
            _ => Ok(None),
        }
    }

    /// Charges a closed `cover` as parameters when `arrow`, else as an
    /// expression, failing past the limit. An enclosing cover read as an
    /// expression reads it as parameters only where they fit beside its
    /// owed frames, and then inherits its provisional error.
    fn settle(&mut self, cover: &Cover, arrow: bool) -> Result<(), ParseError> {
        let limit = self.limit;
        let reach = if arrow { &cover.params } else { &cover.expr };
        if reach.first_over(limit).is_some() || (!arrow && cover.provisional.is_some()) {
            return Err(self.cover_error(cover, None));
        }
        let Some(outer) = self.covers.last_mut() else {
            return Ok(());
        };
        let fits = arrow && cover.params.first_over(limit.saturating_sub(outer.owed)).is_none();
        for &(depth, pos) in if fits { &cover.params.0 } else { &cover.expr.0 } {
            outer.reach_expr(depth + outer.owed, pos);
        }
        reach.0.iter().for_each(|&(depth, pos)| outer.params.push(depth, pos));
        if !fits && outer.provisional.is_none() {
            outer.provisional = cover.provisional.clone();
        }
        Ok(())
    }

    /// The error of a failing `cover` where the expression grammar alone
    /// meets it: the first token its expression reading, with the open
    /// covers read as expressions, took past the limit; else its
    /// provisional error, which precedes any later one; else `err`.
    fn cover_error(&self, cover: &Cover, err: Option<ParseError>) -> ParseError {
        let owed = self.covers.iter().map(|c| c.owed).sum::<u32>();
        match cover.expr.first_over(self.limit.saturating_sub(owed)) {
            Some(pos) => self.depth_error(pos),
            None => cover.provisional.clone().or(err).expect("a cover fails on an error"),
        }
    }

    fn parse_conditional(&mut self, in_allowed: bool) -> Result<Expr, ParseError> {
        let test = self.parse_binary(0, in_allowed)?;
        if !self.is_punct(Punct::Question) {
            return Ok(test);
        }
        self.advance()?;
        let consequent = self.parse_assignment(true)?;
        self.expect_punct(Punct::Colon)?;
        let alternate = self.parse_assignment(in_allowed)?;
        let span = Span::new(test.span().start, alternate.span().end);
        Ok(Expr::Conditional {
            test: Box::new(test),
            consequent: Box::new(consequent),
            alternate: Box::new(alternate),
            span,
        })
    }

    /// Precedence-climbing binary/logical expression parser.
    fn parse_binary(&mut self, min_prec: u8, in_allowed: bool) -> Result<Expr, ParseError> {
        let g = self.enter()?;
        let r = self.parse_binary_inner(min_prec, in_allowed);
        self.leave(g);
        r
    }

    fn parse_binary_inner(&mut self, min_prec: u8, in_allowed: bool) -> Result<Expr, ParseError> {
        let left = self.parse_unary(in_allowed)?;
        let mut links = 0u32;
        let r = self.parse_binary_chain(left, min_prec, in_allowed, &mut links);
        self.chain_release(links);
        r
    }

    fn parse_binary_chain(
        &mut self,
        mut left: Expr,
        min_prec: u8,
        in_allowed: bool,
        links: &mut u32,
    ) -> Result<Expr, ParseError> {
        loop {
            let (prec, right_assoc, kind) = match &self.cur.kind {
                TokenKind::Keyword(Kw::In) if !in_allowed => break,
                TokenKind::Keyword(Kw::In) => {
                    (BinaryOp::In.precedence(), false, BinKind::Bin(BinaryOp::In))
                }
                TokenKind::Keyword(Kw::Instanceof) => {
                    (BinaryOp::InstanceOf.precedence(), false, BinKind::Bin(BinaryOp::InstanceOf))
                }
                TokenKind::Punct(p) => match binary_op_of(*p) {
                    Some(op) => (op.precedence(), op == BinaryOp::Exp, BinKind::Bin(op)),
                    None => match logical_op_of(*p) {
                        Some(op) => (op.precedence(), false, BinKind::Log(op)),
                        None => break,
                    },
                },
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.chain_link(links)?;
            self.advance()?;
            self.rescan_regex_if_slash()?;
            let next_min = if right_assoc { prec } else { prec + 1 };
            let right = self.parse_binary(next_min, in_allowed)?;
            let span = Span::new(left.span().start, right.span().end);
            left = match kind {
                BinKind::Bin(op) => {
                    Expr::Binary { op, left: Box::new(left), right: Box::new(right), span }
                }
                BinKind::Log(op) => {
                    Expr::Logical { op, left: Box::new(left), right: Box::new(right), span }
                }
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self, in_allowed: bool) -> Result<Expr, ParseError> {
        let g = self.enter()?;
        let r = self.parse_unary_inner(in_allowed);
        self.leave(g);
        r
    }

    fn parse_unary_inner(&mut self, in_allowed: bool) -> Result<Expr, ParseError> {
        self.rescan_regex_if_slash()?;
        let start = self.cur.span.start;
        let op = match &self.cur.kind {
            TokenKind::Punct(Punct::Minus) => Some(UnaryOp::Minus),
            TokenKind::Punct(Punct::Plus) => Some(UnaryOp::Plus),
            TokenKind::Punct(Punct::Bang) => Some(UnaryOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnaryOp::BitNot),
            TokenKind::Keyword(Kw::Typeof) => Some(UnaryOp::TypeOf),
            TokenKind::Keyword(Kw::Void) => Some(UnaryOp::Void),
            TokenKind::Keyword(Kw::Delete) => Some(UnaryOp::Delete),
            _ => None,
        };
        if let Some(op) = op {
            self.advance()?;
            let arg = self.parse_unary(in_allowed)?;
            let span = Span::new(start, arg.span().end);
            return Ok(Expr::Unary { op, arg: Box::new(arg), span });
        }
        // Prefix update.
        let upd = match &self.cur.kind {
            TokenKind::Punct(Punct::PlusPlus) => Some(UpdateOp::Increment),
            TokenKind::Punct(Punct::MinusMinus) => Some(UpdateOp::Decrement),
            _ => None,
        };
        if let Some(op) = upd {
            self.advance()?;
            let arg = self.parse_unary(in_allowed)?;
            let span = Span::new(start, arg.span().end);
            return Ok(Expr::Update { op, prefix: true, arg: Box::new(arg), span });
        }
        // `await expr` (contextual).
        if self.is_ident("await") {
            let next = self.peek()?;
            let arg_follows = !matches!(
                &next.kind,
                TokenKind::Eof
                    | TokenKind::Punct(Punct::Semi)
                    | TokenKind::Punct(Punct::RParen)
                    | TokenKind::Punct(Punct::RBrace)
                    | TokenKind::Punct(Punct::RBracket)
                    | TokenKind::Punct(Punct::Comma)
                    | TokenKind::Punct(Punct::Colon)
            ) && !matches!(&next.kind, TokenKind::Punct(p) if binary_op_of(*p).is_some() || logical_op_of(*p).is_some() || assign_op_of(*p).is_some())
                && !next.is_punct(Punct::Arrow)
                && !next.is_punct(Punct::Question)
                && !next.is_punct(Punct::Dot);
            if arg_follows {
                self.advance()?;
                let arg = self.parse_unary(in_allowed)?;
                let span = Span::new(start, arg.span().end);
                return Ok(Expr::Await { arg: Box::new(arg), span });
            }
        }
        // Postfix update binds tighter than binary ops.
        let mut e = self.parse_lhs_expr()?;
        if !self.cur.newline_before {
            let upd = match &self.cur.kind {
                TokenKind::Punct(Punct::PlusPlus) => Some(UpdateOp::Increment),
                TokenKind::Punct(Punct::MinusMinus) => Some(UpdateOp::Decrement),
                _ => None,
            };
            if let Some(op) = upd {
                let span = Span::new(e.span().start, self.cur.span.end);
                self.advance()?;
                e = Expr::Update { op, prefix: false, arg: Box::new(e), span };
            }
        }
        Ok(e)
    }

    /// Parses a left-hand-side expression: primary with call/member/new
    /// chains, template tags, and optional chaining.
    fn parse_lhs_expr(&mut self) -> Result<Expr, ParseError> {
        let g = self.enter()?;
        let r = self.parse_lhs_inner();
        self.leave(g);
        r
    }

    fn parse_lhs_inner(&mut self) -> Result<Expr, ParseError> {
        let start = self.cur.span.start;
        let e = if self.is_kw(Kw::New) {
            // `new.target` or `new Callee(args)`.
            if self.peek()?.is_punct(Punct::Dot) {
                let meta = Ident { name: "new".into(), span: self.cur.span };
                self.advance()?; // new
                self.advance()?; // .
                let property = match &self.cur.kind {
                    TokenKind::Ident(n) => Ident { name: *n, span: self.cur.span },
                    _ => return Err(self.unexpected("meta property")),
                };
                let span = Span::new(start, self.cur.span.end);
                self.advance()?;
                Expr::MetaProperty { meta, property, span }
            } else {
                self.advance()?; // new
                let callee = self.parse_member_only()?;
                let (args, end) = if self.is_punct(Punct::LParen) {
                    let (a, e) = self.parse_args()?;
                    (a, e)
                } else {
                    (Vec::new(), callee.span().end)
                };
                Expr::New { callee: Box::new(callee), args, span: Span::new(start, end) }
            }
        } else {
            self.parse_primary()?
        };

        let mut links = 0u32;
        let r = self.parse_lhs_chain(e, &mut links, true);
        self.chain_release(links);
        r
    }

    /// The member, call and tagged-template links after `e`; without
    /// `calls`, only `.name` and `[index]` links (a `new` callee).
    fn parse_lhs_chain(
        &mut self,
        mut e: Expr,
        links: &mut u32,
        calls: bool,
    ) -> Result<Expr, ParseError> {
        loop {
            let start = e.span().start;
            match &self.cur.kind {
                TokenKind::Punct(Punct::Dot) => {
                    self.chain_link(links)?;
                    self.advance()?;
                    e = self.parse_member_name(e, false, "property name")?;
                }
                TokenKind::Punct(Punct::OptionalChain) if calls => {
                    self.chain_link(links)?;
                    self.advance()?;
                    e = match &self.cur.kind {
                        TokenKind::Punct(Punct::LParen) => {
                            let (args, end) = self.parse_args()?;
                            Expr::Call { callee: Box::new(e), args, span: Span::new(start, end) }
                        }
                        TokenKind::Punct(Punct::LBracket) => self.parse_index(e, true)?,
                        _ => self.parse_member_name(e, true, "optional chain")?,
                    };
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.chain_link(links)?;
                    e = self.parse_index(e, false)?;
                }
                TokenKind::Punct(Punct::LParen) if calls => {
                    self.chain_link(links)?;
                    let (args, end) = self.parse_args()?;
                    e = Expr::Call { callee: Box::new(e), args, span: Span::new(start, end) };
                }
                TokenKind::TemplateNoSub { .. } | TokenKind::TemplateHead { .. } if calls => {
                    self.chain_link(links)?;
                    let (quasis, exprs, end) = self.parse_template_parts()?;
                    let span = Span::new(start, end);
                    e = Expr::TaggedTemplate { tag: Box::new(e), quasis, exprs, span };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    /// `object.name` (keywords included) or `object.#name`, at the name.
    fn parse_member_name(
        &mut self,
        object: Expr,
        optional: bool,
        what: &str,
    ) -> Result<Expr, ParseError> {
        let span = self.cur.span;
        let property = match self.cur.kind {
            TokenKind::Ident(name) => MemberProp::Ident(Ident { name, span }),
            TokenKind::Keyword(kw) => MemberProp::Ident(Ident { name: kw.atom(), span }),
            TokenKind::PrivateName(name) => MemberProp::Private(Ident { name, span }),
            _ => return Err(self.unexpected(what)),
        };
        self.advance()?;
        let span = Span::new(object.span().start, span.end);
        Ok(Expr::Member { object: Box::new(object), property, optional, span })
    }

    /// `object[index]`, at the `[`.
    fn parse_index(&mut self, object: Expr, optional: bool) -> Result<Expr, ParseError> {
        self.advance()?; // [
        let index = self.parse_expr(true)?;
        let span = Span::new(object.span().start, self.cur.span.end);
        self.expect_punct(Punct::RBracket)?;
        let property = MemberProp::Computed(Box::new(index));
        Ok(Expr::Member { object: Box::new(object), property, optional, span })
    }

    /// Like [`Parser::parse_lhs_inner`] but stops before call arguments —
    /// used for `new Callee`. Depth-guarded: `new new new …` recurses here
    /// without passing through `parse_unary`.
    fn parse_member_only(&mut self) -> Result<Expr, ParseError> {
        let g = self.enter()?;
        let r = self.parse_member_only_inner();
        self.leave(g);
        r
    }

    fn parse_member_only_inner(&mut self) -> Result<Expr, ParseError> {
        let start = self.cur.span.start;
        let e = if self.is_kw(Kw::New) {
            self.advance()?;
            let callee = self.parse_member_only()?;
            let (args, end) = if self.is_punct(Punct::LParen) {
                self.parse_args()?
            } else {
                (Vec::new(), callee.span().end)
            };
            Expr::New { callee: Box::new(callee), args, span: Span::new(start, end) }
        } else {
            self.parse_primary()?
        };
        let mut links = 0u32;
        let r = self.parse_lhs_chain(e, &mut links, false);
        self.chain_release(links);
        r
    }

    fn parse_args(&mut self) -> Result<(Vec<Expr>, u32), ParseError> {
        let pattern = self.pattern_at == self.cur.span.start;
        self.expect_punct(Punct::LParen)?;
        let mut args = Vec::new();
        while !self.is_punct(Punct::RParen) {
            let arg = self.parse_element(pattern)?;
            let more = self.eat_comma_after(&arg, pattern)?;
            args.push(arg);
            if !more {
                break;
            }
        }
        let end = self.cur.span.end;
        self.expect_punct(Punct::RParen)?;
        Ok((args, end))
    }

    /// An argument, array element or group element, or `...expr` there.
    /// An element of a cover's `pattern` may bind a name.
    fn parse_element(&mut self, pattern: bool) -> Result<Expr, ParseError> {
        let start = self.cur.span.start;
        let spread = self.eat_punct(Punct::Ellipsis)?;
        let e = self.parse_pattern_element(pattern)?;
        Ok(match spread {
            true => Expr::Spread { span: Span::new(start, e.span().end), arg: Box::new(e) },
            false => e,
        })
    }

    /// An assignment expression that, in a cover's `pattern`, may bind a
    /// name: the expression grammar's three frames above its pattern
    /// frame are owed, unless it starts no binding.
    fn parse_pattern_element(&mut self, pattern: bool) -> Result<Expr, ParseError> {
        let kind = self.cur.kind;
        match kind {
            _ if !pattern => {}
            TokenKind::Punct(Punct::LParen) => self.refuse(),
            TokenKind::Ident(_) if self.opens_cover()? => {}
            TokenKind::Ident(_)
            | TokenKind::Keyword(Kw::Yield)
            | TokenKind::Punct(Punct::LBracket | Punct::LBrace) => {
                (self.owe, self.pattern_at) = (3, self.cur.span.start)
            }
            _ => {}
        }
        self.parse_assignment(true)
    }

    /// Marks the innermost cover as binding nothing.
    fn refuse(&mut self) {
        self.covers.last_mut().expect("a pattern is in a cover").refused = true;
    }

    /// Eats a `,` after a list element. In a cover's `pattern` a spread
    /// followed by a comma is no rest element.
    fn eat_comma_after(&mut self, elem: &Expr, pattern: bool) -> Result<bool, ParseError> {
        let eaten = self.eat_punct(Punct::Comma)?;
        if eaten && pattern && matches!(elem, Expr::Spread { .. }) {
            self.refuse();
        }
        Ok(eaten)
    }

    /// A parenthesized group, parsed once as the cover grammar of an
    /// expression and an arrow head: its elements parse as assignment
    /// expressions, and three forms only an arrow head allows are accepted
    /// provisionally: `()`, a trailing comma and a final `...rest`. A group
    /// that opens its [`Cover`] and closes right before a same-line `=>` is
    /// marked there; any other is a parenthesized expression.
    fn parse_group(&mut self) -> Result<Expr, ParseError> {
        let open = self.cur.span.start;
        let at_head = self.covers.last().is_some_and(|c| c.start == open);
        self.advance()?; // (
        let mut elems = Vec::new();
        let mut form = self.at_arrow_only_form();
        if !form {
            // The expression grammar's frame for the group.
            self.owe = u8::from(at_head);
            let g = self.enter()?;
            let r = self.parse_group_elements(&mut elems, at_head);
            self.leave(g);
            form = r?;
        }
        let provisional = form.then(|| self.arrow_only_form(at_head)).transpose()?;
        if form && self.is_punct(Punct::Ellipsis) {
            elems.push(self.parse_element(true)?);
        }
        self.expect_punct(Punct::RParen)?;
        let list = form || elems.len() != 1;
        let expr = if list {
            let span = match (elems.first(), elems.last()) {
                (Some(first), Some(last)) => Span::new(first.span().start, last.span().end),
                _ => Span::new(open, open),
            };
            Expr::Sequence { exprs: elems, span }
        } else {
            elems.pop().unwrap()
        };
        if at_head && self.is_punct(Punct::Arrow) && !self.cur.newline_before {
            self.covers.last_mut().expect("a head has a cover").head = Some(list);
        } else if let Some(err) = provisional {
            return Err(err);
        }
        Ok(expr)
    }

    /// The elements of a group up to its `)`, or up to an arrow-only form
    /// after a comma, and whether one follows.
    fn parse_group_elements(
        &mut self,
        elems: &mut Vec<Expr>,
        head: bool,
    ) -> Result<bool, ParseError> {
        loop {
            elems.push(self.parse_pattern_element(head)?);
            let comma = self.eat_punct(Punct::Comma)?;
            if !comma || self.at_arrow_only_form() {
                return Ok(comma);
            }
        }
    }

    /// Whether the current token, where a group element would start, is
    /// `)` or `...`: a form only an arrow head allows.
    fn at_arrow_only_form(&self) -> bool {
        self.is_punct(Punct::RParen) || self.is_punct(Punct::Ellipsis)
    }

    /// The expression grammar fails at an arrow-only form, five frames
    /// below the group. At a cover's group those frames are owed and the
    /// error, returned, is provisional; elsewhere the parse fails here.
    fn arrow_only_form(&mut self, at_head: bool) -> Result<ParseError, ParseError> {
        self.owe = if at_head { 5 } else { 0 };
        let frames = (0..5).map(|_| self.enter()).collect::<Result<Vec<_>, _>>()?;
        frames.into_iter().for_each(|owed| self.leave(owed));
        let err = self.unexpected("expression");
        if !at_head {
            return Err(err);
        }
        self.covers.last_mut().expect("a head has a cover").provisional = Some(err.clone());
        Ok(err)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        self.rescan_regex_if_slash()?;
        let span = self.cur.span;
        let value = match self.cur.kind {
            TokenKind::Num(n) => Some(LitValue::Num(n)),
            TokenKind::BigInt(d) => Some(LitValue::BigInt(d)),
            TokenKind::Str(s) => Some(LitValue::Str(s)),
            TokenKind::Regex { pattern, flags } => Some(LitValue::Regex { pattern, flags }),
            TokenKind::Keyword(Kw::True) => Some(LitValue::Bool(true)),
            TokenKind::Keyword(Kw::False) => Some(LitValue::Bool(false)),
            TokenKind::Keyword(Kw::Null) => Some(LitValue::Null),
            _ => None,
        };
        if let Some(value) = value {
            self.advance()?;
            return Ok(Expr::Lit(Lit { value, raw: Atom::empty(), span }));
        }
        match &self.cur.kind {
            TokenKind::Keyword(Kw::This) => {
                self.advance()?;
                Ok(Expr::This { span })
            }
            TokenKind::Keyword(Kw::Super) => {
                self.advance()?;
                Ok(Expr::Super { span })
            }
            TokenKind::Keyword(Kw::Function) => {
                let f = self.parse_function(true)?;
                Ok(Expr::Function(f))
            }
            TokenKind::Keyword(Kw::Class) => {
                let c = self.parse_class()?;
                Ok(Expr::Class(c))
            }
            TokenKind::Keyword(Kw::Yield) if !self.in_generator => {
                self.advance()?;
                Ok(Expr::Ident(Ident { name: "yield".into(), span }))
            }
            TokenKind::Ident(name) => {
                let name = *name;
                if name == "async" && self.peek()?.is_kw(Kw::Function) {
                    self.advance()?; // async
                    let mut f = self.parse_function(true)?;
                    f.is_async = true;
                    return Ok(Expr::Function(f));
                }
                if name == "import" {
                    if self.peek()?.is_punct(Punct::LParen) {
                        // Dynamic import. The two-argument form
                        // `import(x, opts)` is not modeled.
                        self.advance()?; // import
                        self.expect_punct(Punct::LParen)?;
                        let arg = self.parse_assignment(true)?;
                        let end = self.cur.span.end;
                        self.expect_punct(Punct::RParen)?;
                        return Ok(Expr::ImportCall {
                            arg: Box::new(arg),
                            span: Span::new(span.start, end),
                        });
                    }
                    if self.peek()?.is_punct(Punct::Dot) {
                        // `import.meta`, mirroring `new.target`.
                        let meta = Ident { name, span };
                        self.advance()?; // import
                        self.advance()?; // .
                        let property = match &self.cur.kind {
                            TokenKind::Ident(n) => Ident { name: *n, span: self.cur.span },
                            _ => return Err(self.unexpected("meta property")),
                        };
                        let mspan = Span::new(span.start, self.cur.span.end);
                        self.advance()?;
                        return Ok(Expr::MetaProperty { meta, property, span: mspan });
                    }
                }
                let e = Expr::Ident(Ident { name, span });
                self.advance()?;
                Ok(e)
            }
            TokenKind::Punct(Punct::LParen) => self.parse_group(),
            TokenKind::Punct(Punct::LBracket) => self.parse_array_literal(),
            TokenKind::Punct(Punct::LBrace) => self.parse_object_literal(),
            TokenKind::TemplateNoSub { .. } | TokenKind::TemplateHead { .. } => {
                let start = self.cur.span.start;
                let (quasis, exprs, end) = self.parse_template_parts()?;
                Ok(Expr::Template { quasis, exprs, span: Span::new(start, end) })
            }
            _ => Err(self.unexpected("expression")),
        }
    }

    fn parse_array_literal(&mut self) -> Result<Expr, ParseError> {
        let start = self.cur.span.start;
        let pattern = self.pattern_at == start;
        self.expect_punct(Punct::LBracket)?;
        let mut elements = Vec::new();
        while !self.is_punct(Punct::RBracket) {
            if self.is_punct(Punct::Comma) {
                // Hole.
                elements.push(None);
                self.advance()?;
                continue;
            }
            let el = self.parse_element(pattern)?;
            let more = self.eat_comma_after(&el, pattern)?;
            elements.push(Some(el));
            if !more {
                break;
            }
        }
        let end = self.cur.span.end;
        self.expect_punct(Punct::RBracket)?;
        Ok(Expr::Array { elements, span: Span::new(start, end) })
    }

    fn parse_object_literal(&mut self) -> Result<Expr, ParseError> {
        let start = self.cur.span.start;
        let pattern = self.pattern_at == start;
        self.expect_punct(Punct::LBrace)?;
        let mut props = Vec::new();
        while !self.is_punct(Punct::RBrace) {
            let prop = self.parse_object_prop(pattern)?;
            let more = self.eat_comma_after(&prop.value, pattern)?;
            props.push(prop);
            if !more {
                break;
            }
        }
        let end = self.cur.span.end;
        self.expect_punct(Punct::RBrace)?;
        Ok(Expr::Object { props, span: Span::new(start, end) })
    }

    fn parse_object_prop(&mut self, pattern: bool) -> Result<Property, ParseError> {
        let start = self.cur.span.start;

        // Spread property `{...e}` modeled as init property with spread value.
        if self.is_punct(Punct::Ellipsis) {
            let value = self.parse_element(pattern)?;
            let span = value.span();
            return Ok(Property {
                key: PropKey::Ident(Ident::new("...")),
                value,
                kind: PropKind::Init,
                computed: false,
                shorthand: false,
                method: false,
                span,
            });
        }

        let mut is_async = false;
        let mut is_generator = false;
        let mut kind = PropKind::Init;

        if self.is_ident("async") {
            let next = self.peek()?;
            let key_follows = matches!(
                &next.kind,
                TokenKind::Ident(_) | TokenKind::Keyword(_) | TokenKind::Str(_) | TokenKind::Num(_)
            ) || next.is_punct(Punct::LBracket)
                || next.is_punct(Punct::Star);
            if key_follows && !next.newline_before {
                is_async = true;
                self.advance()?;
            }
        }
        if self.is_punct(Punct::Star) {
            is_generator = true;
            self.advance()?;
        }
        if (self.is_ident("get") || self.is_ident("set")) && !is_async && !is_generator {
            let next = self.peek()?;
            let key_follows = matches!(
                &next.kind,
                TokenKind::Ident(_) | TokenKind::Keyword(_) | TokenKind::Str(_) | TokenKind::Num(_)
            ) || next.is_punct(Punct::LBracket);
            if key_follows {
                kind = if self.is_ident("get") { PropKind::Get } else { PropKind::Set };
                self.advance()?;
            }
        }

        let (key, computed) = self.parse_prop_key()?;

        // Method / getter / setter.
        if self.is_punct(Punct::LParen) {
            let params = self.parse_params()?;
            let (body, end) = self.parse_fn_body(is_generator)?;
            let f = Function {
                id: None,
                params,
                body,
                is_generator,
                is_async,
                span: Span::new(start, end),
            };
            return Ok(Property {
                key,
                value: Expr::Function(f),
                kind,
                computed,
                shorthand: false,
                method: kind == PropKind::Init,
                span: Span::new(start, end),
            });
        }
        if kind != PropKind::Init || is_async || is_generator {
            return Err(self.err_here("getter, setter or method requires a parameter list"));
        }

        // `key: value`, or shorthand `{a}` or `{a = default}` (the latter
        // only valid in patterns; parsed as assignment for cover-grammar
        // purposes).
        let (value, shorthand) = if self.eat_punct(Punct::Colon)? {
            (self.parse_pattern_element(pattern)?, false)
        } else {
            let name = match &key {
                PropKey::Ident(i) => *i,
                _ => return Err(self.err_here("expected `:` after property key")),
            };
            let mut value = Expr::Ident(name);
            if self.eat_punct(Punct::Eq)? {
                let default = self.parse_assignment(true)?;
                let span = Span::new(start, default.span().end);
                value = Expr::Assign {
                    op: AssignOp::Assign,
                    target: Box::new(Pat::Ident(name)),
                    value: Box::new(default),
                    span,
                };
            }
            (value, true)
        };
        let span = Span::new(start, value.span().end);
        Ok(Property { key, value, kind: PropKind::Init, computed, shorthand, method: false, span })
    }

    /// Parses the quasis/expressions of a template literal starting at the
    /// current `TemplateNoSub`/`TemplateHead` token.
    fn parse_template_parts(
        &mut self,
    ) -> Result<(Vec<TemplateElement>, Vec<Expr>, u32), ParseError> {
        let mut quasis = Vec::new();
        let mut exprs = Vec::new();
        match self.cur.kind {
            TokenKind::TemplateNoSub { cooked, raw } => {
                let end = self.cur.span.end;
                quasis.push(TemplateElement { cooked, raw, tail: true, span: self.cur.span });
                self.advance()?;
                Ok((quasis, exprs, end))
            }
            TokenKind::TemplateHead { cooked, raw } => {
                quasis.push(TemplateElement { cooked, raw, tail: false, span: self.cur.span });
                self.advance()?;
                loop {
                    exprs.push(self.parse_expr(true)?);
                    // The expression ends at a `}` which must be re-lexed as
                    // a template continuation.
                    if !self.is_punct(Punct::RBrace) {
                        return Err(self.err_here("expected `}` in template literal"));
                    }
                    self.cur = self.lexer.continue_template(self.cur.span.start)?;
                    self.peeked = None;
                    let tspan = self.cur.span;
                    match self.cur.kind {
                        TokenKind::TemplateMiddle { cooked, raw } => {
                            quasis.push(TemplateElement { cooked, raw, tail: false, span: tspan });
                            self.advance()?;
                        }
                        TokenKind::TemplateTail { cooked, raw } => {
                            quasis.push(TemplateElement { cooked, raw, tail: true, span: tspan });
                            self.advance()?;
                            return Ok((quasis, exprs, tspan.end));
                        }
                        _ => unreachable!(),
                    }
                }
            }
            _ => Err(self.unexpected("template literal")),
        }
    }
}

enum BinKind {
    Bin(BinaryOp),
    Log(LogicalOp),
}

fn binary_op_of(p: Punct) -> Option<BinaryOp> {
    use BinaryOp::*;
    Some(match p {
        Punct::EqEq => EqEq,
        Punct::NotEq => NotEq,
        Punct::EqEqEq => EqEqEq,
        Punct::NotEqEq => NotEqEq,
        Punct::Lt => Lt,
        Punct::LtEq => LtEq,
        Punct::Gt => Gt,
        Punct::GtEq => GtEq,
        Punct::Shl => Shl,
        Punct::Shr => Shr,
        Punct::UShr => UShr,
        Punct::Plus => Add,
        Punct::Minus => Sub,
        Punct::Star => Mul,
        Punct::Slash => Div,
        Punct::Percent => Mod,
        Punct::StarStar => Exp,
        Punct::Pipe => BitOr,
        Punct::Caret => BitXor,
        Punct::Amp => BitAnd,
        _ => return None,
    })
}

fn logical_op_of(p: Punct) -> Option<LogicalOp> {
    Some(match p {
        Punct::AmpAmp => LogicalOp::And,
        Punct::PipePipe => LogicalOp::Or,
        Punct::QuestionQuestion => LogicalOp::NullishCoalescing,
        _ => return None,
    })
}

fn assign_op_of(p: Punct) -> Option<AssignOp> {
    use AssignOp::*;
    Some(match p {
        Punct::Eq => Assign,
        Punct::PlusEq => AddAssign,
        Punct::MinusEq => SubAssign,
        Punct::StarEq => MulAssign,
        Punct::SlashEq => DivAssign,
        Punct::PercentEq => ModAssign,
        Punct::StarStarEq => ExpAssign,
        Punct::ShlEq => ShlAssign,
        Punct::ShrEq => ShrAssign,
        Punct::UShrEq => UShrAssign,
        Punct::AmpEq => BitAndAssign,
        Punct::PipeEq => BitOrAssign,
        Punct::CaretEq => BitXorAssign,
        Punct::AmpAmpEq => AndAssign,
        Punct::PipePipeEq => OrAssign,
        Punct::QuestionQuestionEq => NullishAssign,
        _ => return None,
    })
}

impl<'s> Parser<'s> {
    // ---- patterns --------------------------------------------------------

    /// Depth-guarded: nested array/object patterns recurse here without
    /// passing through the expression-level guards.
    fn parse_binding_pat(&mut self) -> Result<Pat, ParseError> {
        let g = self.enter()?;
        let r = self.parse_binding_pat_inner();
        self.leave(g);
        r
    }

    fn parse_binding_pat_inner(&mut self) -> Result<Pat, ParseError> {
        match &self.cur.kind {
            TokenKind::Ident(name) => {
                let id = Ident { name: *name, span: self.cur.span };
                self.advance()?;
                Ok(Pat::Ident(id))
            }
            TokenKind::Keyword(Kw::Yield) => {
                // `yield` usable as binding name in sloppy non-generator code.
                let id = Ident { name: "yield".into(), span: self.cur.span };
                self.advance()?;
                Ok(Pat::Ident(id))
            }
            TokenKind::Punct(Punct::LBracket) => {
                let start = self.cur.span.start;
                self.advance()?;
                let mut elements = Vec::new();
                while !self.is_punct(Punct::RBracket) {
                    if self.eat_punct(Punct::Comma)? {
                        elements.push(None);
                        continue;
                    }
                    if self.is_punct(Punct::Ellipsis) {
                        elements.push(Some(self.parse_rest_pat()?));
                        break;
                    }
                    let p = self.parse_binding_pat()?;
                    elements.push(Some(self.parse_default(p)?));
                    if !self.eat_punct(Punct::Comma)? {
                        break;
                    }
                }
                let end = self.cur.span.end;
                self.expect_punct(Punct::RBracket)?;
                Ok(Pat::Array { elements, span: Span::new(start, end) })
            }
            TokenKind::Punct(Punct::LBrace) => {
                let start = self.cur.span.start;
                self.advance()?;
                let mut props = Vec::new();
                while !self.is_punct(Punct::RBrace) {
                    if self.is_punct(Punct::Ellipsis) {
                        let value = self.parse_rest_pat()?;
                        let span = value.span();
                        let key = PropKey::Ident(Ident::new("..."));
                        let (computed, shorthand) = (false, false);
                        props.push(ObjectPatProp { key, value, computed, shorthand, span });
                        break;
                    }
                    let pstart = self.cur.span.start;
                    let (key, computed) = self.parse_prop_key()?;
                    let (target, shorthand) = if self.eat_punct(Punct::Colon)? {
                        (self.parse_binding_pat()?, false)
                    } else {
                        // Shorthand: `{a}` or `{a = default}`.
                        match &key {
                            PropKey::Ident(i) => (Pat::Ident(*i), true),
                            _ => return Err(self.err_here("invalid shorthand pattern")),
                        }
                    };
                    let value = self.parse_default(target)?;
                    let pend = value.span().end;
                    props.push(ObjectPatProp {
                        key,
                        value,
                        computed,
                        shorthand,
                        span: Span::new(pstart, pend),
                    });
                    if !self.eat_punct(Punct::Comma)? {
                        break;
                    }
                }
                let end = self.cur.span.end;
                self.expect_punct(Punct::RBrace)?;
                Ok(Pat::Object { props, span: Span::new(start, end) })
            }
            _ => Err(self.unexpected("binding pattern")),
        }
    }

    /// `target` with an optional `= default`.
    fn parse_default(&mut self, target: Pat) -> Result<Pat, ParseError> {
        if !self.eat_punct(Punct::Eq)? {
            return Ok(target);
        }
        let value = self.parse_assignment(true)?;
        let span = Span::new(target.span().start, value.span().end);
        Ok(Pat::Assign { target: Box::new(target), value: Box::new(value), span })
    }

    /// `...pattern` in a parameter list or a destructuring pattern.
    fn parse_rest_pat(&mut self) -> Result<Pat, ParseError> {
        let start = self.cur.span.start;
        self.expect_punct(Punct::Ellipsis)?;
        let arg = self.parse_binding_pat()?;
        let span = Span::new(start, arg.span().end);
        Ok(Pat::Rest { arg: Box::new(arg), span })
    }
}

/// Whether `e`, an element of an arrow head or of an array or object in
/// one, is also what `parse_params` accepts there: a binding pattern, with
/// a default or as a rest when it is an `element` of a list. `yield` names
/// a binding. [`Cover::refused`] holds what the tree does not show.
fn binds(e: &Expr, element: bool) -> bool {
    match e {
        Expr::Ident(_) | Expr::Yield { arg: None, delegate: false, .. } => true,
        Expr::Array { elements, .. } => elements.iter().flatten().all(|e| binds(e, true)),
        Expr::Object { props, .. } => props.iter().all(|p| binds(&p.value, true)),
        Expr::Spread { arg, .. } => element && binds(arg, false),
        Expr::Assign { op: AssignOp::Assign, target, .. } => element && binds_pat(target, false),
        _ => false,
    }
}

/// [`binds`] for an assignment target already read as a pattern, which
/// may hold member targets.
fn binds_pat(p: &Pat, element: bool) -> bool {
    match p {
        Pat::Ident(_) => true,
        Pat::Array { elements, .. } => elements.iter().flatten().all(|p| binds_pat(p, true)),
        Pat::Object { props, .. } => props.iter().all(|p| binds_pat(&p.value, true)),
        Pat::Rest { arg: target, .. } | Pat::Assign { target, .. } => {
            element && binds_pat(target, false)
        }
        Pat::Member(_) => false,
    }
}

/// Reinterprets an expression as an assignment-target pattern
/// (`for (x of ...)`, `[a, b] = c`), or with `binding` as an arrow
/// parameter [`binds`] accepted, where a bare `yield` names a
/// binding.
pub(crate) fn expr_to_pat(e: Expr, binding: bool) -> Result<Pat, ParseError> {
    let pos = e.span().start;
    match e {
        Expr::Ident(i) => Ok(Pat::Ident(i)),
        Expr::Yield { arg: None, delegate: false, span } if binding => {
            Ok(Pat::Ident(Ident { name: "yield".into(), span }))
        }
        Expr::Member { .. } => Ok(Pat::Member(Box::new(e))),
        Expr::Spread { arg, span } => {
            Ok(Pat::Rest { arg: Box::new(expr_to_pat(*arg, binding)?), span })
        }
        Expr::Array { elements, span } => {
            let elements = elements
                .into_iter()
                .map(|el| el.map(|e| expr_to_pat(e, binding)).transpose())
                .collect::<Result<_, _>>()?;
            Ok(Pat::Array { elements, span })
        }
        Expr::Object { props, span } => {
            let props = props
                .into_iter()
                .map(|p| {
                    Ok(ObjectPatProp {
                        key: p.key,
                        value: expr_to_pat(p.value, binding)?,
                        computed: p.computed,
                        shorthand: p.shorthand,
                        span: p.span,
                    })
                })
                .collect::<Result<_, ParseError>>()?;
            Ok(Pat::Object { props, span })
        }
        Expr::Assign { op: AssignOp::Assign, target, value, span } => {
            Ok(Pat::Assign { target, value, span })
        }
        _ => Err(ParseError::new("invalid assignment target", pos)),
    }
}
