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
//! a parse actually contained module syntax. Arrow-function parameter
//! lists are parsed with backtracking over the raw lexer, and `/` is
//! rescanned as a regular expression whenever the parser sits at an
//! expression-start position.

use crate::error::ParseError;
use jsdetect_ast::*;
use jsdetect_guard::Budget;
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
/// tokens the parse committed to alongside. Backtracked tokens are not
/// counted, and a `/` or `}` the parser re-lexed counts as the regex or
/// template token it became, so the counts are those of the script's one
/// token list, EOF included.
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
    depth: u32,
    src_len: u32,
    budget: Option<&'s Budget>,
}

/// Snapshot for backtracking (arrow-function cover grammar).
struct State {
    lex_pos: u32,
    cur: Token,
    comments_len: usize,
    counts: TokenCounts,
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
            src_len: src.len() as u32,
            budget,
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

    fn save(&self) -> State {
        State {
            lex_pos: match &self.peeked {
                // If we have peeked, the lexer has advanced past `peeked`;
                // restoring to the peeked token's start re-lexes it.
                Some(t) => t.span.start,
                None => self.lexer.pos(),
            },
            cur: self.cur,
            comments_len: self.lexer.comments_len(),
            counts: self.counts,
        }
    }

    fn restore(&mut self, st: State) {
        self.lexer.set_pos(st.lex_pos);
        self.lexer.truncate_comments(st.comments_len);
        self.cur = st.cur;
        self.counts = st.counts;
        self.peeked = None;
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

    fn check_depth_now(&mut self) -> Result<(), ParseError> {
        match self.budget {
            // The budget records the typed `AstDepthExceeded`; only the
            // stringly rendering travels through the legacy `ParseError`.
            Some(budget) => {
                if let Err(e) = budget.check_depth(self.depth) {
                    return Err(self.err_here(e.to_string()));
                }
            }
            None => {
                if self.depth > MAX_DEPTH {
                    return Err(self.err_here("nesting too deep"));
                }
            }
        }
        Ok(())
    }

    fn enter(&mut self) -> Result<DepthGuard, ParseError> {
        self.depth += 1;
        self.check_depth_now()?;
        Ok(DepthGuard)
    }

    fn leave(&mut self, _g: DepthGuard) {
        self.depth -= 1;
    }

    /// Charges one more link of an iteratively-built chain against the
    /// depth budget (see [`CHAIN_DEPTH_GRAIN`]). Call once per wrap inside
    /// a chain loop; pair with [`Parser::chain_release`] on every exit.
    fn chain_link(&mut self, links: &mut u32) -> Result<(), ParseError> {
        *links += 1;
        if links.is_multiple_of(CHAIN_DEPTH_GRAIN) {
            self.depth += 1;
            self.check_depth_now()?;
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
            body.push(self.parse_stmt()?);
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
            let target = ForTarget::Pat(expr_to_pat(first)?);
            let object = self.parse_expr(true)?;
            self.expect_punct(Punct::RParen)?;
            let body = Box::new(self.parse_stmt()?);
            let span = Span::new(start, body.span().end);
            return Ok(Stmt::ForIn { target, object, body, span });
        }
        if self.is_ident("of") {
            self.advance()?;
            let target = ForTarget::Pat(expr_to_pat(first)?);
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
                let lit = Lit {
                    value: LitValue::Str(*s),
                    raw: span_raw_placeholder(),
                    span: self.cur.span,
                };
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
        let (body, end) = self.parse_fn_body()?;
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
                let rstart = self.cur.span.start;
                self.advance()?;
                let arg = self.parse_binding_pat()?;
                let span = Span::new(rstart, arg.span().end);
                params.push(Pat::Rest { arg: Box::new(arg), span });
                break;
            }
            let mut p = self.parse_binding_pat()?;
            if self.eat_punct(Punct::Eq)? {
                let value = self.parse_assignment(true)?;
                let span = Span::new(p.span().start, value.span().end);
                p = Pat::Assign { target: Box::new(p), value: Box::new(value), span };
            }
            params.push(p);
            if !self.eat_punct(Punct::Comma)? {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok(params)
    }

    fn parse_fn_body(&mut self) -> Result<(Vec<Stmt>, u32), ParseError> {
        match self.parse_block()? {
            Stmt::Block { body, span } => Ok((body, span.end)),
            _ => unreachable!(),
        }
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
            let (body, end) = self.parse_fn_body()?;
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
            TokenKind::Str(s) => {
                let lit = Lit { value: LitValue::Str(*s), raw: Atom::empty(), span: self.cur.span };
                self.advance()?;
                Ok((PropKey::Lit(lit), false))
            }
            TokenKind::Num(n) => {
                let lit = Lit { value: LitValue::Num(*n), raw: Atom::empty(), span: self.cur.span };
                self.advance()?;
                Ok((PropKey::Lit(lit), false))
            }
            TokenKind::BigInt(d) => {
                let lit =
                    Lit { value: LitValue::BigInt(*d), raw: Atom::empty(), span: self.cur.span };
                self.advance()?;
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
        if self.is_kw(Kw::Yield) {
            let start = self.cur.span.start;
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

        // Arrow functions. Three shapes: `x => ...`, `(params) => ...`,
        // `async x => ...` / `async (params) => ...`.
        if let Some(arrow) = self.try_parse_arrow()? {
            return Ok(arrow);
        }

        let lhs = self.parse_conditional(in_allowed)?;

        // Assignment operators.
        let op = match &self.cur.kind {
            TokenKind::Punct(p) => assign_op_of(*p),
            _ => None,
        };
        if let Some(op) = op {
            let target = expr_to_pat(lhs)?;
            self.advance()?;
            let value = self.parse_assignment(in_allowed)?;
            let span = Span::new(target.span().start, value.span().end);
            return Ok(Expr::Assign { op, target: Box::new(target), value: Box::new(value), span });
        }
        Ok(lhs)
    }

    /// Attempts to parse an arrow function at the current position,
    /// backtracking on failure. Returns `Ok(None)` if the input is not an
    /// arrow function.
    fn try_parse_arrow(&mut self) -> Result<Option<Expr>, ParseError> {
        let start = self.cur.span.start;

        // `ident => ...`
        if let TokenKind::Ident(name) = &self.cur.kind {
            let name = *name;
            if name != "async" {
                let next = self.peek()?;
                if next.is_punct(Punct::Arrow) && !next.newline_before {
                    let param = Pat::Ident(Ident { name, span: self.cur.span });
                    self.advance()?; // ident
                    self.advance()?; // =>
                    return Ok(Some(self.finish_arrow(start, vec![param], false)?));
                }
            } else {
                // `async x => ...` / `async (params) => ...`
                let next = self.peek()?;
                if !next.newline_before {
                    if let TokenKind::Ident(pname) = &next.kind {
                        let pname = *pname;
                        let pspan = next.span;
                        let st = self.save();
                        self.advance()?; // async
                        self.advance()?; // param ident
                        if self.is_punct(Punct::Arrow) && !self.cur.newline_before {
                            self.advance()?; // =>
                            let param = Pat::Ident(Ident { name: pname, span: pspan });
                            return Ok(Some(self.finish_arrow(start, vec![param], true)?));
                        }
                        self.restore(st);
                    } else if next.is_punct(Punct::LParen) {
                        let st = self.save();
                        self.advance()?; // async
                        match self.try_paren_arrow(start, true)? {
                            Some(e) => return Ok(Some(e)),
                            None => self.restore(st),
                        }
                    }
                }
            }
        } else if self.is_punct(Punct::LParen) {
            let st = self.save();
            match self.try_paren_arrow(start, false)? {
                Some(e) => return Ok(Some(e)),
                None => self.restore(st),
            }
        }
        Ok(None)
    }

    /// Speculatively parses `(params) => body`; returns `None` (without
    /// consuming) if the parenthesized fragment is not an arrow head.
    fn try_paren_arrow(&mut self, start: u32, is_async: bool) -> Result<Option<Expr>, ParseError> {
        let st = self.save();
        let params = match self.parse_params() {
            Ok(p) => p,
            Err(_) => {
                self.restore(st);
                return Ok(None);
            }
        };
        if self.is_punct(Punct::Arrow) && !self.cur.newline_before {
            self.advance()?;
            Ok(Some(self.finish_arrow(start, params, is_async)?))
        } else {
            self.restore(st);
            Ok(None)
        }
    }

    fn finish_arrow(
        &mut self,
        start: u32,
        params: Vec<Pat>,
        is_async: bool,
    ) -> Result<Expr, ParseError> {
        if self.is_punct(Punct::LBrace) {
            let (body, end) = self.parse_fn_body()?;
            Ok(Expr::Arrow {
                params,
                body: ArrowBody::Block(body),
                is_async,
                span: Span::new(start, end),
            })
        } else {
            let e = self.parse_assignment(true)?;
            let end = e.span().end;
            Ok(Expr::Arrow {
                params,
                body: ArrowBody::Expr(Box::new(e)),
                is_async,
                span: Span::new(start, end),
            })
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
        let r = self.parse_lhs_chain(e, &mut links);
        self.chain_release(links);
        r
    }

    fn parse_lhs_chain(&mut self, mut e: Expr, links: &mut u32) -> Result<Expr, ParseError> {
        loop {
            match &self.cur.kind {
                TokenKind::Punct(Punct::Dot) => {
                    self.chain_link(links)?;
                    self.advance()?;
                    if let TokenKind::PrivateName(n) = &self.cur.kind {
                        let prop = Ident { name: *n, span: self.cur.span };
                        let span = Span::new(e.span().start, self.cur.span.end);
                        self.advance()?;
                        e = Expr::Member {
                            object: Box::new(e),
                            property: MemberProp::Private(prop),
                            optional: false,
                            span,
                        };
                        continue;
                    }
                    let name = match &self.cur.kind {
                        TokenKind::Ident(n) => *n,
                        TokenKind::Keyword(kw) => kw.atom(),
                        _ => return Err(self.unexpected("property name")),
                    };
                    let pspan = self.cur.span;
                    self.advance()?;
                    let span = Span::new(e.span().start, pspan.end);
                    e = Expr::Member {
                        object: Box::new(e),
                        property: MemberProp::Ident(Ident { name, span: pspan }),
                        optional: false,
                        span,
                    };
                }
                TokenKind::Punct(Punct::OptionalChain) => {
                    self.chain_link(links)?;
                    self.advance()?;
                    match &self.cur.kind {
                        TokenKind::Punct(Punct::LParen) => {
                            let (args, end) = self.parse_args()?;
                            let span = Span::new(e.span().start, end);
                            e = Expr::Call { callee: Box::new(e), args, span };
                        }
                        TokenKind::Punct(Punct::LBracket) => {
                            self.advance()?;
                            let idx = self.parse_expr(true)?;
                            let end = self.cur.span.end;
                            self.expect_punct(Punct::RBracket)?;
                            let span = Span::new(e.span().start, end);
                            e = Expr::Member {
                                object: Box::new(e),
                                property: MemberProp::Computed(Box::new(idx)),
                                optional: true,
                                span,
                            };
                        }
                        TokenKind::Ident(n) => {
                            let prop = Ident { name: *n, span: self.cur.span };
                            let span = Span::new(e.span().start, self.cur.span.end);
                            self.advance()?;
                            e = Expr::Member {
                                object: Box::new(e),
                                property: MemberProp::Ident(prop),
                                optional: true,
                                span,
                            };
                        }
                        TokenKind::Keyword(kw) => {
                            let prop = Ident { name: kw.atom(), span: self.cur.span };
                            let span = Span::new(e.span().start, self.cur.span.end);
                            self.advance()?;
                            e = Expr::Member {
                                object: Box::new(e),
                                property: MemberProp::Ident(prop),
                                optional: true,
                                span,
                            };
                        }
                        TokenKind::PrivateName(n) => {
                            let prop = Ident { name: *n, span: self.cur.span };
                            let span = Span::new(e.span().start, self.cur.span.end);
                            self.advance()?;
                            e = Expr::Member {
                                object: Box::new(e),
                                property: MemberProp::Private(prop),
                                optional: true,
                                span,
                            };
                        }
                        _ => return Err(self.unexpected("optional chain")),
                    }
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.chain_link(links)?;
                    self.advance()?;
                    let idx = self.parse_expr(true)?;
                    let end = self.cur.span.end;
                    self.expect_punct(Punct::RBracket)?;
                    let span = Span::new(e.span().start, end);
                    e = Expr::Member {
                        object: Box::new(e),
                        property: MemberProp::Computed(Box::new(idx)),
                        optional: false,
                        span,
                    };
                }
                TokenKind::Punct(Punct::LParen) => {
                    self.chain_link(links)?;
                    let (args, end) = self.parse_args()?;
                    let span = Span::new(e.span().start, end);
                    e = Expr::Call { callee: Box::new(e), args, span };
                }
                TokenKind::TemplateNoSub { .. } | TokenKind::TemplateHead { .. } => {
                    self.chain_link(links)?;
                    let (quasis, exprs, end) = self.parse_template_parts()?;
                    let span = Span::new(e.span().start, end);
                    e = Expr::TaggedTemplate { tag: Box::new(e), quasis, exprs, span };
                }
                _ => break,
            }
        }
        Ok(e)
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
        let r = self.parse_member_only_chain(e, &mut links);
        self.chain_release(links);
        r
    }

    fn parse_member_only_chain(
        &mut self,
        mut e: Expr,
        links: &mut u32,
    ) -> Result<Expr, ParseError> {
        loop {
            match &self.cur.kind {
                TokenKind::Punct(Punct::Dot) => {
                    self.chain_link(links)?;
                    self.advance()?;
                    if let TokenKind::PrivateName(n) = &self.cur.kind {
                        let prop = Ident { name: *n, span: self.cur.span };
                        let span = Span::new(e.span().start, self.cur.span.end);
                        self.advance()?;
                        e = Expr::Member {
                            object: Box::new(e),
                            property: MemberProp::Private(prop),
                            optional: false,
                            span,
                        };
                        continue;
                    }
                    let name = match &self.cur.kind {
                        TokenKind::Ident(n) => *n,
                        TokenKind::Keyword(kw) => kw.atom(),
                        _ => return Err(self.unexpected("property name")),
                    };
                    let pspan = self.cur.span;
                    self.advance()?;
                    let span = Span::new(e.span().start, pspan.end);
                    e = Expr::Member {
                        object: Box::new(e),
                        property: MemberProp::Ident(Ident { name, span: pspan }),
                        optional: false,
                        span,
                    };
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.chain_link(links)?;
                    self.advance()?;
                    let idx = self.parse_expr(true)?;
                    let end = self.cur.span.end;
                    self.expect_punct(Punct::RBracket)?;
                    let span = Span::new(e.span().start, end);
                    e = Expr::Member {
                        object: Box::new(e),
                        property: MemberProp::Computed(Box::new(idx)),
                        optional: false,
                        span,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn parse_args(&mut self) -> Result<(Vec<Expr>, u32), ParseError> {
        self.expect_punct(Punct::LParen)?;
        let mut args = Vec::new();
        while !self.is_punct(Punct::RParen) {
            if self.is_punct(Punct::Ellipsis) {
                let start = self.cur.span.start;
                self.advance()?;
                let arg = self.parse_assignment(true)?;
                let span = Span::new(start, arg.span().end);
                args.push(Expr::Spread { arg: Box::new(arg), span });
            } else {
                args.push(self.parse_assignment(true)?);
            }
            if !self.eat_punct(Punct::Comma)? {
                break;
            }
        }
        let end = self.cur.span.end;
        self.expect_punct(Punct::RParen)?;
        Ok((args, end))
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        self.rescan_regex_if_slash()?;
        let span = self.cur.span;
        match &self.cur.kind {
            TokenKind::Num(n) => {
                let raw = span_raw_placeholder();
                let e = Expr::Lit(Lit { value: LitValue::Num(*n), raw, span });
                self.advance()?;
                Ok(e)
            }
            TokenKind::BigInt(d) => {
                let e = Expr::Lit(Lit {
                    value: LitValue::BigInt(*d),
                    raw: span_raw_placeholder(),
                    span,
                });
                self.advance()?;
                Ok(e)
            }
            TokenKind::Str(s) => {
                let e =
                    Expr::Lit(Lit { value: LitValue::Str(*s), raw: span_raw_placeholder(), span });
                self.advance()?;
                Ok(e)
            }
            TokenKind::Regex { pattern, flags } => {
                let e = Expr::Lit(Lit {
                    value: LitValue::Regex { pattern: *pattern, flags: *flags },
                    raw: span_raw_placeholder(),
                    span,
                });
                self.advance()?;
                Ok(e)
            }
            TokenKind::Keyword(Kw::True) => {
                self.advance()?;
                Ok(Expr::Lit(Lit { value: LitValue::Bool(true), raw: Atom::empty(), span }))
            }
            TokenKind::Keyword(Kw::False) => {
                self.advance()?;
                Ok(Expr::Lit(Lit { value: LitValue::Bool(false), raw: Atom::empty(), span }))
            }
            TokenKind::Keyword(Kw::Null) => {
                self.advance()?;
                Ok(Expr::Lit(Lit { value: LitValue::Null, raw: Atom::empty(), span }))
            }
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
            TokenKind::Punct(Punct::LParen) => {
                self.advance()?;
                let e = self.parse_expr(true)?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
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
        self.expect_punct(Punct::LBracket)?;
        let mut elements = Vec::new();
        while !self.is_punct(Punct::RBracket) {
            if self.is_punct(Punct::Comma) {
                // Hole.
                elements.push(None);
                self.advance()?;
                continue;
            }
            if self.is_punct(Punct::Ellipsis) {
                let sstart = self.cur.span.start;
                self.advance()?;
                let arg = self.parse_assignment(true)?;
                let span = Span::new(sstart, arg.span().end);
                elements.push(Some(Expr::Spread { arg: Box::new(arg), span }));
            } else {
                elements.push(Some(self.parse_assignment(true)?));
            }
            if !self.eat_punct(Punct::Comma)? {
                break;
            }
        }
        let end = self.cur.span.end;
        self.expect_punct(Punct::RBracket)?;
        Ok(Expr::Array { elements, span: Span::new(start, end) })
    }

    fn parse_object_literal(&mut self) -> Result<Expr, ParseError> {
        let start = self.cur.span.start;
        self.expect_punct(Punct::LBrace)?;
        let mut props = Vec::new();
        while !self.is_punct(Punct::RBrace) {
            props.push(self.parse_object_prop()?);
            if !self.eat_punct(Punct::Comma)? {
                break;
            }
        }
        let end = self.cur.span.end;
        self.expect_punct(Punct::RBrace)?;
        Ok(Expr::Object { props, span: Span::new(start, end) })
    }

    fn parse_object_prop(&mut self) -> Result<Property, ParseError> {
        let start = self.cur.span.start;

        // Spread property `{...e}` modeled as init property with spread value.
        if self.is_punct(Punct::Ellipsis) {
            self.advance()?;
            let arg = self.parse_assignment(true)?;
            let span = Span::new(start, arg.span().end);
            return Ok(Property {
                key: PropKey::Ident(Ident::new("...")),
                value: Expr::Spread { arg: Box::new(arg), span },
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
            let (body, end) = self.parse_fn_body()?;
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
        if kind != PropKind::Init {
            return Err(self.err_here("getter/setter requires a parameter list"));
        }

        // `key: value`.
        if self.eat_punct(Punct::Colon)? {
            let value = self.parse_assignment(true)?;
            let span = Span::new(start, value.span().end);
            return Ok(Property {
                key,
                value,
                kind: PropKind::Init,
                computed,
                shorthand: false,
                method: false,
                span,
            });
        }

        // Shorthand `{a}` or `{a = default}` (the latter only valid in
        // patterns; parsed as assignment for cover-grammar purposes).
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
        let span = Span::new(start, value.span().end);
        Ok(Property {
            key,
            value,
            kind: PropKind::Init,
            computed: false,
            shorthand: true,
            method: false,
            span,
        })
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

fn span_raw_placeholder() -> Atom {
    Atom::empty()
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
                        let rstart = self.cur.span.start;
                        self.advance()?;
                        let arg = self.parse_binding_pat()?;
                        let span = Span::new(rstart, arg.span().end);
                        elements.push(Some(Pat::Rest { arg: Box::new(arg), span }));
                        break;
                    }
                    let mut p = self.parse_binding_pat()?;
                    if self.eat_punct(Punct::Eq)? {
                        let value = self.parse_assignment(true)?;
                        let span = Span::new(p.span().start, value.span().end);
                        p = Pat::Assign { target: Box::new(p), value: Box::new(value), span };
                    }
                    elements.push(Some(p));
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
                        let rstart = self.cur.span.start;
                        self.advance()?;
                        let arg = self.parse_binding_pat()?;
                        let span = Span::new(rstart, arg.span().end);
                        props.push(ObjectPatProp {
                            key: PropKey::Ident(Ident::new("...")),
                            value: Pat::Rest { arg: Box::new(arg), span },
                            computed: false,
                            shorthand: false,
                            span,
                        });
                        break;
                    }
                    let pstart = self.cur.span.start;
                    let (key, computed) = self.parse_prop_key()?;
                    let (value, shorthand) = if self.eat_punct(Punct::Colon)? {
                        let mut p = self.parse_binding_pat()?;
                        if self.eat_punct(Punct::Eq)? {
                            let v = self.parse_assignment(true)?;
                            let span = Span::new(p.span().start, v.span().end);
                            p = Pat::Assign { target: Box::new(p), value: Box::new(v), span };
                        }
                        (p, false)
                    } else {
                        // Shorthand: `{a}` or `{a = default}`.
                        let name = match &key {
                            PropKey::Ident(i) => *i,
                            _ => return Err(self.err_here("invalid shorthand pattern")),
                        };
                        let mut p = Pat::Ident(name);
                        if self.eat_punct(Punct::Eq)? {
                            let v = self.parse_assignment(true)?;
                            let span = Span::new(p.span().start, v.span().end);
                            p = Pat::Assign { target: Box::new(p), value: Box::new(v), span };
                        }
                        (p, true)
                    };
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
}

struct DepthGuard;

/// Reinterprets an expression as an assignment-target pattern
/// (`for (x of ...)`, `[a, b] = c`).
pub(crate) fn expr_to_pat(e: Expr) -> Result<Pat, ParseError> {
    let pos = e.span().start;
    match e {
        Expr::Ident(i) => Ok(Pat::Ident(i)),
        Expr::Member { .. } => Ok(Pat::Member(Box::new(e))),
        Expr::Array { elements, span } => {
            let mut pats = Vec::new();
            for el in elements {
                match el {
                    None => pats.push(None),
                    Some(Expr::Spread { arg, span }) => {
                        let p = expr_to_pat(*arg)?;
                        pats.push(Some(Pat::Rest { arg: Box::new(p), span }));
                    }
                    Some(e) => pats.push(Some(expr_to_pat(e)?)),
                }
            }
            Ok(Pat::Array { elements: pats, span })
        }
        Expr::Object { props, span } => {
            let mut out = Vec::new();
            for p in props {
                let value = match p.value {
                    // `{...rest}` in assignment position → object rest.
                    Expr::Spread { arg, span } => {
                        Pat::Rest { arg: Box::new(expr_to_pat(*arg)?), span }
                    }
                    v => expr_to_pat(v)?,
                };
                out.push(ObjectPatProp {
                    key: p.key,
                    value,
                    computed: p.computed,
                    shorthand: p.shorthand,
                    span: p.span,
                });
            }
            Ok(Pat::Object { props: out, span })
        }
        Expr::Assign { op: AssignOp::Assign, target, value, span } => {
            Ok(Pat::Assign { target, value, span })
        }
        _ => Err(ParseError::new("invalid assignment target", pos)),
    }
}
