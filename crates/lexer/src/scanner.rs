//! The scanner: turns source text into [`Token`]s.
//!
//! This is the zero-copy byte-level implementation: a 256-entry byte-class
//! table ([`CLASS`]) drives dispatch, whitespace/identifier/string runs
//! advance with tight inner loops over `&[u8]`, and token payloads are
//! interned [`jsdetect_ast::Atom`]s built directly from source slices — the
//! common case (no escapes, no numeric separators) never allocates.
//! `crates/lexer/src/reference.rs` preserves the original character-level
//! scanner as a differential oracle.

use crate::token::{Comment, Kw, Punct, Token, TokenKind};
use jsdetect_ast::{Atom, Span};
use jsdetect_guard::Budget;
use std::fmt;

/// A lexical error with its byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset where the error occurred.
    pub pos: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for LexError {}

/// Byte classes for the 256-entry dispatch table. One table lookup replaces
/// the chain of range tests the scanner previously ran per token start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Class {
    /// `0-9`
    Digit,
    /// `"` or `'`
    Quote,
    /// `` ` ``
    Backtick,
    /// `/` — comment, regex, or division depending on context
    Slash,
    /// ASCII letter, `$`, `_`, or `\` (unicode-escape ident start)
    IdentStart,
    /// `.` — punctuator unless followed by a digit
    Dot,
    /// Bytes `>= 0x80`: decode a char, then classify
    Unicode,
    /// Everything else ASCII: punctuator or error
    Other,
}

/// Byte → [`Class`] dispatch table for token starts.
const CLASS: [Class; 256] = {
    let mut t = [Class::Other; 256];
    let mut b = 0usize;
    while b < 256 {
        let c = b as u8;
        t[b] = if c.is_ascii_digit() {
            Class::Digit
        } else if c == b'"' || c == b'\'' {
            Class::Quote
        } else if c == b'`' {
            Class::Backtick
        } else if c == b'/' {
            Class::Slash
        } else if c.is_ascii_alphabetic() || c == b'$' || c == b'_' || c == b'\\' {
            Class::IdentStart
        } else if c == b'.' {
            Class::Dot
        } else if c >= 0x80 {
            Class::Unicode
        } else {
            Class::Other
        };
        b += 1;
    }
    t
};

/// `true` for ASCII bytes that continue an identifier (`[A-Za-z0-9$_]`).
/// Drives the tight identifier run loop; bytes `>= 0x80` and `\` fall out of
/// the loop and are handled by the slow path.
const IDENT_PART: [bool; 256] = {
    let mut t = [false; 256];
    let mut b = 0usize;
    while b < 128 {
        let c = b as u8;
        t[b] = c.is_ascii_alphanumeric() || c == b'$' || c == b'_';
        b += 1;
    }
    t
};

/// `true` for simple ASCII whitespace (space, tab, VT, FF) — the bytes the
/// trivia skipper can consume in a run without any bookkeeping.
const WS_SIMPLE: [bool; 256] = {
    let mut t = [false; 256];
    t[b' ' as usize] = true;
    t[b'\t' as usize] = true;
    t[0x0b] = true;
    t[0x0c] = true;
    t
};

/// On-demand lexer over a source string.
///
/// The parser drives the lexer, supplying context for the two ambiguities a
/// JavaScript tokenizer cannot resolve alone: whether `/` begins a regular
/// expression ([`Lexer::next_token`]'s `regex_allowed`) and whether `}`
/// continues a template literal ([`Lexer::continue_template`]).
#[derive(Debug)]
pub struct Lexer<'s> {
    src: &'s str,
    pos: usize,
    comments: Vec<Comment>,
    budget: Option<&'s Budget>,
}

impl<'s> Lexer<'s> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'s str) -> Self {
        Lexer { src, pos: 0, comments: Vec::new(), budget: None }
    }

    /// Creates a lexer that charges every produced token to `budget`.
    pub fn with_budget(src: &'s str, budget: &'s Budget) -> Self {
        Lexer { src, pos: 0, comments: Vec::new(), budget: Some(budget) }
    }

    /// Consumes the lexer, returning all comments encountered.
    pub fn into_comments(self) -> Vec<Comment> {
        self.comments
    }

    /// Re-lexes a token that began at `start` as a regular-expression
    /// literal. Used by the parser when it knows a `/` or `/=` token sits
    /// at an expression-start position.
    pub fn rescan_regex(&mut self, start: u32, newline_before: bool) -> Result<Token, LexError> {
        self.pos = start as usize;
        debug_assert_eq!(self.peek(), Some(b'/'));
        let kind = self.lex_regex()?;
        self.charge()?;
        Ok(Token { kind, span: Span::new(start, self.pos as u32), newline_before })
    }

    fn bytes(&self) -> &[u8] {
        self.src.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes().get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn peek_char(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump_char(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn err(&self, msg: impl Into<String>) -> LexError {
        LexError { msg: msg.into(), pos: self.pos as u32 }
    }

    /// Charges one produced token to the budget (if any). A budget violation
    /// is downgraded to a `LexError` here — the typed cause stays recorded in
    /// the budget for callers to recover via `Budget::take_violation`.
    fn charge(&mut self) -> Result<(), LexError> {
        if let Some(budget) = self.budget {
            budget
                .charge_tokens(1)
                .map_err(|e| LexError { msg: e.to_string(), pos: self.pos as u32 })?;
        }
        Ok(())
    }

    /// Skips whitespace and comments; returns whether a line terminator was
    /// crossed. Simple whitespace advances in a run loop; only comment
    /// delimiters and non-ASCII bytes take the per-byte match.
    fn skip_trivia(&mut self) -> Result<bool, LexError> {
        let mut newline = false;
        let bytes = self.src.as_bytes();
        let len = bytes.len();
        loop {
            let b = match bytes.get(self.pos) {
                None => break,
                Some(&b) => b,
            };
            match b {
                _ if WS_SIMPLE[b as usize] => {
                    self.pos += 1;
                    while self.pos < len && WS_SIMPLE[bytes[self.pos] as usize] {
                        self.pos += 1;
                    }
                }
                b'\n' | b'\r' => {
                    newline = true;
                    self.pos += 1;
                }
                b'/' if self.peek_at(1) == Some(b'/') => {
                    let start = self.pos;
                    self.pos += 2;
                    while self.pos < len && bytes[self.pos] != b'\n' && bytes[self.pos] != b'\r' {
                        self.pos += 1;
                    }
                    self.comments.push(Comment {
                        span: Span::new(start as u32, self.pos as u32),
                        block: false,
                    });
                }
                b'/' if self.peek_at(1) == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        // Run to the next byte that needs a decision.
                        while self.pos < len
                            && bytes[self.pos] != b'*'
                            && bytes[self.pos] != b'\n'
                            && bytes[self.pos] != b'\r'
                        {
                            self.pos += 1;
                        }
                        match bytes.get(self.pos) {
                            None => return Err(self.err("unterminated block comment")),
                            Some(b'*') if bytes.get(self.pos + 1) == Some(&b'/') => {
                                self.pos += 2;
                                break;
                            }
                            Some(b'\n') | Some(b'\r') => {
                                newline = true;
                                self.pos += 1;
                            }
                            _ => {
                                self.pos += 1;
                            }
                        }
                    }
                    self.comments.push(Comment {
                        span: Span::new(start as u32, self.pos as u32),
                        block: true,
                    });
                }
                b if b >= 0x80 => {
                    // Unicode whitespace / line separators.
                    let c = self.peek_char().unwrap();
                    if c == '\u{2028}' || c == '\u{2029}' {
                        newline = true;
                        self.pos += c.len_utf8();
                    } else if c.is_whitespace() {
                        self.pos += c.len_utf8();
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        Ok(newline)
    }

    /// Lexes the next token. `regex_allowed` tells the scanner whether a
    /// leading `/` starts a regular expression (true) or a division
    /// operator (false).
    pub fn next_token(&mut self, regex_allowed: bool) -> Result<Token, LexError> {
        let newline_before = self.skip_trivia()?;
        let start = self.pos as u32;
        let kind = match self.peek() {
            None => TokenKind::Eof,
            Some(b) => match CLASS[b as usize] {
                Class::Digit => self.lex_number()?,
                Class::Quote => self.lex_string()?,
                Class::Backtick => self.lex_template_start()?,
                Class::Slash if regex_allowed => self.lex_regex()?,
                Class::Slash => self.lex_punct()?,
                Class::IdentStart => self.lex_ident()?,
                Class::Unicode => {
                    let c = self.peek_char().unwrap();
                    if is_ident_start_char(c) {
                        self.lex_ident()?
                    } else {
                        return Err(self.err(format!("unexpected character `{}`", c)));
                    }
                }
                Class::Dot if matches!(self.peek_at(1), Some(b'0'..=b'9')) => self.lex_number()?,
                Class::Other if b == b'#' => self.lex_private_name()?,
                Class::Dot | Class::Other => self.lex_punct()?,
            },
        };
        self.charge()?;
        Ok(Token { kind, span: Span::new(start, self.pos as u32), newline_before })
    }

    /// Re-lexes a `}` (whose token started at `rbrace_start`) as a template
    /// continuation, producing a `TemplateMiddle` or `TemplateTail` token.
    pub fn continue_template(&mut self, rbrace_start: u32) -> Result<Token, LexError> {
        self.pos = rbrace_start as usize;
        debug_assert_eq!(self.peek(), Some(b'}'));
        self.pos += 1; // consume `}`
        let start = rbrace_start;
        let (cooked, raw, is_tail) = self.scan_template_chars()?;
        let kind = if is_tail {
            TokenKind::TemplateTail { cooked, raw }
        } else {
            TokenKind::TemplateMiddle { cooked, raw }
        };
        self.charge()?;
        Ok(Token { kind, span: Span::new(start, self.pos as u32), newline_before: false })
    }

    /// Lexes a `#name` private name (class fields/methods, ES2022). A `#`
    /// not followed by an identifier keeps the historical "unexpected
    /// character" error at the `#` position.
    fn lex_private_name(&mut self) -> Result<TokenKind, LexError> {
        let hash = self.pos;
        self.pos += 1;
        let starts_ident = match self.peek() {
            Some(b'\\') => self.peek_at(1) == Some(b'u'),
            Some(b) if b < 0x80 => matches!(CLASS[b as usize], Class::IdentStart),
            Some(_) => self.peek_char().is_some_and(is_ident_start_char),
            None => false,
        };
        if !starts_ident {
            self.pos = hash;
            return Err(self.err("unexpected character `#`"));
        }
        match self.lex_ident()? {
            TokenKind::Ident(a) => Ok(TokenKind::PrivateName(a)),
            // Keywords are valid private names (`#new`, `#if`).
            TokenKind::Keyword(kw) => Ok(TokenKind::PrivateName(kw.atom())),
            _ => unreachable!("lex_ident yields only Ident/Keyword"),
        }
    }

    fn lex_ident(&mut self) -> Result<TokenKind, LexError> {
        let start = self.pos;
        let bytes = self.src.as_bytes();
        let len = bytes.len();
        // Fast path: pure-ASCII identifier, interned straight from the
        // source slice — no per-token allocation.
        let mut p = self.pos;
        while p < len && IDENT_PART[bytes[p] as usize] {
            p += 1;
        }
        match bytes.get(p) {
            Some(b'\\') if bytes.get(p + 1) == Some(&b'u') => {
                self.pos = p;
                return self.lex_ident_slow(start);
            }
            Some(&b) if b >= 0x80 => {
                // Might be a unicode ident-part; let the slow path decide.
                self.pos = p;
                return self.lex_ident_slow(start);
            }
            _ => {}
        }
        self.pos = p;
        let text = &self.src[start..p];
        if text.is_empty() {
            // Only reachable via a leading `\` not followed by `u`.
            return Err(self.err("empty identifier"));
        }
        if let Some(kw) = Kw::lookup(text) {
            return Ok(TokenKind::Keyword(kw));
        }
        Ok(TokenKind::Ident(Atom::new(text)))
    }

    /// Slow path for identifiers containing `\u` escapes or non-ASCII
    /// characters. `start` is the identifier's first byte; `self.pos` sits at
    /// the first byte the fast path could not consume.
    fn lex_ident_slow(&mut self, start: usize) -> Result<TokenKind, LexError> {
        let mut has_escape = false;
        let mut name = String::from(&self.src[start..self.pos]);
        loop {
            match self.peek() {
                Some(b'\\') if self.peek_at(1) == Some(b'u') => {
                    has_escape = true;
                    self.pos += 2;
                    let c = self.lex_unicode_escape_body()?;
                    name.push(c);
                }
                Some(b) if IDENT_PART[b as usize] => {
                    name.push(b as char);
                    self.pos += 1;
                }
                Some(b) if b >= 0x80 => {
                    let c = self.peek_char().unwrap();
                    if is_ident_part_char(c) {
                        name.push(c);
                        self.pos += c.len_utf8();
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        if name.is_empty() {
            self.pos = start;
            return Err(self.err("empty identifier"));
        }
        if !has_escape {
            if let Some(kw) = Kw::lookup(&name) {
                return Ok(TokenKind::Keyword(kw));
            }
        }
        Ok(TokenKind::Ident(Atom::new(&name)))
    }

    fn lex_unicode_escape_body(&mut self) -> Result<char, LexError> {
        // Positioned after `\u`.
        if self.peek() == Some(b'{') {
            self.pos += 1;
            let mut v: u32 = 0;
            let mut digits = 0;
            while let Some(b) = self.peek() {
                if b == b'}' {
                    break;
                }
                let d = (b as char).to_digit(16).ok_or_else(|| self.err("bad unicode escape"))?;
                v = v.wrapping_mul(16).wrapping_add(d);
                digits += 1;
                self.pos += 1;
            }
            if self.peek() != Some(b'}') || digits == 0 {
                return Err(self.err("unterminated unicode escape"));
            }
            self.pos += 1;
            char::from_u32(v).ok_or_else(|| self.err("invalid code point"))
        } else {
            let mut v: u32 = 0;
            for _ in 0..4 {
                let b = self.peek().ok_or_else(|| self.err("truncated unicode escape"))?;
                let d = (b as char).to_digit(16).ok_or_else(|| self.err("bad unicode escape"))?;
                v = v * 16 + d;
                self.pos += 1;
            }
            char::from_u32(v).ok_or_else(|| self.err("invalid code point"))
        }
    }

    fn lex_number(&mut self) -> Result<TokenKind, LexError> {
        let start = self.pos;
        let b0 = self.peek().unwrap();
        if b0 == b'0' {
            match self.peek_at(1) {
                Some(b'x') | Some(b'X') => return self.lex_radix_number(16, 2),
                Some(b'o') | Some(b'O') => return self.lex_radix_number(8, 2),
                Some(b'b') | Some(b'B') => return self.lex_radix_number(2, 2),
                Some(b'0'..=b'7') => {
                    // Legacy octal: 0123. If it contains 8/9 it is decimal.
                    let mut p = self.pos + 1;
                    let mut octal = true;
                    while let Some(&d) = self.bytes().get(p) {
                        match d {
                            b'0'..=b'7' => p += 1,
                            b'8' | b'9' => {
                                octal = false;
                                p += 1;
                            }
                            _ => break,
                        }
                    }
                    // A trailing `.` or exponent makes it decimal.
                    if octal && !matches!(self.bytes().get(p), Some(b'.') | Some(b'e') | Some(b'E'))
                    {
                        self.pos += 1;
                        return self.lex_radix_number(8, 0);
                    }
                }
                _ => {}
            }
        }
        // Decimal: integer part, optional fraction, optional exponent.
        let mut saw_digit = false;
        let mut saw_sep = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    saw_digit = true;
                    self.pos += 1;
                }
                b'_' => {
                    saw_sep = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while let Some(b) = self.peek() {
                match b {
                    b'0'..=b'9' => {
                        saw_digit = true;
                        self.pos += 1;
                    }
                    b'_' => {
                        saw_sep = true;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
        }
        if !saw_digit {
            return Err(self.err("malformed number"));
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let save = self.pos;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let mut exp_digits = false;
            while let Some(b'0'..=b'9') = self.peek() {
                exp_digits = true;
                self.pos += 1;
            }
            if !exp_digits {
                self.pos = save;
            }
        }
        if self.peek() == Some(b'n') {
            // BigInt suffix: keep the raw digits exact (the value does not
            // fit f64), so printing round-trips bit-for-bit.
            let raw = Atom::new(&self.src[start..self.pos]);
            self.pos += 1;
            return Ok(TokenKind::BigInt(raw));
        }
        // Fast path: no numeric separators, parse straight from the slice.
        let v = if saw_sep {
            let text: String = self.src[start..self.pos].chars().filter(|c| *c != '_').collect();
            text.parse::<f64>()
        } else {
            self.src[start..self.pos].parse::<f64>()
        };
        let v = v.map_err(|_| self.err("malformed number"))?;
        Ok(TokenKind::Num(v))
    }

    /// Lexes a radix-prefixed integer; `skip` bytes of prefix are consumed
    /// first (`0x` → 2; legacy octal passes 0 with `pos` already past `0`).
    fn lex_radix_number(&mut self, radix: u32, skip: usize) -> Result<TokenKind, LexError> {
        // The raw slice starts at the prefix (legacy octal enters with
        // `pos` already past the leading `0`).
        let raw_start = if skip == 0 { self.pos - 1 } else { self.pos };
        self.pos += skip;
        let mut v: f64 = 0.0;
        let mut digits = 0;
        while let Some(b) = self.peek() {
            if b == b'_' {
                self.pos += 1;
                continue;
            }
            match (b as char).to_digit(radix) {
                Some(d) => {
                    v = v * radix as f64 + d as f64;
                    digits += 1;
                    self.pos += 1;
                }
                None => break,
            }
        }
        if digits == 0 {
            return Err(self.err("missing digits in number"));
        }
        if self.peek() == Some(b'n') {
            // BigInt suffix: keep the raw prefixed digits exact.
            let raw = Atom::new(&self.src[raw_start..self.pos]);
            self.pos += 1;
            return Ok(TokenKind::BigInt(raw));
        }
        Ok(TokenKind::Num(v))
    }

    fn lex_string(&mut self) -> Result<TokenKind, LexError> {
        let quote = self.bump().unwrap();
        let bytes = self.src.as_bytes();
        let content_start = self.pos;
        // Fast path: scan bytes until a sentinel. Multi-byte UTF-8 sequences
        // pass through untouched (all their bytes are >= 0x80), so the
        // escape-free cooked value is exactly the source slice.
        let mut p = self.pos;
        loop {
            match bytes.get(p) {
                None | Some(b'\n') | Some(b'\r') => {
                    self.pos = p;
                    return Err(self.err("unterminated string literal"));
                }
                Some(&b) if b == quote => {
                    let value = Atom::new(&self.src[content_start..p]);
                    self.pos = p + 1;
                    return Ok(TokenKind::Str(value));
                }
                Some(b'\\') => break,
                Some(_) => p += 1,
            }
        }
        // Slow path: at least one escape; cook into a buffer seeded with the
        // escape-free prefix.
        let mut value = String::from(&self.src[content_start..p]);
        self.pos = p;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string literal")),
                Some(b'\n') | Some(b'\r') => return Err(self.err("unterminated string literal")),
                Some(b) if b == quote => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.lex_escape_into(&mut value)?;
                }
                Some(b) if b < 0x80 => {
                    value.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    let c = self.bump_char().unwrap();
                    value.push(c);
                }
            }
        }
        Ok(TokenKind::Str(Atom::new(&value)))
    }

    fn lex_escape_into(&mut self, out: &mut String) -> Result<(), LexError> {
        let c = self.bump_char().ok_or_else(|| self.err("truncated escape"))?;
        match c {
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'r' => out.push('\r'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'v' => out.push('\u{b}'),
            '0' if !matches!(self.peek(), Some(b'0'..=b'9')) => out.push('\0'),
            'x' => {
                let mut v = 0u32;
                for _ in 0..2 {
                    let b = self.peek().ok_or_else(|| self.err("truncated hex escape"))?;
                    let d = (b as char).to_digit(16).ok_or_else(|| self.err("bad hex escape"))?;
                    v = v * 16 + d;
                    self.pos += 1;
                }
                out.push(char::from_u32(v).unwrap());
            }
            'u' => {
                let c = self.lex_unicode_escape_body()?;
                out.push(c);
            }
            '\n' => {}
            '\r' => {
                if self.peek() == Some(b'\n') {
                    self.pos += 1;
                }
            }
            '0'..='7' => {
                // Legacy octal escape: up to 3 octal digits.
                let mut v = c.to_digit(8).unwrap();
                for _ in 0..2 {
                    match self.peek() {
                        Some(b @ b'0'..=b'7') if v * 8 + ((b - b'0') as u32) <= 255 => {
                            v = v * 8 + (b - b'0') as u32;
                            self.pos += 1;
                        }
                        _ => break,
                    }
                }
                out.push(char::from_u32(v).unwrap());
            }
            other => out.push(other),
        }
        Ok(())
    }

    fn lex_template_start(&mut self) -> Result<TokenKind, LexError> {
        self.pos += 1; // backtick
        let (cooked, raw, is_tail) = self.scan_template_chars()?;
        Ok(if is_tail {
            TokenKind::TemplateNoSub { cooked, raw }
        } else {
            TokenKind::TemplateHead { cooked, raw }
        })
    }

    /// Scans template characters until `` ` `` (tail) or `${` (head/middle).
    /// Returns `(cooked, raw, is_tail)`. Escape-free chunks are zero-copy:
    /// cooked and raw are the same source slice (and thus the same atom).
    fn scan_template_chars(&mut self) -> Result<(Atom, Atom, bool), LexError> {
        let raw_start = self.pos;
        let bytes = self.src.as_bytes();
        // Fast path: only `` ` ``, `${`, `\` and EOF stop the byte run;
        // newlines and multi-byte UTF-8 flow through.
        let mut p = self.pos;
        loop {
            match bytes.get(p) {
                None => {
                    self.pos = p;
                    return Err(self.err("unterminated template literal"));
                }
                Some(b'`') => {
                    let chunk = Atom::new(&self.src[raw_start..p]);
                    self.pos = p + 1;
                    return Ok((chunk, chunk, true));
                }
                Some(b'$') if bytes.get(p + 1) == Some(&b'{') => {
                    let chunk = Atom::new(&self.src[raw_start..p]);
                    self.pos = p + 2;
                    return Ok((chunk, chunk, false));
                }
                Some(b'\\') => break,
                Some(_) => p += 1,
            }
        }
        // Slow path: escapes present; cooked diverges from raw.
        let mut cooked = String::from(&self.src[raw_start..p]);
        self.pos = p;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated template literal")),
                Some(b'`') => {
                    let raw = Atom::new(&self.src[raw_start..self.pos]);
                    self.pos += 1;
                    return Ok((Atom::new(&cooked), raw, true));
                }
                Some(b'$') if self.peek_at(1) == Some(b'{') => {
                    let raw = Atom::new(&self.src[raw_start..self.pos]);
                    self.pos += 2;
                    return Ok((Atom::new(&cooked), raw, false));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.lex_escape_into(&mut cooked)?;
                }
                Some(b) if b < 0x80 => {
                    cooked.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    let c = self.bump_char().unwrap();
                    cooked.push(c);
                }
            }
        }
    }

    fn lex_regex(&mut self) -> Result<TokenKind, LexError> {
        self.pos += 1; // leading slash
        let pat_start = self.pos;
        let mut in_class = false;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated regex literal")),
                Some(b'\n') | Some(b'\r') => return Err(self.err("unterminated regex literal")),
                Some(b'\\') => {
                    // Consume the backslash plus one full (possibly
                    // multi-byte) escaped character.
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'\n') | Some(b'\r')) {
                        return Err(self.err("unterminated regex literal"));
                    }
                    self.bump_char();
                }
                Some(b'[') => {
                    in_class = true;
                    self.pos += 1;
                }
                Some(b']') => {
                    in_class = false;
                    self.pos += 1;
                }
                Some(b'/') if !in_class => break,
                Some(b) if b < 0x80 => {
                    self.pos += 1;
                }
                Some(_) => {
                    self.bump_char();
                }
            }
        }
        let pattern = Atom::new(&self.src[pat_start..self.pos]);
        self.pos += 1; // closing slash
        let flag_start = self.pos;
        while let Some(b) = self.peek() {
            if IDENT_PART[b as usize] {
                self.pos += 1;
            } else {
                break;
            }
        }
        let flags = Atom::new(&self.src[flag_start..self.pos]);
        Ok(TokenKind::Regex { pattern, flags })
    }

    /// Punctuator dispatch: a nested match on the first byte replaces the
    /// old linear longest-match table scan (59 prefix comparisons worst
    /// case → at most three byte reads).
    fn lex_punct(&mut self) -> Result<TokenKind, LexError> {
        use Punct::*;
        let b0 = self.peek().unwrap();
        let b1 = self.peek_at(1);
        let b2 = self.peek_at(2);
        let (p, len) = match b0 {
            b'(' => (LParen, 1),
            b')' => (RParen, 1),
            b'[' => (LBracket, 1),
            b']' => (RBracket, 1),
            b'{' => (LBrace, 1),
            b'}' => (RBrace, 1),
            b';' => (Semi, 1),
            b',' => (Comma, 1),
            b':' => (Colon, 1),
            b'~' => (Tilde, 1),
            b'.' => {
                if b1 == Some(b'.') && b2 == Some(b'.') {
                    (Ellipsis, 3)
                } else {
                    (Dot, 1)
                }
            }
            b'=' => match b1 {
                Some(b'=') if b2 == Some(b'=') => (EqEqEq, 3),
                Some(b'=') => (EqEq, 2),
                Some(b'>') => (Arrow, 2),
                _ => (Eq, 1),
            },
            b'!' => match b1 {
                Some(b'=') if b2 == Some(b'=') => (NotEqEq, 3),
                Some(b'=') => (NotEq, 2),
                _ => (Bang, 1),
            },
            b'<' => match b1 {
                Some(b'<') if b2 == Some(b'=') => (ShlEq, 3),
                Some(b'<') => (Shl, 2),
                Some(b'=') => (LtEq, 2),
                _ => (Lt, 1),
            },
            b'>' => match b1 {
                Some(b'>') if b2 == Some(b'>') => {
                    if self.peek_at(3) == Some(b'=') {
                        (UShrEq, 4)
                    } else {
                        (UShr, 3)
                    }
                }
                Some(b'>') if b2 == Some(b'=') => (ShrEq, 3),
                Some(b'>') => (Shr, 2),
                Some(b'=') => (GtEq, 2),
                _ => (Gt, 1),
            },
            b'&' => match b1 {
                Some(b'&') if b2 == Some(b'=') => (AmpAmpEq, 3),
                Some(b'&') => (AmpAmp, 2),
                Some(b'=') => (AmpEq, 2),
                _ => (Amp, 1),
            },
            b'|' => match b1 {
                Some(b'|') if b2 == Some(b'=') => (PipePipeEq, 3),
                Some(b'|') => (PipePipe, 2),
                Some(b'=') => (PipeEq, 2),
                _ => (Pipe, 1),
            },
            b'?' => match b1 {
                Some(b'?') if b2 == Some(b'=') => (QuestionQuestionEq, 3),
                Some(b'?') => (QuestionQuestion, 2),
                // `?.3` must lex as `?` then `.3` (optional chain cannot be
                // followed by a digit).
                Some(b'.') if !matches!(b2, Some(b'0'..=b'9')) => (OptionalChain, 2),
                _ => (Question, 1),
            },
            b'+' => match b1 {
                Some(b'+') => (PlusPlus, 2),
                Some(b'=') => (PlusEq, 2),
                _ => (Plus, 1),
            },
            b'-' => match b1 {
                Some(b'-') => (MinusMinus, 2),
                Some(b'=') => (MinusEq, 2),
                _ => (Minus, 1),
            },
            b'*' => match b1 {
                Some(b'*') if b2 == Some(b'=') => (StarStarEq, 3),
                Some(b'*') => (StarStar, 2),
                Some(b'=') => (StarEq, 2),
                _ => (Star, 1),
            },
            b'/' => match b1 {
                Some(b'=') => (SlashEq, 2),
                _ => (Slash, 1),
            },
            b'%' => match b1 {
                Some(b'=') => (PercentEq, 2),
                _ => (Percent, 1),
            },
            b'^' => match b1 {
                Some(b'=') => (CaretEq, 2),
                _ => (Caret, 1),
            },
            _ => {
                // Satellite fix: format the offending char directly instead
                // of materializing a one-char `String` first.
                return Err(match self.peek_char() {
                    Some(c) => self.err(format!("unexpected character `{}`", c)),
                    None => self.err("unexpected character ``"),
                });
            }
        };
        self.pos += len;
        Ok(TokenKind::Punct(p))
    }
}

fn is_ident_start_char(c: char) -> bool {
    c.is_alphabetic() || c == '$' || c == '_'
}

fn is_ident_part_char(c: char) -> bool {
    c.is_alphanumeric() || c == '$' || c == '_' || c == '\u{200c}' || c == '\u{200d}'
}

/// Tokenizes an entire source string, applying the standard prev-token
/// heuristic for regex-vs-division disambiguation.
///
/// Template substitutions are resolved with a brace-depth stack, so nested
/// templates lex correctly. The returned vector always ends with an EOF
/// token.
///
/// # Examples
///
/// ```
/// use jsdetect_lexer::{tokenize, TokenKind};
/// let tokens = tokenize("var x = 1;").unwrap();
/// assert_eq!(tokens.len(), 6); // var x = 1 ; EOF
/// assert!(matches!(tokens[3].kind, TokenKind::Num(n) if n == 1.0));
/// ```
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    tokenize_with_comments(src).map(|(tokens, _)| tokens)
}

/// Tokenizes and also returns the comments.
pub fn tokenize_with_comments(src: &str) -> Result<(Vec<Token>, Vec<Comment>), LexError> {
    let mut lexer = Lexer::new(src);
    let mut tokens = Vec::new();
    tokenize_into(&mut lexer, &mut tokens)?;
    Ok((tokens, lexer.into_comments()))
}

/// Best-effort tokenization for the degraded fallback path: returns the
/// prefix of tokens produced before the first lexical error (if any) plus
/// the error itself. With a budget, a budget violation also stops the scan —
/// callers must consult [`Budget::take_violation`] to tell resource
/// exhaustion (reject) from a plain lexical error (degrade).
pub fn tokenize_lossy(
    src: &str,
    budget: Option<&Budget>,
) -> (Vec<Token>, Vec<Comment>, Option<LexError>) {
    let mut lexer = match budget {
        Some(b) => Lexer::with_budget(src, b),
        None => Lexer::new(src),
    };
    let mut tokens = Vec::new();
    let err = tokenize_into(&mut lexer, &mut tokens).err();
    (tokens, lexer.into_comments(), err)
}

/// The shared driver loop behind every `tokenize*` entry point.
fn tokenize_into(lexer: &mut Lexer<'_>, tokens: &mut Vec<Token>) -> Result<(), LexError> {
    let mut regex_allowed = true;
    // Brace-depth bookkeeping: when a `}` closes a template substitution we
    // must re-lex it as a template continuation.
    let mut brace_stack: Vec<bool> = Vec::new(); // true = template substitution
    loop {
        let tok = lexer.next_token(regex_allowed)?;
        let tok = match &tok.kind {
            TokenKind::Punct(Punct::LBrace) => {
                brace_stack.push(false);
                tok
            }
            TokenKind::Punct(Punct::RBrace) => {
                if brace_stack.pop() == Some(true) {
                    let cont = lexer.continue_template(tok.span.start)?;
                    if matches!(cont.kind, TokenKind::TemplateMiddle { .. }) {
                        brace_stack.push(true);
                    }
                    cont
                } else {
                    tok
                }
            }
            TokenKind::TemplateHead { .. } => {
                brace_stack.push(true);
                tok
            }
            _ => tok,
        };
        regex_allowed = tok.kind.allows_regex_after();
        let eof = tok.is_eof();
        tokens.push(tok);
        if eof {
            if brace_stack.contains(&true) {
                return Err(LexError {
                    msg: "unterminated template substitution".into(),
                    pos: lexer.pos as u32,
                });
            }
            return Ok(());
        }
    }
}
