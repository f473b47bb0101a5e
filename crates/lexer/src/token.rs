//! Token definitions.

use jsdetect_ast::{Atom, Span};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Reserved keywords (contextual keywords such as `let`, `of`, `async`,
/// `get`, `set`, and `static` are lexed as identifiers and resolved by the
/// parser).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Kw {
    Var,
    Const,
    Function,
    Return,
    If,
    Else,
    For,
    While,
    Do,
    Break,
    Continue,
    New,
    Delete,
    Typeof,
    Instanceof,
    In,
    This,
    Null,
    True,
    False,
    Switch,
    Case,
    Default,
    Try,
    Catch,
    Finally,
    Throw,
    Void,
    Class,
    Extends,
    Super,
    Debugger,
    With,
    Yield,
}

impl Kw {
    /// Looks up a keyword from its source text.
    pub fn lookup(s: &str) -> Option<Kw> {
        use Kw::*;
        Some(match s {
            "var" => Var,
            "const" => Const,
            "function" => Function,
            "return" => Return,
            "if" => If,
            "else" => Else,
            "for" => For,
            "while" => While,
            "do" => Do,
            "break" => Break,
            "continue" => Continue,
            "new" => New,
            "delete" => Delete,
            "typeof" => Typeof,
            "instanceof" => Instanceof,
            "in" => In,
            "this" => This,
            "null" => Null,
            "true" => True,
            "false" => False,
            "switch" => Switch,
            "case" => Case,
            "default" => Default,
            "try" => Try,
            "catch" => Catch,
            "finally" => Finally,
            "throw" => Throw,
            "void" => Void,
            "class" => Class,
            "extends" => Extends,
            "super" => Super,
            "debugger" => Debugger,
            "with" => With,
            "yield" => Yield,
            _ => return None,
        })
    }

    /// Source text of the keyword.
    pub fn as_str(self) -> &'static str {
        use Kw::*;
        match self {
            Var => "var",
            Const => "const",
            Function => "function",
            Return => "return",
            If => "if",
            Else => "else",
            For => "for",
            While => "while",
            Do => "do",
            Break => "break",
            Continue => "continue",
            New => "new",
            Delete => "delete",
            Typeof => "typeof",
            Instanceof => "instanceof",
            In => "in",
            This => "this",
            Null => "null",
            True => "true",
            False => "false",
            Switch => "switch",
            Case => "case",
            Default => "default",
            Try => "try",
            Catch => "catch",
            Finally => "finally",
            Throw => "throw",
            Void => "void",
            Class => "class",
            Extends => "extends",
            Super => "super",
            Debugger => "debugger",
            With => "with",
            Yield => "yield",
        }
    }

    /// The keyword's text as an interned atom (used when a keyword is
    /// accepted in identifier position, e.g. `obj.delete`).
    pub fn atom(self) -> Atom {
        Atom::new(self.as_str())
    }
}

/// Punctuators and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Punct {
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Semi,
    Comma,
    Dot,
    Ellipsis,
    OptionalChain, // ?.
    Colon,
    Question,
    Arrow, // =>
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    StarStar,
    PlusPlus,
    MinusMinus,
    Shl,
    Shr,
    UShr,
    Lt,
    Gt,
    LtEq,
    GtEq,
    EqEq,
    NotEq,
    EqEqEq,
    NotEqEq,
    Amp,
    Pipe,
    Caret,
    Bang,
    Tilde,
    AmpAmp,
    PipePipe,
    QuestionQuestion,
    Eq,
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    PercentEq,
    StarStarEq,
    ShlEq,
    ShrEq,
    UShrEq,
    AmpEq,
    PipeEq,
    CaretEq,
    AmpAmpEq,
    PipePipeEq,
    QuestionQuestionEq,
}

impl Punct {
    /// Source text of the punctuator.
    pub fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBracket => "[",
            RBracket => "]",
            LBrace => "{",
            RBrace => "}",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            Ellipsis => "...",
            OptionalChain => "?.",
            Colon => ":",
            Question => "?",
            Arrow => "=>",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            StarStar => "**",
            PlusPlus => "++",
            MinusMinus => "--",
            Shl => "<<",
            Shr => ">>",
            UShr => ">>>",
            Lt => "<",
            Gt => ">",
            LtEq => "<=",
            GtEq => ">=",
            EqEq => "==",
            NotEq => "!=",
            EqEqEq => "===",
            NotEqEq => "!==",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Bang => "!",
            Tilde => "~",
            AmpAmp => "&&",
            PipePipe => "||",
            QuestionQuestion => "??",
            Eq => "=",
            PlusEq => "+=",
            MinusEq => "-=",
            StarEq => "*=",
            SlashEq => "/=",
            PercentEq => "%=",
            StarStarEq => "**=",
            ShlEq => "<<=",
            ShrEq => ">>=",
            UShrEq => ">>>=",
            AmpEq => "&=",
            PipeEq => "|=",
            CaretEq => "^=",
            AmpAmpEq => "&&=",
            PipePipeEq => "||=",
            QuestionQuestionEq => "??=",
        }
    }
}

/// The payload of a token.
///
/// All text payloads are interned [`Atom`]s, so `TokenKind` (and [`Token`])
/// is `Copy`: producing, buffering, and re-lexing tokens never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TokenKind {
    /// Identifier or contextual keyword.
    Ident(Atom),
    /// Reserved keyword.
    Keyword(Kw),
    /// Numeric literal (decoded value).
    Num(f64),
    /// BigInt literal: the raw digit text (radix prefix included, `n`
    /// suffix excluded), kept exact so printing round-trips.
    BigInt(Atom),
    /// String literal (cooked value).
    Str(Atom),
    /// Private name (`#field`): the identifier after the `#`.
    PrivateName(Atom),
    /// Regular expression literal.
    Regex {
        /// Pattern between the slashes.
        pattern: Atom,
        /// Flag characters.
        flags: Atom,
    },
    /// `` `text` `` — template with no substitution.
    TemplateNoSub {
        /// Decoded text.
        cooked: Atom,
        /// Raw text between the backticks.
        raw: Atom,
    },
    /// `` `text${ `` — head of a substituted template.
    TemplateHead {
        /// Decoded text.
        cooked: Atom,
        /// Raw text.
        raw: Atom,
    },
    /// `}text${` — middle chunk of a substituted template.
    TemplateMiddle {
        /// Decoded text.
        cooked: Atom,
        /// Raw text.
        raw: Atom,
    },
    /// `` }text` `` — tail chunk of a substituted template.
    TemplateTail {
        /// Decoded text.
        cooked: Atom,
        /// Raw text.
        raw: Atom,
    },
    /// Punctuator.
    Punct(Punct),
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Whether this token may legally precede a regex literal (used for the
    /// slash-disambiguation heuristic).
    pub fn allows_regex_after(&self) -> bool {
        match self {
            TokenKind::Ident(_)
            | TokenKind::Num(_)
            | TokenKind::BigInt(_)
            | TokenKind::Str(_)
            | TokenKind::PrivateName(_)
            | TokenKind::Regex { .. }
            | TokenKind::TemplateNoSub { .. }
            | TokenKind::TemplateTail { .. } => false,
            TokenKind::Keyword(kw) => {
                !matches!(kw, Kw::This | Kw::Super | Kw::Null | Kw::True | Kw::False)
            }
            TokenKind::Punct(p) => {
                !matches!(p, Punct::RParen | Punct::RBracket | Punct::PlusPlus | Punct::MinusMinus)
            }
            _ => true,
        }
    }
}

/// A lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Token {
    /// Token payload.
    pub kind: TokenKind,
    /// Byte range in the source.
    pub span: Span,
    /// Whether a line terminator occurred between the previous token and
    /// this one (drives automatic semicolon insertion).
    pub newline_before: bool,
}

impl Token {
    /// Returns the identifier text if this token is an identifier.
    pub fn ident_name(&self) -> Option<&str> {
        self.ident_atom().map(Atom::as_str)
    }

    /// Returns the identifier atom if this token is an identifier.
    pub fn ident_atom(&self) -> Option<Atom> {
        match &self.kind {
            TokenKind::Ident(s) => Some(*s),
            _ => None,
        }
    }

    /// Whether the token is the given punctuator.
    pub fn is_punct(&self, p: Punct) -> bool {
        matches!(&self.kind, TokenKind::Punct(q) if *q == p)
    }

    /// Whether the token is the given keyword.
    pub fn is_kw(&self, kw: Kw) -> bool {
        matches!(&self.kind, TokenKind::Keyword(k) if *k == kw)
    }

    /// Whether the token is EOF.
    pub fn is_eof(&self) -> bool {
        matches!(self.kind, TokenKind::Eof)
    }
}

/// The token statistics the feature front end reads: how many tokens a
/// script has (EOF included) and how many of them are punctuators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenCounts {
    /// Every token, EOF included.
    pub total: u32,
    /// [`TokenKind::Punct`] tokens.
    pub punct: u32,
}

impl TokenCounts {
    /// Counts one token.
    pub fn add(&mut self, tok: &Token) {
        self.total += 1;
        self.punct += matches!(tok.kind, TokenKind::Punct(_)) as u32;
    }

    /// Counts a whole token list.
    pub fn of(tokens: &[Token]) -> TokenCounts {
        let mut counts = TokenCounts::default();
        tokens.iter().for_each(|t| counts.add(t));
        counts
    }
}

/// A comment encountered while lexing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Comment {
    /// Byte range including delimiters.
    pub span: Span,
    /// `true` for `/* */`, `false` for `//`.
    pub block: bool,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{}`", s),
            TokenKind::Keyword(k) => write!(f, "keyword `{}`", k.as_str()),
            TokenKind::Num(n) => write!(f, "number `{}`", n),
            TokenKind::BigInt(d) => write!(f, "bigint `{}n`", d),
            TokenKind::Str(_) => write!(f, "string literal"),
            TokenKind::PrivateName(s) => write!(f, "private name `#{}`", s),
            TokenKind::Regex { .. } => write!(f, "regex literal"),
            TokenKind::TemplateNoSub { .. }
            | TokenKind::TemplateHead { .. }
            | TokenKind::TemplateMiddle { .. }
            | TokenKind::TemplateTail { .. } => write!(f, "template literal"),
            TokenKind::Punct(p) => write!(f, "`{}`", p.as_str()),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_roundtrip() {
        for kw in [Kw::Var, Kw::Function, Kw::Instanceof, Kw::Debugger, Kw::Yield] {
            assert_eq!(Kw::lookup(kw.as_str()), Some(kw));
        }
        assert_eq!(Kw::lookup("let"), None, "`let` must be contextual");
        assert_eq!(Kw::lookup("async"), None, "`async` must be contextual");
        assert_eq!(Kw::lookup("of"), None, "`of` must be contextual");
    }

    #[test]
    fn regex_context() {
        assert!(TokenKind::Punct(Punct::LParen).allows_regex_after());
        assert!(TokenKind::Punct(Punct::Eq).allows_regex_after());
        assert!(!TokenKind::Punct(Punct::RParen).allows_regex_after());
        assert!(!TokenKind::Ident("x".into()).allows_regex_after());
        assert!(!TokenKind::Num(1.0).allows_regex_after());
        assert!(TokenKind::Keyword(Kw::Return).allows_regex_after());
        assert!(!TokenKind::Keyword(Kw::This).allows_regex_after());
    }

    #[test]
    fn token_helpers() {
        let t = Token {
            kind: TokenKind::Ident("foo".into()),
            span: Span::new(0, 3),
            newline_before: false,
        };
        assert_eq!(t.ident_name(), Some("foo"));
        assert!(!t.is_eof());
        assert!(!t.is_punct(Punct::Semi));
    }
}
