//! JavaScript tokenizer for the `jsdetect` reproduction suite.
//!
//! This crate plays the role Esprima's tokenizer plays in the paper: it
//! produces the lexical units ("tokens") the pipeline consumes, handles the
//! regex-vs-division and template-continuation ambiguities, and records
//! comments (whose density is a transformation-sensitive signal).
//!
//! # Examples
//!
//! ```
//! use jsdetect_lexer::{tokenize, TokenKind};
//!
//! let tokens = tokenize("a / b; /regex/g").unwrap();
//! let kinds: Vec<_> = tokens.iter().map(|t| &t.kind).collect();
//! assert!(kinds.iter().any(|k| matches!(k, TokenKind::Regex { .. })));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod reference;
mod scanner;
mod token;

pub use scanner::{tokenize, tokenize_lossy, tokenize_with_comments, LexError, Lexer};
pub use token::{Comment, Kw, Punct, Token, TokenCounts, TokenKind};

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn nums(src: &str) -> Vec<f64> {
        kinds(src)
            .into_iter()
            .filter_map(|k| match k {
                TokenKind::Num(n) => Some(n),
                _ => None,
            })
            .collect()
    }

    fn strs(src: &str) -> Vec<String> {
        kinds(src)
            .into_iter()
            .filter_map(|k| match k {
                TokenKind::Str(s) => Some(s.to_string()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn empty_source_gives_eof() {
        let toks = tokenize("").unwrap();
        assert_eq!(toks.len(), 1);
        assert!(toks[0].is_eof());
    }

    #[test]
    fn idents_and_keywords() {
        let ks = kinds("var foo = bar");
        assert_eq!(ks[0], TokenKind::Keyword(Kw::Var));
        assert_eq!(ks[1], TokenKind::Ident("foo".into()));
        assert_eq!(ks[2], TokenKind::Punct(Punct::Eq));
        assert_eq!(ks[3], TokenKind::Ident("bar".into()));
    }

    #[test]
    fn contextual_keywords_are_idents() {
        let ks = kinds("let of async await static get set");
        for k in &ks[..ks.len() - 1] {
            assert!(matches!(k, TokenKind::Ident(_)), "expected ident, got {:?}", k);
        }
    }

    #[test]
    fn dollar_and_underscore_idents() {
        let ks = kinds("$ _ $x _y a$b");
        assert_eq!(ks[0], TokenKind::Ident("$".into()));
        assert_eq!(ks[1], TokenKind::Ident("_".into()));
        assert_eq!(ks[2], TokenKind::Ident("$x".into()));
    }

    #[test]
    fn unicode_identifier() {
        let ks = kinds("var café = 1");
        assert_eq!(ks[1], TokenKind::Ident("café".into()));
    }

    #[test]
    fn unicode_escape_in_identifier() {
        let ks = kinds(r"abc");
        assert_eq!(ks[0], TokenKind::Ident("abc".into()));
    }

    #[test]
    fn decimal_numbers() {
        assert_eq!(
            nums("0 1 42 3.5 .5 10. 1e3 1.5e-2 1E+2"),
            vec![0.0, 1.0, 42.0, 3.5, 0.5, 10.0, 1000.0, 0.015, 100.0]
        );
    }

    #[test]
    fn radix_numbers() {
        assert_eq!(nums("0xff 0XFF 0o17 0b101 0777"), vec![255.0, 255.0, 15.0, 5.0, 511.0]);
    }

    #[test]
    fn legacy_octal_with_89_is_decimal() {
        assert_eq!(nums("0789"), vec![789.0]);
    }

    #[test]
    fn numeric_separators_and_bigint() {
        // BigInt literals are a distinct token kind carrying the raw digit
        // text (prefix kept, `n` suffix stripped), not lossy f64 `Num`s.
        assert_eq!(nums("1_000_000 12n 0xf_fn"), vec![1_000_000.0]);
        let bigints: Vec<String> = kinds("1_000_000 12n 0xf_fn")
            .into_iter()
            .filter_map(|k| match k {
                TokenKind::BigInt(raw) => Some(raw.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(bigints, vec!["12".to_string(), "0xf_f".to_string()]);
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            strs(r#"'a\nb' "q\tw" '\x41' 'B' '\u{1F600}' '\q'"#),
            vec![
                "a\nb".to_string(),
                "q\tw".to_string(),
                "A".to_string(),
                "B".to_string(),
                "\u{1F600}".to_string(),
                "q".to_string(),
            ]
        );
    }

    #[test]
    fn octal_escape_and_nul() {
        assert_eq!(strs(r"'\101' '\0'"), vec!["A".to_string(), "\0".to_string()]);
    }

    #[test]
    fn line_continuation_in_string() {
        assert_eq!(strs("'a\\\nb'"), vec!["ab".to_string()]);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'abc").is_err());
        assert!(tokenize("'abc\ndef'").is_err());
    }

    #[test]
    fn regex_vs_division() {
        // After an identifier, `/` is division.
        let ks = kinds("a / b");
        assert!(ks.iter().all(|k| !matches!(k, TokenKind::Regex { .. })));
        // At statement start, `/` begins a regex.
        let ks = kinds("/ab+c/gi");
        assert!(matches!(
            &ks[0],
            TokenKind::Regex { pattern, flags } if pattern == "ab+c" && flags == "gi"
        ));
        // After `=`, regex.
        let ks = kinds("x = /y/");
        assert!(ks.iter().any(|k| matches!(k, TokenKind::Regex { .. })));
        // After `)`, division (e.g. `(a)/2`).
        let ks = kinds("(a)/2/1");
        assert!(ks.iter().all(|k| !matches!(k, TokenKind::Regex { .. })));
    }

    #[test]
    fn regex_with_class_containing_slash() {
        let ks = kinds("/[/]/");
        assert!(matches!(&ks[0], TokenKind::Regex { pattern, .. } if pattern == "[/]"));
    }

    #[test]
    fn template_no_substitution() {
        let ks = kinds("`hello`");
        assert!(matches!(&ks[0], TokenKind::TemplateNoSub { cooked, .. } if cooked == "hello"));
    }

    #[test]
    fn template_with_substitutions() {
        let ks = kinds("`a${x}b${y}c`");
        assert!(matches!(&ks[0], TokenKind::TemplateHead { cooked, .. } if cooked == "a"));
        assert!(matches!(&ks[1], TokenKind::Ident(s) if s == "x"));
        assert!(matches!(&ks[2], TokenKind::TemplateMiddle { cooked, .. } if cooked == "b"));
        assert!(matches!(&ks[3], TokenKind::Ident(s) if s == "y"));
        assert!(matches!(&ks[4], TokenKind::TemplateTail { cooked, .. } if cooked == "c"));
    }

    #[test]
    fn nested_template() {
        let ks = kinds("`a${`inner${z}`}b`");
        let tails = ks.iter().filter(|k| matches!(k, TokenKind::TemplateTail { .. })).count();
        assert_eq!(tails, 2);
    }

    #[test]
    fn template_with_object_literal_inside() {
        let ks = kinds("`v=${ {a: 1} }!`");
        assert!(matches!(ks.last().unwrap(), TokenKind::Eof));
        assert!(ks
            .iter()
            .any(|k| matches!(k, TokenKind::TemplateTail { cooked, .. } if cooked == "!")));
    }

    #[test]
    fn comments_are_skipped_and_recorded() {
        let (toks, comments) = tokenize_with_comments("a // line\n/* block */ b").unwrap();
        assert_eq!(toks.len(), 3); // a b EOF
        assert_eq!(comments.len(), 2);
        assert!(!comments[0].block);
        assert!(comments[1].block);
    }

    #[test]
    fn newline_before_flag() {
        let toks = tokenize("a\nb c").unwrap();
        assert!(!toks[0].newline_before);
        assert!(toks[1].newline_before);
        assert!(!toks[2].newline_before);
    }

    #[test]
    fn newline_inside_block_comment_sets_flag() {
        let toks = tokenize("a /* x\ny */ b").unwrap();
        assert!(toks[1].newline_before);
    }

    #[test]
    fn multichar_punctuators_longest_match() {
        let ks = kinds("a >>>= b >>> c >> d !== e === f ** g => h ?? i ?. j ... k");
        use Punct::*;
        let puncts: Vec<_> = ks
            .iter()
            .filter_map(|k| match k {
                TokenKind::Punct(p) => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(
            puncts,
            vec![
                UShrEq,
                UShr,
                Shr,
                NotEqEq,
                EqEqEq,
                StarStar,
                Arrow,
                QuestionQuestion,
                OptionalChain,
                Ellipsis
            ]
        );
    }

    #[test]
    fn question_dot_digit_is_ternary() {
        // `a ? .3 : .5` — the `?.` must not swallow the number.
        let ks = kinds("a ? .3 : .5");
        assert!(ks.contains(&TokenKind::Punct(Punct::Question)));
        assert_eq!(nums("a ? .3 : .5"), vec![0.3, 0.5]);
    }

    #[test]
    fn unexpected_char_is_error() {
        assert!(tokenize("a # b").is_err());
        assert!(tokenize("@").is_err());
    }

    #[test]
    fn spans_cover_tokens() {
        let src = "let abc = 42;";
        let toks = tokenize(src).unwrap();
        assert_eq!(toks[0].span.slice(src), "let");
        assert_eq!(toks[1].span.slice(src), "abc");
        assert_eq!(toks[3].span.slice(src), "42");
    }

    #[test]
    fn unterminated_block_comment_is_error() {
        assert!(tokenize("/* never closed").is_err());
    }

    #[test]
    fn unterminated_template_is_error() {
        assert!(tokenize("`abc").is_err());
        assert!(tokenize("`abc${x").is_err());
    }

    #[test]
    fn ie_conditional_compilation_is_a_comment() {
        // Paper §IV-C1: two malicious samples used JScript conditional
        // compilation, "which Esprima parses as a large comment" — ours
        // does the same.
        let (toks, comments) =
            tokenize_with_comments("/*@cc_on @if (@_jscript) document.write('x'); @end @*/ f();")
                .unwrap();
        assert_eq!(comments.len(), 1);
        assert!(comments[0].block);
        assert_eq!(toks.len(), 5); // f ( ) ; EOF
    }

    #[test]
    fn unicode_line_separators_count_as_newline() {
        let toks = tokenize("a\u{2028}b").unwrap();
        assert!(toks[1].newline_before);
    }

    #[test]
    fn token_budget_stops_token_floods() {
        use jsdetect_guard::{AnalysisError, Budget, Limits};
        let src = "1 + 1 + 1 + 1";
        let limits = Limits { max_tokens: 4, ..Limits::unbounded() };
        let budget = Budget::new(&limits);
        let (toks, _, err) = tokenize_lossy(src, Some(&budget));
        assert!(err.is_some());
        assert_eq!(toks.len(), 4, "the scan stops at the token that blows the cap");
        assert_eq!(budget.take_violation(), Some(AnalysisError::TokenBudgetExceeded { limit: 4 }));
        // Under the cap, budgeted tokenization matches the plain one and
        // charges exactly one unit per token.
        let budget = Budget::new(&Limits::unbounded());
        let (toks, _, err) = tokenize_lossy(src, Some(&budget));
        assert!(err.is_none());
        assert_eq!(toks, tokenize(src).unwrap());
        assert_eq!(budget.tokens_used(), toks.len() as u64);
    }

    #[test]
    fn lossy_tokenize_returns_prefix_and_error() {
        let (toks, _, err) = tokenize_lossy("var x = 'abc", None);
        assert!(err.is_some());
        assert!(toks.len() >= 3, "expected the `var x =` prefix, got {:?}", toks);
        let (toks, comments, err) = tokenize_lossy("a /* c */ b", None);
        assert!(err.is_none());
        assert_eq!(toks.len(), 3); // a b EOF
        assert_eq!(comments.len(), 1);
    }
}
