//! Differential pinning of the zero-copy front end (PR 7).
//!
//! Two oracles prove the byte-level, atom-interning lexer changed nothing
//! observable:
//!
//! 1. **Token streams** — `jsdetect_lexer::reference` preserves the old
//!    `String`-allocating scanner verbatim. Both lexers run over the
//!    generated regular corpus, one variant per transformation technique,
//!    the full chaos corpus, and a set of literal-heavy edge cases; token
//!    kinds, payloads (atoms resolved back to strings), spans, newline
//!    flags, and error positions must all agree. Wherever the script also
//!    parses, the token counts the parser reports (the analysis front
//!    end's only lexing pass) must equal the standalone list's.
//! 2. **Feature vectors** — `tests/fixtures/frontend_golden.json` embeds
//!    f32 *bit patterns* of full feature vectors produced by the
//!    pre-refactor front end. The current pipeline must reproduce every
//!    bit.

use jsdetect_ast::Atom;
use jsdetect_corpus::{chaos_corpus, regular_corpus};
use jsdetect_features::{analyze, FeatureConfig, Limits, VectorSpace};
use jsdetect_guard::Budget;
use jsdetect_lexer::reference::{tokenize_reference, RefToken, RefTokenKind};
use jsdetect_lexer::{tokenize, Token, TokenKind};
use jsdetect_parser::parse_with_comments_budget;
use jsdetect_transform::{apply, Technique};
use serde::Deserialize;

/// Checks one payload pair: the reference `String` against the new `Atom`.
fn payload_eq(s: &str, a: Atom) -> bool {
    a == *s
}

fn kind_eq(r: &RefTokenKind, n: &TokenKind) -> bool {
    match (r, n) {
        (RefTokenKind::Ident(s), TokenKind::Ident(a)) => payload_eq(s, *a),
        (RefTokenKind::Keyword(k1), TokenKind::Keyword(k2)) => k1 == k2,
        (RefTokenKind::Num(n1), TokenKind::Num(n2)) => n1.to_bits() == n2.to_bits(),
        (RefTokenKind::BigInt(s), TokenKind::BigInt(a)) => payload_eq(s, *a),
        (RefTokenKind::Str(s), TokenKind::Str(a)) => payload_eq(s, *a),
        (RefTokenKind::PrivateName(s), TokenKind::PrivateName(a)) => payload_eq(s, *a),
        (
            RefTokenKind::Regex { pattern: p1, flags: f1 },
            TokenKind::Regex { pattern: p2, flags: f2 },
        ) => payload_eq(p1, *p2) && payload_eq(f1, *f2),
        (
            RefTokenKind::TemplateNoSub { cooked: c1, raw: r1 },
            TokenKind::TemplateNoSub { cooked: c2, raw: r2 },
        )
        | (
            RefTokenKind::TemplateHead { cooked: c1, raw: r1 },
            TokenKind::TemplateHead { cooked: c2, raw: r2 },
        )
        | (
            RefTokenKind::TemplateMiddle { cooked: c1, raw: r1 },
            TokenKind::TemplateMiddle { cooked: c2, raw: r2 },
        )
        | (
            RefTokenKind::TemplateTail { cooked: c1, raw: r1 },
            TokenKind::TemplateTail { cooked: c2, raw: r2 },
        ) => payload_eq(c1, *c2) && payload_eq(r1, *r2),
        (RefTokenKind::Punct(p1), TokenKind::Punct(p2)) => p1 == p2,
        (RefTokenKind::Eof, TokenKind::Eof) => true,
        _ => false,
    }
}

fn assert_streams_equal(label: &str, src: &str) {
    let old = tokenize_reference(src);
    let new = tokenize(src);
    match (old, new) {
        (Ok(old), Ok(new)) => {
            assert_eq!(
                old.len(),
                new.len(),
                "{}: token count diverged (old {}, new {})",
                label,
                old.len(),
                new.len()
            );
            for (i, (o, n)) in old.iter().zip(&new).enumerate() {
                assert_token_eq(label, i, o, n);
            }
            assert_parser_counts_eq(label, src, &new);
        }
        (Err(eo), Err(en)) => {
            assert_eq!(eo.msg, en.msg, "{}: error message diverged", label);
            assert_eq!(eo.pos, en.pos, "{}: error position diverged", label);
        }
        (Ok(_), Err(en)) => panic!("{}: reference lexes but new errors: {}", label, en),
        (Err(eo), Ok(_)) => panic!("{}: new lexes but reference errors: {}", label, eo),
    }
}

fn assert_token_eq(label: &str, i: usize, o: &RefToken, n: &Token) {
    assert!(
        kind_eq(&o.kind, &n.kind),
        "{}: token {} kind diverged\n  old: {:?}\n  new: {:?}",
        label,
        i,
        o.kind,
        n.kind
    );
    assert_eq!(o.span, n.span, "{}: token {} span diverged ({:?})", label, i, n.kind);
    assert_eq!(
        o.newline_before, n.newline_before,
        "{}: token {} newline flag diverged ({:?})",
        label, i, n.kind
    );
}

/// The parser's committed `(total, punct)` token counts against the
/// standalone token list, for a script that parses.
fn assert_parser_counts_eq(label: &str, src: &str, tokens: &[Token]) {
    let budget = Budget::new(&Limits::trusted());
    if let Ok((_, _, counts)) = parse_with_comments_budget(src, &budget) {
        let punct = tokens.iter().filter(|t| matches!(t.kind, TokenKind::Punct(_))).count();
        assert_eq!(
            (counts.total as usize, counts.punct as usize),
            (tokens.len(), punct),
            "{}: parser token counts diverged from the standalone lexer",
            label
        );
    }
}

/// The script set every stream test runs over: regular corpus, one variant
/// per technique, plus literal-heavy edge cases mirroring the golden
/// fixture's generator.
fn technique_scripts() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let regular = regular_corpus(12, 42);
    for (i, src) in regular.iter().enumerate() {
        out.push((format!("regular:{}", i), src.clone()));
    }
    for (i, t) in Technique::ALL.iter().enumerate() {
        let base = &regular[i % regular.len()];
        let obf = apply(base, &[*t], 1000 + i as u64)
            .unwrap_or_else(|e| panic!("technique {} failed: {:?}", t, e));
        out.push((format!("technique:{}", t.as_str()), obf));
    }
    out
}

#[test]
fn token_streams_match_reference_on_generated_corpus() {
    for (label, src) in technique_scripts() {
        assert_streams_equal(&label, &src);
    }
}

#[test]
fn token_streams_match_reference_on_example_corpus() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/corpus");
    let mut n = 0;
    for entry in std::fs::read_dir(dir).expect("examples/corpus present") {
        let path = entry.unwrap().path();
        let src = std::fs::read_to_string(&path).unwrap();
        assert_streams_equal(&path.file_name().unwrap().to_string_lossy(), &src);
        n += 1;
    }
    assert!(n >= 4, "example corpus shrank: {}", n);
}

#[test]
fn token_streams_match_reference_on_chaos_corpus() {
    let cases = chaos_corpus();
    assert!(cases.len() >= 25, "chaos corpus shrank: {}", cases.len());
    for c in &cases {
        assert_streams_equal(c.name, &c.src);
    }
}

#[test]
fn token_streams_match_reference_on_edge_literals() {
    let edge: &[(&str, &str)] = &[
        ("numeric", "0x1F 0b1010 0o17 012 089 1_000_000 1e3 .5 5. 0.25e-2 42n 0xFFn 0xf_fn"),
        (
            "strings",
            r#"'a\nb\tc\x41B\u{1F600}\0\101' '\8' 'a\
b'"#,
        ),
        ("templates", "`a${1 + `inner${x}tail`}b${`${y}`}c` `\\n${q}\\t`"),
        ("regex", "var r = /a[/]b\\/c/gi; var d = x / y / z; if (1) /re(?:x)*/.test(s);"),
        ("idents", "var $_a1 = 1; var \\u0061bc = 2; var _0x3fa2 = $_a1 + \u{3b1}\u{3b2};"),
        ("punct", "a??=b; c||=d; e&&=f; g**=2; h>>>=1; i?.j; k?.['l']; m ?? n; o=>o; a?.3:.5"),
        ("empty", ""),
        ("comments", "// line\nvar x = 1; /* block\nmulti */ x++; // tail"),
        ("unicode-ws", "a\u{2028}b\u{00a0}c \u{2029} d"),
        ("bad-char", "a # b"),
        ("bad-escape", "'\\u{FFFFFFFF}'"),
        ("unterminated-str", "'abc"),
        ("unterminated-tpl", "`abc${x"),
        ("unterminated-comment", "/* never closed"),
        ("lone-backslash", "a \\ b"),
    ];
    for (label, src) in edge {
        assert_streams_equal(label, src);
    }
}

/// Schema of `tests/fixtures/frontend_golden.json` (kept in sync with
/// `crates/experiments/src/bin/golden_frontend.rs`).
#[derive(Deserialize)]
struct FrontendGolden {
    dim: usize,
    max_ngrams: usize,
    scripts: Vec<GoldenScript>,
}

#[derive(Deserialize)]
struct GoldenScript {
    label: String,
    src: String,
    vector_bits: Vec<u32>,
}

#[test]
fn feature_vectors_bit_identical_to_pre_refactor_fixture() {
    let raw = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/frontend_golden.json"
    ))
    .expect("fixture present");
    let golden: FrontendGolden = serde_json::from_str(&raw).expect("fixture parses");
    assert!(golden.scripts.len() >= 30, "fixture shrank: {}", golden.scripts.len());

    let payloads: Vec<_> = golden
        .scripts
        .iter()
        .map(|s| {
            let analyzed = analyze(&s.src, &Limits::trusted());
            analyzed.into_ok().unwrap_or_else(|e| panic!("{} failed to analyze: {}", s.label, e))
        })
        .collect();
    let space = VectorSpace::fit(&payloads, golden.max_ngrams, FeatureConfig::default());
    assert_eq!(space.dim(), golden.dim, "vector dimensionality changed");

    for (s, p) in golden.scripts.iter().zip(&payloads) {
        let v = space.vectorize_payload(p);
        assert_eq!(v.len(), s.vector_bits.len(), "{}: vector length changed", s.label);
        for (i, (got, want)) in v.iter().zip(&s.vector_bits).enumerate() {
            assert_eq!(
                got.to_bits(),
                *want,
                "{}: dim {} diverged (got {}, want {})",
                s.label,
                i,
                got,
                f32::from_bits(*want)
            );
        }
    }
}

#[test]
fn atoms_round_trip_through_print_and_reparse() {
    use jsdetect_codegen::to_source;
    use jsdetect_parser::parse;

    for (i, src) in regular_corpus(6, 7).iter().enumerate() {
        let prog = parse(src).unwrap_or_else(|e| panic!("regular:{} parse: {}", i, e));
        let printed = to_source(&prog);
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("regular:{} reparse: {}", i, e));
        let reprinted = to_source(&reparsed);
        assert_eq!(printed, reprinted, "regular:{} print→reparse→print not a fixed point", i);

        // Interned names must dedup to the *same* atom across parses: equal
        // ids, not merely equal strings.
        let mut names_a = Vec::new();
        let mut names_b = Vec::new();
        collect_ident_atoms(&prog, &mut names_a);
        collect_ident_atoms(&reparsed, &mut names_b);
        assert_eq!(names_a.len(), names_b.len(), "regular:{} ident count changed", i);
        for (a, b) in names_a.iter().zip(&names_b) {
            assert_eq!(a.id(), b.id(), "regular:{} atom id diverged: {:?} vs {:?}", i, a, b);
        }
    }
}

fn collect_ident_atoms(prog: &jsdetect_ast::Program, out: &mut Vec<Atom>) {
    use jsdetect_ast::{walk, NodeRef};
    walk(prog, &mut |node, _depth| {
        if let NodeRef::Ident(id) = node {
            out.push(id.name);
        }
    });
}
