//! Randomized-but-deterministic invariant tests over the front-end
//! pipeline: the generator, the transformation passes, the parser/printer
//! pair, and feature extraction. These replace the earlier proptest suite
//! with fixed seed sweeps (proptest is unavailable in the offline build
//! environment); coverage is equivalent because every case was already
//! driven by a seeded generator.

use jsdetect_suite::codegen::{to_minified, to_source};
use jsdetect_suite::corpus::RegularJsGenerator;
use jsdetect_suite::parser::parse;
use jsdetect_suite::transform::{apply, Technique};

const SEEDS: std::ops::Range<u64> = 0..24;

/// Every generated "regular" program parses and pretty-printing it is a
/// fixpoint.
#[test]
fn generated_programs_parse_and_print_stably() {
    for seed in SEEDS {
        let src = RegularJsGenerator::new(seed * 419 + 1).generate();
        let prog = parse(&src).expect("generated program must parse");
        let printed = to_source(&prog);
        let reparsed = parse(&printed).expect("printed program must reparse");
        assert_eq!(printed, to_source(&reparsed), "seed {}", seed);
    }
}

/// Compact printing never changes the syntactic structure.
#[test]
fn minified_print_preserves_kind_stream() {
    for seed in SEEDS {
        let src = RegularJsGenerator::new(seed * 733 + 5).generate();
        let prog = parse(&src).unwrap();
        let min = to_minified(&prog);
        let reparsed = parse(&min).expect("minified output must reparse");
        assert_eq!(
            jsdetect_suite::ast::kind_stream(&prog),
            jsdetect_suite::ast::kind_stream(&reparsed),
            "seed {}",
            seed
        );
    }
}

/// Every technique yields parseable output on arbitrary generated programs
/// (or reports a structured error).
#[test]
fn techniques_preserve_parseability() {
    for seed in SEEDS {
        let src = RegularJsGenerator::new(seed * 97 + 3).generate();
        for technique in Technique::ALL {
            if let Ok(out) = apply(&src, &[technique], seed) {
                assert!(
                    parse(&out).is_ok(),
                    "{} produced unparseable output for seed {}",
                    technique,
                    seed
                );
            }
        }
    }
}

/// The no-alphanumeric pass emits only its six-character alphabet.
#[test]
fn jsfuck_alphabet_invariant() {
    for seed in 0..12u64 {
        let src = RegularJsGenerator::new(seed * 53 + 7).generate();
        if let Ok(out) = apply(&src, &[Technique::NoAlphanumeric], seed) {
            assert!(out.chars().all(|c| "[]()!+".contains(c)), "seed {}", seed);
        }
    }
}

/// Identifier obfuscation leaves no original binding name behind and is
/// deterministic per seed.
#[test]
fn identifier_obfuscation_properties() {
    for seed in SEEDS {
        let src = RegularJsGenerator::new(seed * 211 + 9).generate();
        let a = apply(&src, &[Technique::IdentifierObfuscation], seed).unwrap();
        let b = apply(&src, &[Technique::IdentifierObfuscation], seed).unwrap();
        assert_eq!(a, b, "seed {}", seed);
        assert!(a.contains("_0x"), "seed {}", seed);
    }
}

/// Feature extraction never produces NaN/∞ and has a stable width.
#[test]
fn features_always_finite() {
    use jsdetect_suite::features::{analyze, Limits};
    for seed in 0..12u64 {
        let src = RegularJsGenerator::new(seed * 17 + 11).generate();
        for technique in Technique::ALL {
            let out = apply(&src, &[technique], seed).unwrap_or_else(|_| src.clone());
            let analyzed = analyze(&out, &Limits::trusted());
            let f = analyzed.into_ok().unwrap().handpicked;
            assert_eq!(f.len(), jsdetect_suite::features::N_HANDPICKED);
            for (i, v) in f.iter().enumerate() {
                assert!(v.is_finite(), "feature {} not finite (seed {})", i, seed);
            }
        }
    }
}

/// Deterministic "byte soup" for totality tests.
fn byte_soup(seed: u64, len: usize) -> String {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut out = String::with_capacity(len);
    while out.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Mix printable ASCII, whitespace, and the odd multi-byte char.
        let c = match state % 11 {
            0 => char::from_u32(0x1000 + (state >> 8) as u32 % 0xB000).unwrap_or('𚿵'),
            1 => '\n',
            _ => char::from_u32(0x20 + (state >> 16) as u32 % 0x5F).unwrap(),
        };
        out.push(c);
    }
    out
}

/// The parser never panics on arbitrary byte soup (errors are fine).
#[test]
fn parser_total_on_arbitrary_input() {
    // Historical proptest shrink case: a regex start followed by an escaped
    // astral-plane char used to reach a panic path.
    let _ = parse("/\\𚿵");
    for seed in 0..64u64 {
        let _ = parse(&byte_soup(seed, 80));
    }
}

/// The parser never panics on JS-flavoured token soup either.
#[test]
fn parser_total_on_js_like_input() {
    const TOKENS: [&str; 20] = [
        "var ",
        "function ",
        "if",
        "(",
        ")",
        "{",
        "}",
        "[",
        "]",
        ";",
        "=",
        "=>",
        "+",
        "'str'",
        "`tpl${",
        "/",
        "x",
        "1",
        ",",
        ".",
    ];
    for seed in 0..64u64 {
        let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(3);
        let mut src = String::new();
        let n = (seed % 60) as usize;
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            src.push_str(TOKENS[(state % TOKENS.len() as u64) as usize]);
        }
        let _ = parse(&src);
    }
}

/// The lexer is total as well.
#[test]
fn lexer_total_on_arbitrary_input() {
    for seed in 0..64u64 {
        let _ = jsdetect_suite::lexer::tokenize(&byte_soup(seed.wrapping_add(1000), 80));
    }
}
