//! Freezes front-end behavior into `tests/fixtures/frontend_golden.json`.
//!
//! The fixture embeds a deterministic script set (regular corpus samples,
//! one variant per transform technique, and literal-heavy edge cases) plus
//! the bit patterns of their full feature vectors under a freshly fitted
//! [`VectorSpace`]. `tests/frontend_differential.rs` re-derives the vectors
//! with the current front end and asserts bit identity, so lexer/parser
//! refactors (e.g. the zero-copy atom front end) are pinned against the
//! behavior of the code that generated the fixture.
//!
//! Regenerate (only when the feature space changes *intentionally*):
//! `cargo run --release -p jsdetect-experiments --bin golden_frontend`

use jsdetect_corpus::regular_corpus;
use jsdetect_features::{analyze, FeatureConfig, VectorSpace};
use jsdetect_guard::Limits;
use jsdetect_transform::{apply, Technique};
use serde::{Deserialize, Serialize};

/// Fixture schema shared with `tests/frontend_differential.rs`.
#[derive(Serialize, Deserialize)]
pub struct FrontendGolden {
    /// Vector dimensionality of the fitted space.
    pub dim: usize,
    /// Max n-grams the space was fitted with.
    pub max_ngrams: usize,
    /// Scripts, embedded verbatim so the fixture is self-contained.
    pub scripts: Vec<GoldenScript>,
}

/// One pinned script with its feature vector.
#[derive(Serialize, Deserialize)]
pub struct GoldenScript {
    /// Label for diagnostics (`regular:3`, `technique:global_array`, ...).
    pub label: String,
    /// Source text.
    pub src: String,
    /// Feature vector as f32 bit patterns (exact, no decimal round-trip).
    pub vector_bits: Vec<u32>,
}

/// Builds the deterministic script set the fixture pins.
pub fn golden_scripts() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let regular = regular_corpus(12, 42);
    for (i, src) in regular.iter().enumerate() {
        out.push((format!("regular:{}", i), src.clone()));
    }
    for (i, t) in Technique::ALL.iter().enumerate() {
        let base = &regular[i % regular.len()];
        match apply(base, &[*t], 1000 + i as u64) {
            Ok(obf) => out.push((format!("technique:{}", t.as_str()), obf)),
            Err(e) => panic!("transform {} failed on regular:{}: {:?}", t, i, e),
        }
    }
    let edge_cases: &[(&str, &str)] = &[
        ("edge:numeric", "var a = 0x1F + 0b1010 + 0o17 + 012 + 089 + 1_000_000 + 1e3 + .5 + 5. + 0.25e-2 + 42n + 0xFFn;"),
        ("edge:strings", r#"var s = 'a\nb\tc\x41B\u{1F600}\0\101' + "q\
w" + '\8';"#),
        ("edge:templates", "var t = `a${1 + `inner${x}tail`}b${`${y}`}c`;"),
        ("edge:regex", "var r = /a[/]b\\/c/gi; var d = x / y / z; if (1) /re(?:x)*/.test(s);"),
        ("edge:idents", "var $_a1 = 1; var \\u0061bc = 2; var _0x3fa2 = $_a1 + \u{3b1}\u{3b2};"),
        ("edge:punct", "a??=b; c||=d; e&&=f; g**=2; h>>>=1; i?.j; k?.['l']; m ?? n; o=>o;"),
        ("edge:empty", ""),
        ("edge:comments", "// line\nvar x = 1; /* block\nmulti */ x++; // tail"),
    ];
    for (label, src) in edge_cases {
        out.push((label.to_string(), src.to_string()));
    }
    out
}

fn main() {
    let max_ngrams = 200;
    let scripts = golden_scripts();
    let payloads: Vec<_> = scripts
        .iter()
        .map(|(label, src)| {
            let analyzed = analyze(src, &Limits::trusted());
            analyzed.into_ok().unwrap_or_else(|e| panic!("{} failed to analyze: {}", label, e))
        })
        .collect();
    let space = VectorSpace::fit(&payloads, max_ngrams, FeatureConfig::default());
    let golden = FrontendGolden {
        dim: space.dim(),
        max_ngrams,
        scripts: scripts
            .iter()
            .zip(&payloads)
            .map(|((label, src), p)| GoldenScript {
                label: label.clone(),
                src: src.clone(),
                vector_bits: space.vectorize_payload(p).iter().map(|v| v.to_bits()).collect(),
            })
            .collect(),
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/frontend_golden.json");
    std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
    std::fs::write(path, serde_json::to_string(&golden).unwrap()).unwrap();
    println!("wrote {} scripts x {} dims to {}", golden.scripts.len(), golden.dim, path);
}
