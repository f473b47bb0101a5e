//! Lint diagnostic digests: the FNV-1a 64 hash of every diagnostic the
//! built-in rules emit over `payload_digest`'s corpora, for each parsed
//! script and for each normalized tree that normalization rewrote.
//!
//! `payload_digest` sees lint only through per-rule densities, so a drift
//! in a span, a node kind, a data field or the order of the findings
//! (everything `jsdetect-cli lint --emit-diagnostics json` prints) would
//! pass it. This digest hashes each diagnostic's rule, span, severity and
//! data. A script that does not parse hashes as one marker byte.
//!
//! A deliberate lint change must update the digests below (run with
//! `--nocapture` to print the new values) and say why.

use jsdetect_suite::corpus::{chaos_corpus, module_corpus, regular_corpus, GroundTruth};
use jsdetect_suite::flow::analyze;
use jsdetect_suite::guard::{Budget, Limits};
use jsdetect_suite::lint::{lint, Diagnostic};
use jsdetect_suite::normalize::{normalize_program, NormalizeOptions};
use jsdetect_suite::parser::parse;
use jsdetect_suite::transform::presets::Tool;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    fn diagnostics(&mut self, diags: &[Diagnostic]) {
        self.u32(diags.len() as u32);
        for d in diags {
            self.str(d.rule);
            self.u32(d.span.start);
            self.u32(d.span.end);
            self.str(d.severity.as_str());
            self.u32(d.data.len() as u32);
            for (key, value) in &d.data {
                self.str(key);
                self.str(value);
            }
        }
    }
}

const SEED: u64 = 0x9A71;

/// The named corpora of `payload_digest`, each in a fixed order.
fn corpora() -> Vec<(&'static str, Vec<String>)> {
    let truth = GroundTruth::generate(6, SEED);
    let regular = regular_corpus(16, SEED);
    let tools = Tool::ALL
        .iter()
        .enumerate()
        .flat_map(|(t, &tool)| {
            regular[..3]
                .iter()
                .enumerate()
                .filter_map(move |(i, src)| tool.apply(src, SEED ^ (t * 3 + i) as u64).ok())
        })
        .collect();
    vec![
        ("technique pools", truth.pools.iter().flatten().map(|s| s.src.clone()).collect()),
        ("tools", tools),
        ("regular", regular),
        ("modules", module_corpus(12, SEED)),
        ("chaos", chaos_corpus().into_iter().map(|c| c.src).collect()),
    ]
}

/// Digests of the parsed scripts' diagnostics and of the rewritten
/// normalized trees' diagnostics (linted against the original source, as
/// the delta features do), with the count of each.
fn digest(sources: &[String]) -> (u64, usize, u64, usize) {
    let (mut parsed, mut n_parsed) = (Fnv::new(), 0);
    let (mut normalized, mut n_normalized) = (Fnv::new(), 0);
    for src in sources {
        let Ok(program) = parse(src) else {
            parsed.bytes(&[0]);
            continue;
        };
        parsed.bytes(&[1]);
        parsed.diagnostics(&lint(src, &program, &analyze(&program)).0);
        n_parsed += 1;
        let budget = Budget::new(&Limits::unbounded());
        let (tree, report) =
            normalize_program(program, None, &NormalizeOptions::default(), &budget);
        if report.total_rewrites() > 0 {
            let tree = tree.expect("no pass panics on these corpora").program;
            normalized.diagnostics(&lint(src, &tree, &analyze(&tree)).0);
            n_normalized += 1;
        }
    }
    (parsed.0, n_parsed, normalized.0, n_normalized)
}

#[test]
fn every_lint_diagnostic_is_pinned() {
    let expected: &[(&str, u64, u64)] = &[
        ("technique pools", 0xd7a8_4cad_c466_7743, 0xce83_9a6a_07cb_0213),
        ("tools", 0x0928_107d_c939_68e3, 0x00b5_bd68_4fa8_8f11),
        ("regular", 0x3a64_e302_bdba_3a35, 0x9275_159f_31a2_1af6),
        ("modules", 0xafb6_f078_1c10_44bf, 0x2024_653e_4de2_802b),
        ("chaos", 0x9451_94c8_7959_8d40, 0xcbf2_9ce4_8422_2325),
    ];
    let mut drifted = Vec::new();
    for ((name, sources), &(want_name, want_parsed, want_normalized)) in
        corpora().iter().zip(expected)
    {
        assert_eq!(*name, want_name);
        let (parsed, n_parsed, normalized, n_normalized) = digest(sources);
        println!(
            "{:<16} parsed {:>3} {:#018x}  normalized {:>3} {:#018x}",
            name, n_parsed, parsed, n_normalized, normalized
        );
        if (parsed, normalized) != (want_parsed, want_normalized) {
            drifted.push(*name);
        }
    }
    assert!(drifted.is_empty(), "lint digests changed for {:?}", drifted);
}
