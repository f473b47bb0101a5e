//! Parse digests: the FNV-1a 64 hash of every parse result over the
//! generated corpora, the example corpus and a list of arrow-function and
//! parenthesized-group edge cases, parsed under the `trusted` preset.
//!
//! A successful parse hashes the `Debug` dump of the program (an `Atom`
//! prints its string, so the dump is deterministic), the token counts and
//! the comment spans; a failed one hashes the error position and message.
//! The payload digests see a parse only through features, and a syntax
//! error only as a degraded payload; this digest pins the tree and the
//! error themselves, so a parser refactor must reproduce both exactly.
//!
//! A deliberate parser change must update the digests below (run with
//! `--nocapture` to print the new values) and say why.

use jsdetect_suite::corpus::{chaos_corpus, module_corpus, regular_corpus, GroundTruth};
use jsdetect_suite::guard::{Budget, Limits};
use jsdetect_suite::parser::parse_with_comments_budget;
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

    fn parse(&mut self, src: &str) {
        let budget = Budget::new(&Limits::trusted());
        match parse_with_comments_budget(src, &budget) {
            Ok((program, comments, counts)) => {
                self.bytes(&[1]);
                self.bytes(format!("{:?}", program).as_bytes());
                self.u32(counts.total);
                self.u32(counts.punct);
                self.u32(comments.len() as u32);
                for c in &comments {
                    self.u32(c.span.start);
                    self.u32(c.span.end);
                    self.bytes(&[c.block as u8]);
                }
            }
            Err(e) => {
                self.bytes(&[0]);
                self.u32(e.pos);
                self.bytes(e.msg.as_bytes());
            }
        }
    }
}

fn digest<'a>(sources: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = Fnv::new();
    for src in sources {
        h.parse(src);
    }
    h.0
}

const SEED: u64 = 0x9A71;

/// The corpora `payload_digest` pins, in the same order.
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

/// `x = (a = (a = … 1));` with `depth` nested groups.
fn nested_groups(depth: usize) -> String {
    format!("x = {}1{};", "(a = ".repeat(depth), ")".repeat(depth))
}

#[test]
fn every_corpus_parse_is_pinned() {
    let expected: &[(&str, u64)] = &[
        ("technique pools", 0x93f5_b57c_95f7_a8fd),
        ("tools", 0xa374_f423_03a0_6164),
        ("regular", 0xbca1_3dfa_03b2_8836),
        ("modules", 0xad88_7118_3efa_9d25),
        ("chaos", 0xd7a8_b700_b2b3_287d),
        ("examples/corpus", 0x989c_fdb5_068e_601b),
    ];
    let mut sets = corpora();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "js"))
        .collect();
    files.sort();
    sets.push((
        "examples/corpus",
        files.iter().map(|p| std::fs::read_to_string(p).unwrap()).collect(),
    ));
    let mut drifted = Vec::new();
    for ((name, sources), &(want_name, want)) in sets.iter().zip(expected) {
        assert_eq!(*name, want_name);
        let got = digest(sources.iter().map(String::as_str));
        println!("{:<16} {:>3} scripts  {:#018x}", name, sources.len(), got);
        if got != want {
            drifted.push(*name);
        }
    }
    assert!(drifted.is_empty(), "parse digests changed for {:?}", drifted);
}

#[test]
fn every_arrow_and_group_edge_case_is_pinned() {
    let mut cases: Vec<String> = [
        "x => x",
        "() => 1",
        "(a, b,) => a",
        "(a, ...r) => r",
        "(a = 1, {b, c = 2} = {}, [d, , ...e] = []) => 0",
        "({a: b = 1, ...c}) => b",
        "(yield) => 1",
        "async x => x",
        "async (a, b) => a",
        "async(a, b)",
        "async\n(a) => a",
        "async x;",
        "(a)\n=> a",
        "((a)) => 1",
        "(a.b) => 1",
        "([a.b]) => 1",
        "(a += 1) => 1",
        "()",
        "(a,)",
        "(...a)",
        "x + (a) => b",
        "(a) => {}\n(b)",
        "(a) => {} + 1",
        "a ? (b) => c : (d) => e",
        "(a) => (b) => c",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    cases.extend([16, 20, 24].map(nested_groups));
    let expected: &[u64] = &[
        0xe597_b2b1_18b8_fb37,
        0x0e05_a2f2_6f67_7ba1,
        0x82f1_90b4_92fd_7caf,
        0x0174_c447_0301_f717,
        0x3520_4908_6fc7_8161,
        0x8fcf_9557_9c55_a756,
        0xc450_997e_e4bb_d2e3,
        0xd545_09ad_1fc2_61c8,
        0x6c77_899e_0b0b_b070,
        0x63c0_373e_3442_6736,
        0xa8ef_87b7_5509_aafa,
        0x8323_d2ee_685d_a03c,
        0x331a_930d_428c_1772,
        0xe2ff_d5e7_f7d8_6bbe,
        0xe2ff_d5e7_f7d8_6bbe,
        0xcac6_f082_427f_702c,
        0xb9ef_31ef_1457_1c27,
        0xd4a4_f721_d358_f2a1,
        0xe509_69bb_d1a7_368b,
        0x7cde_de6a_4f52_adb0,
        0xcac6_f082_427f_702c,
        0x2988_b0bb_996f_ea81,
        0x9857_d5b5_ae31_9a1a,
        0x2d45_98d6_fe6c_8450,
        0x0c8b_cad3_36f9_db65,
        0xeec1_17bd_8dcb_e7d0,
        0x3e51_3b36_0822_1d55,
        0xf62d_eea8_fa29_9279,
    ];
    let mut drifted = Vec::new();
    for (src, &want) in cases.iter().zip(expected) {
        let got = digest([src.as_str()]);
        println!("{:#018x}  {:?}", got, if src.len() > 40 { &src[..40] } else { src });
        if got != want {
            drifted.push(src.clone());
        }
    }
    assert_eq!(cases.len(), expected.len());
    assert!(drifted.is_empty(), "parse digests changed for {:?}", drifted);
}
