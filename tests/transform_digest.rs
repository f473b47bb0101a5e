//! Transform output digests: the FNV-1a 64 hash of the source text that
//! every technique alone, every tool preset and the packer write for the
//! generated regular corpus at fixed seeds.
//!
//! `payload_digest` sees transforms only through the features of their
//! output, so a source drift that leaves every feature unchanged (a
//! renamed temporary, a reordered decoy) would pass it. This digest hashes
//! the bytes themselves. A failed transform hashes as one marker byte.
//!
//! A deliberate transform change must update the digests below (run with
//! `--nocapture` to print the new values) and say why.

use jsdetect_suite::corpus::regular_corpus;
use jsdetect_suite::transform::presets::Tool;
use jsdetect_suite::transform::{apply, apply_packer, Technique, TransformError};

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

    fn output(&mut self, out: Result<String, TransformError>) {
        match out {
            Ok(src) => {
                self.bytes(&[1]);
                self.bytes(&(src.len() as u64).to_le_bytes());
                self.bytes(src.as_bytes());
            }
            Err(_) => self.bytes(&[0]),
        }
    }
}

const SEED: u64 = 0x7A45;

fn digest(
    corpus: &[String],
    transform: impl Fn(&str, u64) -> Result<String, TransformError>,
) -> u64 {
    let mut h = Fnv::new();
    for (i, src) in corpus.iter().enumerate() {
        h.output(transform(src, SEED ^ i as u64));
    }
    h.0
}

#[test]
fn every_transform_output_is_pinned() {
    let corpus = regular_corpus(12, SEED);
    let mut runs: Vec<(String, u64)> = Technique::ALL
        .iter()
        .map(|&t| (t.as_str().to_string(), digest(&corpus, |src, seed| apply(src, &[t], seed))))
        .collect();
    runs.extend(Tool::ALL.iter().map(|&tool| {
        (tool.as_str().to_string(), digest(&corpus, |src, seed| tool.apply(src, seed)))
    }));
    runs.push(("packer".to_string(), digest(&corpus, apply_packer)));
    for (name, h) in &runs {
        println!("(\"{}\", {:#018x}),", name, h);
    }

    let expected: &[(&str, u64)] = &[
        ("identifier_obfuscation", 0x9109_1b19_baca_2c89),
        ("string_obfuscation", 0x51f2_83f5_85e5_2868),
        ("global_array", 0xc7ba_8db8_87a8_b541),
        ("no_alphanumeric", 0xe659_7feb_d48a_1c62),
        ("dead_code_injection", 0x696a_fea8_6973_8ee3),
        ("control_flow_flattening", 0xd5b6_26cd_5ded_c216),
        ("self_defending", 0x0211_92af_4564_0bdf),
        ("debug_protection", 0x9eb4_4289_6d22_eb78),
        ("minification_simple", 0x1ebb_9c65_7508_9d14),
        ("minification_advanced", 0xd0dd_0562_b3dd_08a2),
        ("obfuscator.io", 0x2cb8_8e0b_4f64_0ee1),
        ("obfuscator.io (aggressive)", 0x4814_4401_f360_eb1a),
        ("jsfuck", 0xe659_7feb_d48a_1c62),
        ("gnirts", 0x2e25_e161_e606_6a80),
        ("custom-encoding", 0x35cb_0fb2_f12c_00a3),
        ("javascript-minifier", 0x1ebb_9c65_7508_9d14),
        ("closure-compiler", 0xd0dd_0562_b3dd_08a2),
        ("packer", 0x0c03_9005_4aa7_a74f),
    ];
    let mut drifted = Vec::new();
    for ((name, got), &(want_name, want)) in runs.iter().zip(expected) {
        assert_eq!(name, want_name);
        if *got != want {
            drifted.push(name.clone());
        }
    }
    assert_eq!(runs.len(), expected.len(), "one digest per technique, tool and the packer");
    assert!(drifted.is_empty(), "transform outputs changed for {:?}", drifted);
}
