//! Full feature-payload digests: the FNV-1a 64 hash of every field of
//! every [`FeaturePayload`] the front end produces over the generated
//! corpora and the chaos corpus, under the `trusted` and `wild` presets.
//!
//! `frontend_golden` projects a few scripts through a fitted vocabulary,
//! so it cannot see a drift in a raw 4-gram count, in a degraded payload
//! or in a gram that no vocabulary keeps. This digest hashes the payloads
//! themselves: the f32 bits of the hand-picked, lint and normalize blocks,
//! every raw `(gram, count)` pair and the `degraded` flag. A script with
//! no payload (a reject) hashes as one marker byte.
//!
//! A deliberate feature change must update the digests below (run with
//! `--nocapture` to print the new values) and say why.

use jsdetect_suite::corpus::{chaos_corpus, module_corpus, regular_corpus, GroundTruth};
use jsdetect_suite::features::{analyze, FeaturePayload};
use jsdetect_suite::guard::Limits;
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

    fn block(&mut self, values: &[f32]) {
        self.u32(values.len() as u32);
        for v in values {
            self.u32(v.to_bits());
        }
    }

    fn payload(&mut self, p: Option<&FeaturePayload>) {
        let Some(p) = p else {
            self.bytes(&[0]);
            return;
        };
        self.bytes(&[1]);
        self.block(&p.handpicked);
        self.block(&p.lint);
        self.block(&p.normalize);
        self.u32(p.ngrams.len() as u32);
        for (gram, count) in &p.ngrams {
            self.bytes(gram);
            self.u32(*count);
        }
        self.bytes(&[p.degraded as u8]);
    }
}

const SEED: u64 = 0x9A71;

/// The named corpora, each in a fixed order.
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

fn digest(sources: &[String], limits: &Limits) -> u64 {
    let mut h = Fnv::new();
    for src in sources {
        h.payload(analyze(src, limits).payload.as_ref());
    }
    h.0
}

#[test]
fn every_payload_is_pinned() {
    let expected: &[(&str, u64, u64)] = &[
        ("technique pools", 0x2379_9ff4_1a18_73ca, 0x203d_2722_6a73_1eff),
        ("tools", 0x35b4_1fc9_ad86_b8b3, 0x35b4_1fc9_ad86_b8b3),
        ("regular", 0x4b44_1cf1_a066_8db0, 0x4b44_1cf1_a066_8db0),
        ("modules", 0x01b3_48b2_0c58_e354, 0x01b3_48b2_0c58_e354),
        ("chaos", 0xb980_b866_5998_eee9, 0xae99_4b9e_edb5_7431),
    ];
    let mut drifted = Vec::new();
    for ((name, sources), &(want_name, want_trusted, want_wild)) in corpora().iter().zip(expected) {
        assert_eq!(*name, want_name);
        let trusted = digest(sources, &Limits::trusted());
        let wild = digest(sources, &Limits::wild());
        println!(
            "{:<16} {:>3} scripts  trusted {:#018x}  wild {:#018x}",
            name,
            sources.len(),
            trusted,
            wild
        );
        if (trusted, wild) != (want_trusted, want_wild) {
            drifted.push(*name);
        }
    }
    assert!(drifted.is_empty(), "payload digests changed for {:?}", drifted);
}
