//! Training-corpus digests: the FNV-1a 64 hash of every pool that
//! `GroundTruth::generate` builds (each sample's source and technique
//! labels, in pool order), and of the partially transformed samples
//! `train_pipeline` draws next to it.
//!
//! `model_digest` sees the corpus only through the models fitted on it,
//! and `transform_digest` pins the transforms one call at a time. This
//! digest pins the corpus as a whole: which variants land in which pool,
//! in which order, and which are dropped as failed or no-op transforms.
//!
//! A deliberate corpus change must update the digests below (run with
//! `--nocapture` to print the new values) and say why.

use jsdetect_suite::corpus::dataset::partial_sample;
use jsdetect_suite::corpus::{GroundTruth, LabeledSample};

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

    fn len(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }

    fn sample(&mut self, s: &LabeledSample) {
        self.len(s.techniques.len());
        for t in &s.techniques {
            self.bytes(t.as_str().as_bytes());
            self.bytes(&[0]);
        }
        self.len(s.src.len());
        self.bytes(s.src.as_bytes());
    }

    fn pool(&mut self, pool: &[LabeledSample]) {
        self.len(pool.len());
        pool.iter().for_each(|s| self.sample(s));
    }
}

/// The regular pool, then the ten technique pools in technique order.
fn ground_truth_digest(n: usize, seed: u64) -> u64 {
    let gt = GroundTruth::generate(n, seed);
    let mut h = Fnv::new();
    h.pool(&gt.regular);
    gt.pools.iter().for_each(|p| h.pool(p));
    h.0
}

/// The partial samples `train_pipeline(n, seed, _)` trains on, drawn with
/// its seeds; a failed draw hashes as one marker byte.
fn partials_digest(n: usize, seed: u64) -> u64 {
    let mut h = Fnv::new();
    for i in 0..(n / 3).max(4) {
        match partial_sample(seed ^ ((i as u64) << 33)) {
            Some(s) => {
                h.bytes(&[1]);
                h.sample(&s);
            }
            None => h.bytes(&[0]),
        }
    }
    h.0
}

#[test]
fn every_ground_truth_pool_is_pinned() {
    let runs = [
        ("ground truth n=8 seed=42", ground_truth_digest(8, 42)),
        ("ground truth n=12 seed=70", ground_truth_digest(12, 70)),
        ("partials n=8 seed=42", partials_digest(8, 42)),
        ("partials n=12 seed=70", partials_digest(12, 70)),
    ];
    for (name, h) in &runs {
        println!("(\"{}\", {:#018x}),", name, h);
    }

    let expected: [(&str, u64); 4] = [
        ("ground truth n=8 seed=42", 0x821a_240b_ea3d_abcb),
        ("ground truth n=12 seed=70", 0xcf79_dfa3_afb8_d239),
        ("partials n=8 seed=42", 0xfc89_15a7_38c7_8bfb),
        ("partials n=12 seed=70", 0xc05e_3480_865c_0f83),
    ];
    let drifted: Vec<&str> = runs
        .iter()
        .zip(&expected)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, _), _)| *name)
        .collect();
    assert!(drifted.is_empty(), "corpus changed for {:?}", drifted);
}
