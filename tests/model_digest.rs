//! Fitted-model digests: the FNV-1a 64 hash of `TrainedDetectors::to_json()`
//! for a few small training configurations, checked in next to each config.
//!
//! Any change to the learner's split search, the training protocol or the
//! serialized layout that alters a fitted model shows up here as a digest
//! mismatch. A deliberate feature-space or model change must update the
//! digests below (run with `--nocapture` to print the new values).

use jsdetect_suite::detector::{train_pipeline, DetectorConfig};
use jsdetect_suite::ml::{BaseParams, Strategy, TreeParams};

/// Regular scripts generated per training run, and the corpus seed.
const N_REGULAR: usize = 8;
const CORPUS_SEED: u64 = 42;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(cfg: &DetectorConfig) -> u64 {
    let out = train_pipeline(N_REGULAR, CORPUS_SEED, cfg);
    let json = out.detectors.to_json().expect("model serializes");
    fnv1a64(json.as_bytes())
}

fn check(label: &str, cfg: &DetectorConfig, expected: u64) {
    let got = digest(cfg);
    println!("{}: {:#018x}", label, got);
    assert_eq!(got, expected, "{} model digest changed: got {:#018x}", label, got);
}

#[test]
fn forest_model_seed_1_is_pinned() {
    check("forest seed 1", &DetectorConfig::fast().with_seed(1), 0xeb41_1fdd_0467_9933);
}

#[test]
fn forest_model_seed_7_is_pinned() {
    check("forest seed 7", &DetectorConfig::fast().with_seed(7), 0xb86c_f60c_a5ac_6da8);
}

/// A single CART tree per label (no forest-shared tables).
#[test]
fn single_tree_model_is_pinned() {
    let cfg = DetectorConfig {
        base: BaseParams::Tree(TreeParams::default(), 7),
        ..DetectorConfig::fast()
    };
    check("single tree", &cfg, 0xcc29_84da_5667_5ecc);
}

/// Gaussian naive Bayes under the paper's classifier chain.
#[test]
fn bayes_chain_model_is_pinned() {
    let cfg = DetectorConfig { base: BaseParams::Bayes, ..DetectorConfig::fast() };
    check("bayes chain", &cfg, 0x2413_e57c_61ba_8d72);
}

/// A forest per label, each fitted independently (binary relevance).
#[test]
fn forest_binary_relevance_model_is_pinned() {
    let cfg = DetectorConfig { strategy: Strategy::BinaryRelevance, ..DetectorConfig::fast() };
    check("forest binary relevance", &cfg, 0xac03_bca9_394c_329a);
}
