//! Training/serving parity: the payload a detector is trained from
//! (trusted limits, `Ok` analyses only) is the payload the classifier
//! sees when it serves the same script under the default wild limits, and
//! it projects to the same vector bits in both fitted detector spaces.

use jsdetect_suite::corpus::{module_corpus, GroundTruth};
use jsdetect_suite::detector::{
    analyze_many, train_pipeline, AnalysisConfig, DetectorConfig, OutcomeKind, Technique,
};
use jsdetect_suite::transform::presets::Tool;

/// Source scripts of the generated ground truth, and its seed. Script
/// #10 of this window is script #38 of the seed-42 corpus the deployed
/// model trains from; its no-alphanumeric variant runs to 2.1 million
/// tokens, over the wild preset's budget of 2 million.
const N_SOURCES: usize = 12;
const SEED: u64 = 70;

/// The scripts the parity check covers, labelled for diagnostics: the
/// regular corpus, every technique pool, every tool preset and module-goal
/// scripts.
fn corpus() -> Vec<(String, String)> {
    let gt = GroundTruth::generate(N_SOURCES, SEED);
    let mut out: Vec<(String, String)> = Vec::new();
    for (i, s) in gt.regular.iter().enumerate() {
        out.push((format!("regular #{}", i), s.src.clone()));
    }
    for t in Technique::ALL {
        for (i, s) in gt.pool(t).iter().enumerate() {
            out.push((format!("{} #{}", t.as_str(), i), s.src.clone()));
        }
    }
    for (k, tool) in Tool::ALL.iter().enumerate() {
        for (i, s) in gt.regular.iter().enumerate().take(3) {
            let seed = (k * 3 + i) as u64;
            if let Ok(src) = tool.apply(&s.src, seed) {
                out.push((format!("{:?} #{}", tool, i), src));
            }
        }
    }
    for (i, src) in module_corpus(N_SOURCES, SEED).into_iter().enumerate() {
        out.push((format!("module #{}", i), src));
    }
    out
}

#[test]
fn training_and_serving_analyze_every_script_alike() {
    let detectors = train_pipeline(24, 11, &DetectorConfig::fast()).detectors;
    let spaces = [detectors.level1.space(), detectors.level2.space()];
    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
    let (labels, srcs): (Vec<String>, Vec<String>) = corpus().into_iter().unzip();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    // Training analyzes under trusted limits and keeps `Ok` payloads;
    // `classify_*_cached` analyzes under the default (wild) limits.
    let trained = analyze_many(&refs, &AnalysisConfig::trusted(), None);
    let served = analyze_many(&refs, &AnalysisConfig::default(), None);

    let (mut both, mut training_only) = (0usize, 0usize);
    for ((label, t), s) in labels.iter().zip(trained).zip(served) {
        assert_eq!(t.outcome, OutcomeKind::Ok, "{}: training does not keep it", label);
        if s.outcome != OutcomeKind::Ok {
            // Only the wild token budget may drop a script training keeps
            // (the no-alphanumeric encoding of a large script runs to
            // millions of tokens).
            training_only += 1;
            assert_eq!(s.outcome, OutcomeKind::Rejected, "{}", label);
            assert_eq!(s.error_kind, "token_budget_exceeded", "{}", label);
            continue;
        }
        both += 1;
        assert_eq!(t.payload, s.payload, "{}: payloads differ", label);
        let (t, s) = (t.payload.unwrap(), s.payload.unwrap());
        for space in spaces {
            let (vt, vs) = (space.vectorize_payload(&t), space.vectorize_payload(&s));
            assert_eq!(bits(vt), bits(vs), "{}: vectors differ", label);
        }
    }
    eprintln!(
        "parity: {} scripts kept by both paths, {} by training only (token budget)",
        both, training_only
    );
    assert!(both > 100, "corpus too small: {} scripts", both);
    assert!(training_only > 0, "the corpus no longer reaches the token budget");
}
