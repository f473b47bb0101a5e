//! End-to-end integration: the full paper pipeline at a small scale —
//! generate corpus → transform → train both detectors → evaluate on
//! held-out pools → serialize/deserialize → generalize to the held-out
//! packer.

use jsdetect_suite::corpus::{packer_set, LabeledSample};
use jsdetect_suite::detector::{
    classify_many_cached, train_pipeline, AnalysisConfig, DetectorConfig, HeldOutPools,
    Level1Prediction, OutcomeKind, Technique, TrainedDetectors, DEFAULT_THRESHOLD,
};
use jsdetect_suite::features::FEATURE_SPACE_VERSION;
use jsdetect_suite::ml::metrics::thresholded_top_k;

/// One shared training run for the whole file (training dominates cost).
fn trained() -> &'static (TrainedDetectors, HeldOutPools) {
    use std::sync::OnceLock;
    static CELL: OnceLock<(TrainedDetectors, HeldOutPools)> = OnceLock::new();
    CELL.get_or_init(|| {
        let out = train_pipeline(64, 1234, &DetectorConfig::fast().with_seed(1234));
        (out.detectors, out.pools)
    })
}

/// Both levels for every script that analyzes fully under trusted limits,
/// `None` for the rest (the paper skips files that do not parse).
fn classify(
    detectors: &TrainedDetectors,
    srcs: &[&str],
) -> Vec<Option<(Level1Prediction, Vec<f32>)>> {
    classify_many_cached(srcs, &AnalysisConfig::trusted(), None, detectors, 4, DEFAULT_THRESHOLD)
        .into_iter()
        .map(|v| match v.outcome {
            OutcomeKind::Ok => Some((v.level1?, v.level2?)),
            _ => None,
        })
        .collect()
}

/// Level-1 predictions of the scripts [`classify`] keeps.
fn level1(detectors: &TrainedDetectors, srcs: &[&str]) -> Vec<Option<Level1Prediction>> {
    classify(detectors, srcs).into_iter().map(|v| v.map(|(p, _)| p)).collect()
}

fn accuracy(
    detectors: &TrainedDetectors,
    samples: &[LabeledSample],
    check: impl Fn(&Level1Prediction) -> bool,
) -> f64 {
    let srcs: Vec<&str> = samples.iter().map(|s| s.src.as_str()).collect();
    let preds = level1(detectors, &srcs);
    let mut ok = 0usize;
    let mut n = 0usize;
    for p in preds.iter().flatten() {
        n += 1;
        if check(p) {
            ok += 1;
        }
    }
    ok as f64 / n.max(1) as f64
}

#[test]
fn level1_separates_held_out_classes() {
    let (detectors, pools) = trained();
    let reg = accuracy(detectors, &pools.test_regular, |p| !p.is_transformed());
    let min = accuracy(detectors, &pools.test_minified, |p| p.minified >= 0.5);
    let obf = accuracy(detectors, &pools.test_obfuscated, |p| p.obfuscated >= 0.5);
    assert!(reg >= 0.85, "regular accuracy too low: {}", reg);
    assert!(min >= 0.85, "minified accuracy too low: {}", min);
    assert!(obf >= 0.75, "obfuscated accuracy too low: {}", obf);
}

#[test]
fn level2_top1_identifies_techniques() {
    let (detectors, pools) = trained();
    let srcs: Vec<&str> = pools.test_level2.iter().map(|s| s.src.as_str()).collect();
    let verdicts = classify(detectors, &srcs);
    let mut ok = 0usize;
    let mut n = 0usize;
    for (v, s) in verdicts.into_iter().zip(&pools.test_level2) {
        if let Some((_, p)) = v {
            n += 1;
            let truth = s.label_vector();
            if jsdetect_suite::ml::metrics::top_k_correct(&p, &truth, 1) {
                ok += 1;
            }
        }
    }
    let acc = ok as f64 / n.max(1) as f64;
    assert!(acc >= 0.85, "level-2 top-1 accuracy too low: {} ({}/{})", acc, ok, n);
}

#[test]
fn detectors_roundtrip_through_json() {
    let (detectors, pools) = trained();
    let json = detectors.to_json().expect("serialization");
    let restored = TrainedDetectors::from_json(&json).expect("deserialization");
    let sample = pools.test_level2[0].src.as_str();
    let (p1, l2_1) = classify(detectors, &[sample]).pop().flatten().unwrap();
    let (p2, l2_2) = classify(&restored, &[sample]).pop().flatten().unwrap();
    assert_eq!(l2_1, l2_2);
    assert_eq!(p1.minified, p2.minified);

    // A model fitted under another feature layout is refused, not served.
    let current = format!("\"version\":{}", FEATURE_SPACE_VERSION);
    let stale = format!("\"version\":{}", FEATURE_SPACE_VERSION - 1);
    assert!(json.contains(&current));
    let err = TrainedDetectors::from_json(&json.replacen(&current, &stale, 1))
        .expect_err("a stale feature-space version must not load");
    let msg = err.to_string();
    assert!(
        msg.contains(&(FEATURE_SPACE_VERSION - 1).to_string())
            && msg.contains(&FEATURE_SPACE_VERSION.to_string()),
        "error names both versions: {}",
        msg
    );
}

#[test]
fn packer_generalization() {
    // The packer is never in the training set; level 1 must still flag its
    // output as transformed (paper §III-E3: 99.52%).
    let (detectors, _) = trained();
    let samples = packer_set(12, 777);
    let srcs: Vec<&str> = samples.iter().map(|s| s.src.as_str()).collect();
    let preds = level1(detectors, &srcs);
    let flagged = preds.iter().flatten().filter(|p| p.is_transformed()).count();
    assert!(
        flagged as f64 / samples.len() as f64 >= 0.8,
        "only {}/{} packed samples flagged",
        flagged,
        samples.len()
    );
}

#[test]
fn fresh_regular_scripts_stay_regular() {
    let (detectors, _) = trained();
    let fresh = jsdetect_suite::corpus::regular_corpus(24, 0xFEED_F00D);
    let srcs: Vec<&str> = fresh.iter().map(|s| s.as_str()).collect();
    let preds = level1(detectors, &srcs);
    let regular = preds.iter().flatten().filter(|p| !p.is_transformed()).count();
    assert!(
        regular as f64 / fresh.len() as f64 >= 0.85,
        "{}/{} fresh regular scripts classified regular",
        regular,
        fresh.len()
    );
}

#[test]
fn unmonitored_technique_still_flagged_transformed() {
    // Paper §II-C / §V-A: level 1 recognizes samples as transformed even
    // when the technique is not among the ten monitored ones — e.g.
    // obfuscated field reference (all dot accesses rewritten to brackets).
    // At this tiny training scale we assert the *directional* signal: the
    // obfuscated-class confidence must rise after the rewrite (the paper's
    // full-scale model turns that signal into a hard flag).
    let (detectors, _) = trained();
    let base = jsdetect_suite::corpus::regular_corpus(12, 0xF1E1D);
    let mut before = 0f64;
    let mut after = 0f64;
    let mut total = 0usize;
    for src in &base {
        let obf = jsdetect_suite::transform::presets::obfuscate_field_references(src).unwrap();
        if obf == *src {
            continue; // no member accesses to rewrite
        }
        let [Some(p0), Some(p1)] = level1(detectors, &[src.as_str(), obf.as_str()])[..] else {
            continue;
        };
        before += p0.obfuscated as f64;
        after += p1.obfuscated as f64;
        total += 1;
    }
    assert!(total >= 6, "not enough rewritable samples ({})", total);
    assert!(
        after > before,
        "field-reference rewriting must raise obfuscated confidence ({:.3} -> {:.3})",
        before / total as f64,
        after / total as f64
    );
}

#[test]
fn tool_presets_detectable() {
    use jsdetect_suite::transform::presets::Tool;
    let (detectors, _) = trained();
    let base = jsdetect_suite::corpus::regular_corpus(4, 0x9001);
    for tool in [Tool::ObfuscatorIo, Tool::JsFuck, Tool::ClosureCompiler] {
        let mut flagged = 0usize;
        let mut total = 0usize;
        for (i, src) in base.iter().enumerate() {
            if let Ok(out) = tool.apply(src, i as u64) {
                if let Some(p) = level1(detectors, &[&out]).pop().flatten() {
                    total += 1;
                    if p.is_transformed() {
                        flagged += 1;
                    }
                }
            }
        }
        assert!(flagged * 4 >= total * 3, "{}: only {}/{} flagged", tool.as_str(), flagged, total);
    }
}

#[test]
fn wild_population_shapes() {
    // The comparative shapes of §IV on tiny populations: Alexa is far more
    // transformed than npm, and malware leads with identifier obfuscation.
    let (detectors, _) = trained();

    let alexa = jsdetect_suite::corpus::alexa_population(64, 12, 0, 5);
    let npm = jsdetect_suite::corpus::npm_population(64, 16, 2500, 5);
    let rate = |pop: &[jsdetect_suite::corpus::WildScript]| {
        let srcs: Vec<&str> = pop.iter().map(|s| s.src.as_str()).collect();
        let preds = level1(detectors, &srcs);
        let t = preds.iter().flatten().filter(|p| p.is_transformed()).count();
        t as f64 / pop.len().max(1) as f64
    };
    let alexa_rate = rate(&alexa);
    let npm_rate = rate(&npm);
    assert!(
        alexa_rate > npm_rate + 0.2,
        "alexa {:.2} should far exceed npm {:.2}",
        alexa_rate,
        npm_rate
    );
}

#[test]
fn thresholded_topk_reports_applied_technique() {
    let (detectors, _) = trained();
    let src = r#"
        function transfer(amount, account) {
            var fee = amount * 0.01;
            var total = amount + fee;
            log('transferring ' + total + ' to ' + account);
            return total;
        }
        transfer(100, 'ACC-1');
    "#;
    let obf = jsdetect_suite::transform::apply(
        src,
        &[Technique::GlobalArray, Technique::IdentifierObfuscation],
        9,
    )
    .unwrap();
    let (_, probs) = classify(detectors, &[&obf]).pop().flatten().unwrap();
    let report: Vec<Technique> = thresholded_top_k(&probs, 4, DEFAULT_THRESHOLD)
        .into_iter()
        .map(|i| Technique::ALL[i])
        .collect();
    assert!(
        report.contains(&Technique::IdentifierObfuscation)
            || report.contains(&Technique::GlobalArray),
        "report {:?} misses both applied techniques",
        report
    );
}
