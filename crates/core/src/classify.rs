//! End-to-end classification over the cache-aware hardened path: the one
//! entry the serve daemon, the CLI, and the examples all share.
//!
//! [`classify_many_cached`] composes [`analyze_many`] (guarded
//! analysis with optional verdict replay) with payload-based batch
//! inference on both detector levels. Because everything downstream of
//! analysis runs off the space-independent [`FeaturePayload`], a verdict
//! replayed from the store classifies bit-identically to a fresh one — and
//! a request served by the daemon classifies bit-identically to the same
//! script in an offline sweep.

use crate::analysis::{analyze_many, analyze_one, CachedScript};
use crate::config::AnalysisConfig;
use crate::level1::Level1Prediction;
use crate::pipeline::TrainedDetectors;
use jsdetect_cache::AnalysisCache;
use jsdetect_features::FeaturePayload;
use jsdetect_guard::OutcomeKind;
use jsdetect_ml::metrics::thresholded_top_k;
use jsdetect_transform::Technique;

/// One script's full verdict: guard outcome plus both detector levels.
#[derive(Debug, Clone)]
pub struct ScriptVerdict {
    /// Three-way guard verdict for the analysis itself.
    pub outcome: OutcomeKind,
    /// Stable failure kind tag (`AnalysisError::kind()`), empty when ok.
    pub error_kind: String,
    /// Human-readable failure rendering, empty when ok.
    pub error_msg: String,
    /// Whether the analysis was replayed from the verdict cache.
    pub from_cache: bool,
    /// Level-1 class confidences; `None` for rejected scripts.
    pub level1: Option<Level1Prediction>,
    /// Level-2 per-technique probabilities (indexed by
    /// [`Technique::index`]); `None` for rejected scripts.
    pub level2: Option<Vec<f32>>,
    /// The thresholded Top-k technique verdict (paper §III-E2), applied
    /// only when level 1 flags the script as transformed.
    pub techniques: Vec<Technique>,
}

impl ScriptVerdict {
    /// Whether level 1 flagged the script as transformed (minified and/or
    /// obfuscated). `false` for rejected scripts.
    pub fn is_transformed(&self) -> bool {
        self.level1.map(|p| p.is_transformed()).unwrap_or(false)
    }
}

fn verdict_from(
    analyzed: CachedScript,
    level1: Option<Level1Prediction>,
    level2: Option<Vec<f32>>,
    top_k: usize,
    threshold: f32,
) -> ScriptVerdict {
    let transformed = level1.map(|p| p.is_transformed()).unwrap_or(false);
    let techniques = match (&level2, transformed) {
        (Some(probs), true) => thresholded_top_k(probs, top_k, threshold)
            .into_iter()
            .map(|i| Technique::ALL[i])
            .collect(),
        _ => Vec::new(),
    };
    ScriptVerdict {
        outcome: analyzed.outcome,
        error_kind: analyzed.error_kind,
        error_msg: analyzed.error_msg,
        from_cache: analyzed.from_cache,
        level1,
        level2,
        techniques,
    }
}

/// Classifies many scripts through the cache-aware hardened path.
///
/// Analysis runs under `config.limits` with verdict replay when `cache`
/// is provided; surviving payloads (ok and degraded outcomes) are batch
/// classified by both levels. `top_k`/`threshold` select the level-2
/// technique rule (the paper's values are `4` and
/// [`crate::DEFAULT_THRESHOLD`]).
pub fn classify_many_cached(
    srcs: &[&str],
    config: &AnalysisConfig,
    cache: Option<&AnalysisCache>,
    detectors: &TrainedDetectors,
    top_k: usize,
    threshold: f32,
) -> Vec<ScriptVerdict> {
    let analyzed = analyze_many(srcs, config, cache);
    let payloads: Vec<Option<&FeaturePayload>> =
        analyzed.iter().map(|c| c.payload.as_ref()).collect();
    let l1 = detectors.level1.predict_payloads(&payloads);
    let l2 = detectors.level2.predict_proba_payloads(&payloads);
    analyzed
        .into_iter()
        .zip(l1)
        .zip(l2)
        .map(|((a, l1), l2)| verdict_from(a, l1, l2, top_k, threshold))
        .collect()
}

/// Classifies one script (the daemon's per-request path: same analysis and
/// inference as [`classify_many_cached`], without the batch driver).
pub fn classify_one_cached(
    src: &str,
    config: &AnalysisConfig,
    cache: Option<&AnalysisCache>,
    detectors: &TrainedDetectors,
    top_k: usize,
    threshold: f32,
) -> ScriptVerdict {
    let analyzed = analyze_one(src, config, cache);
    classify_analyzed(analyzed, detectors, top_k, threshold)
}

/// Classifies an already-analyzed script (used when the caller produced
/// the [`CachedScript`] through a non-standard path, e.g. the daemon's
/// breaker-degraded lexer-only mode).
pub fn classify_analyzed(
    analyzed: CachedScript,
    detectors: &TrainedDetectors,
    top_k: usize,
    threshold: f32,
) -> ScriptVerdict {
    let (level1, level2) = match analyzed.payload.as_ref() {
        Some(p) => (
            Some(detectors.level1.predict_payload(p)),
            Some(detectors.level2.predict_proba_payload(p)),
        ),
        None => (None, None),
    };
    verdict_from(analyzed, level1, level2, top_k, threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use crate::pipeline::train_pipeline;
    use std::sync::OnceLock;

    fn detectors() -> &'static TrainedDetectors {
        static D: OnceLock<TrainedDetectors> = OnceLock::new();
        D.get_or_init(|| train_pipeline(24, 11, &DetectorConfig::fast()).detectors)
    }

    #[test]
    fn classify_covers_all_three_outcomes() {
        let bomb = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
        let srcs =
            ["function add(a, b) { return a + b; } add(1, 2);", "var ;;; broken", bomb.as_str()];
        let v = classify_many_cached(
            &srcs,
            &AnalysisConfig::default(),
            None,
            detectors(),
            4,
            crate::DEFAULT_THRESHOLD,
        );
        assert_eq!(v[0].outcome, OutcomeKind::Ok);
        assert!(v[0].level1.is_some() && v[0].level2.is_some());
        assert_eq!(v[1].outcome, OutcomeKind::Degraded);
        assert!(v[1].level1.is_some(), "degraded scripts still classify");
        assert_eq!(v[2].outcome, OutcomeKind::Rejected);
        assert!(v[2].level1.is_none() && v[2].techniques.is_empty());
    }

    #[test]
    fn single_and_batch_paths_agree() {
        let src = "var x = 1; function f(y) { return y * x; } f(2);";
        let batch = classify_many_cached(
            &[src],
            &AnalysisConfig::default(),
            None,
            detectors(),
            4,
            crate::DEFAULT_THRESHOLD,
        );
        let one = classify_one_cached(
            src,
            &AnalysisConfig::default(),
            None,
            detectors(),
            4,
            crate::DEFAULT_THRESHOLD,
        );
        let b = &batch[0];
        assert_eq!(b.outcome, one.outcome);
        assert_eq!(b.level1, one.level1);
        assert_eq!(b.level2, one.level2);
        assert_eq!(b.techniques, one.techniques);
    }
}
