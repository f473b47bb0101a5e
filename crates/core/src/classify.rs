//! End-to-end classification over the cache-aware hardened path: the one
//! entry the serve daemon, the CLI, the experiments and the examples all
//! share.
//!
//! [`classify_one_cached`] takes one script from source to verdict: cache
//! lookup or guarded analysis ([`analyze_one`]), then both detector levels
//! on the space-independent [`FeaturePayload`](jsdetect_features::FeaturePayload).
//! [`classify_many_cached`] runs exactly that function for every script,
//! one work item per script on the work-stealing pool. So a verdict
//! replayed from the store classifies bit-identically to a fresh one, and
//! a request served by the daemon classifies bit-identically to the same
//! script in an offline sweep: both run the same code.

use crate::analysis::{analyze_one, run_stealing, CachedScript};
use crate::config::AnalysisConfig;
use crate::level1::Level1Prediction;
use crate::pipeline::TrainedDetectors;
use jsdetect_cache::AnalysisCache;
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

/// Classifies many scripts through the cache-aware hardened path.
///
/// Each script runs [`classify_one_cached`] as one work item on the
/// work-stealing pool; verdicts come back in input order. `top_k` and
/// `threshold` select the level-2 technique rule (the paper's values are
/// `4` and [`crate::DEFAULT_THRESHOLD`]).
pub fn classify_many_cached(
    srcs: &[&str],
    config: &AnalysisConfig,
    cache: Option<&AnalysisCache>,
    detectors: &TrainedDetectors,
    top_k: usize,
    threshold: f32,
) -> Vec<ScriptVerdict> {
    run_stealing(srcs.len(), |i| {
        classify_one_cached(srcs[i], config, cache, detectors, top_k, threshold)
    })
}

/// Classifies one script: analysis under `config.limits` with verdict
/// replay when `cache` is provided, then both detector levels on the
/// surviving payload (ok and degraded outcomes).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use crate::pipeline::train_pipeline;
    use jsdetect_ml::BaseParams;
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

    #[test]
    fn every_classification_counts_its_tree_traversals() {
        // Counters are process-wide and other tests run concurrently, so
        // count only the increments recorded on this thread, found through
        // a span opened around the call.
        let _lock = crate::TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        jsdetect_obs::set_enabled(true);
        let v = {
            let _probe = jsdetect_obs::span("traversal_probe");
            classify_one_cached(
                "function add(a, b) { return a + b; } add(1, 2);",
                &AnalysisConfig::default(),
                None,
                detectors(),
                4,
                crate::DEFAULT_THRESHOLD,
            )
        };
        let snap = jsdetect_obs::snapshot();
        jsdetect_obs::set_enabled(false);
        assert_eq!(v.outcome, OutcomeKind::Ok);
        let thread = snap.events.iter().find(|e| e.path == "traversal_probe").unwrap().thread;
        let traversed: u64 = snap
            .counter_events
            .iter()
            .filter(|e| e.thread == thread && e.name == jsdetect_obs::names::CTR_TREES_TRAVERSED)
            .map(|e| e.delta)
            .sum();
        let BaseParams::Forest(forest) = &DetectorConfig::fast().base else {
            panic!("the fast config trains forests")
        };
        // Three level-1 labels and one level-2 label per technique, each
        // its own forest.
        let forests = 3 + Technique::ALL.len();
        assert_eq!(traversed, (forests * forest.n_trees) as u64);
    }
}
