//! The paper's training protocol (§III-D) at configurable scale.
//!
//! The paper collects 21,000 regular scripts, transforms each with all ten
//! techniques, and carves out disjoint training / validation / test sets.
//! [`train_pipeline`] reproduces that protocol over the synthetic corpus:
//! source scripts are partitioned by index (train / test / validation), so
//! every derived sample in one split comes from source scripts never seen
//! by another split.

use crate::analysis::analyze_trusted;
use crate::config::DetectorConfig;
use crate::detector::{Detector, Level1Truth};
use jsdetect_corpus::{GroundTruth, LabeledSample};
use jsdetect_features::FEATURE_SPACE_VERSION;
use jsdetect_obs::names;
use jsdetect_transform::Technique;
use serde::{Deserialize, Serialize};

/// Both trained detectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedDetectors {
    /// Level 1: regular / minified / obfuscated.
    pub level1: Detector,
    /// Level 2: the ten techniques.
    pub level2: Detector,
}

impl TrainedDetectors {
    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serializer error (e.g. a non-finite float
    /// in a trained model) instead of panicking.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserializes from JSON and rebuilds internal indexes.
    ///
    /// # Errors
    ///
    /// Returns the parse failure, or a version error naming both versions
    /// when either level was fitted under another feature layout than
    /// [`FEATURE_SPACE_VERSION`]: its vectors would not line up with what
    /// today's analysis extracts, so such a model must be refitted. Also
    /// refuses, naming the level, a level whose label count is not its
    /// level's (3 for level 1, one per [`Technique`] for level 2) or whose
    /// model reads vectors of another width than its space's.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let mut d: TrainedDetectors = serde_json::from_str(json)?;
        // Level 1's labels: regular, minified, obfuscated.
        for (level, detector, n_labels) in
            [("level1", &d.level1, 3), ("level2", &d.level2, Technique::ALL.len())]
        {
            let version = detector.space().version();
            if version != FEATURE_SPACE_VERSION {
                return Err(serde::DeError::new(format!(
                    "model fitted under feature space version {}, this build extracts \
                     version {}; refit it",
                    version, FEATURE_SPACE_VERSION
                ))
                .into());
            }
            if let Err(msg) = detector.check_shape(n_labels) {
                return Err(serde::DeError::new(format!("{level}: {msg}")).into());
            }
        }
        d.level1.rebuild_index();
        d.level2.rebuild_index();
        Ok(d)
    }
}

/// Everything the evaluation experiments need: trained detectors plus the
/// held-out test pools.
#[derive(Debug)]
pub struct PipelineOutput {
    /// The trained detectors.
    pub detectors: TrainedDetectors,
    /// The held-out pools of the corpus the detectors were trained on.
    pub pools: HeldOutPools,
}

/// The samples of a [`GroundTruth`] that training never sees, carved by
/// [`held_out_pools`].
#[derive(Debug)]
pub struct HeldOutPools {
    /// Held-out regular samples.
    pub test_regular: Vec<LabeledSample>,
    /// Held-out minified samples (simple + advanced).
    pub test_minified: Vec<LabeledSample>,
    /// Held-out obfuscated samples (all eight techniques).
    pub test_obfuscated: Vec<LabeledSample>,
    /// Held-out per-technique samples for level 2: `test_obfuscated`
    /// followed by `test_minified`.
    pub test_level2: Vec<LabeledSample>,
    /// Validation regular samples (model-selection experiments).
    pub validation_regular: Vec<LabeledSample>,
}

/// Index split mirroring §III-D2 at scale `n`.
#[derive(Debug, Clone, Copy)]
struct Split {
    train_end: usize,
    test_end: usize,
}

fn split(n: usize) -> Split {
    // 1/2 train, 1/4 test, 1/4 validation.
    Split { train_end: n / 2, test_end: n / 2 + n / 4 }
}

const OBFUSCATIONS: [Technique; 8] = [
    Technique::IdentifierObfuscation,
    Technique::StringObfuscation,
    Technique::GlobalArray,
    Technique::NoAlphanumeric,
    Technique::DeadCodeInjection,
    Technique::ControlFlowFlattening,
    Technique::SelfDefending,
    Technique::DebugProtection,
];

/// Runs the full training protocol on `n_regular` generated scripts.
pub fn train_pipeline(n_regular: usize, seed: u64, cfg: &DetectorConfig) -> PipelineOutput {
    let _t = jsdetect_obs::span(names::SPAN_TRAIN_PIPELINE);
    let gt = GroundTruth::generate(n_regular, seed);
    let sp = split(n_regular);

    // Analyze every training-partition sample exactly once; both detectors
    // train from these shared payloads.
    let mut train_samples: Vec<&LabeledSample> = Vec::new();
    let mut l1_quota: Vec<bool> = Vec::new(); // participate in level-1 set
    for s in &gt.regular[..sp.train_end] {
        train_samples.push(s);
        l1_quota.push(true);
    }
    for t in [Technique::MinificationSimple, Technique::MinificationAdvanced] {
        for s in pool_slice(&gt, t, 0, sp.train_end) {
            train_samples.push(s);
            l1_quota.push(true);
        }
    }
    for t in OBFUSCATIONS {
        // Level 1 takes n/8 per obfuscation technique so the obfuscated
        // class is the same size as the regular class; level 2 uses the
        // whole pool.
        let quota = (sp.train_end / OBFUSCATIONS.len()).max(1);
        for (i, s) in pool_slice(&gt, t, 0, sp.train_end).iter().enumerate() {
            train_samples.push(s);
            l1_quota.push(i < quota);
        }
    }
    // Partially transformed samples (§III-C): both regular and minified.
    let partials: Vec<jsdetect_corpus::LabeledSample> = (0..(n_regular / 3).max(4))
        .filter_map(|i| jsdetect_corpus::dataset::partial_sample(seed ^ ((i as u64) << 33)))
        .collect();

    // One batch, so the pool claims the longest script of either set first.
    let srcs: Vec<&str> =
        train_samples.iter().copied().chain(&partials).map(|s| s.src.as_str()).collect();
    let mut payloads = analyze_trusted(&srcs);
    let partial_payloads = payloads.split_off(train_samples.len());

    let mut l1_set = Vec::new();
    let mut l2_set = Vec::new();
    for ((sample, payload), in_l1) in train_samples.iter().zip(&payloads).zip(&l1_quota) {
        if let Ok(p) = payload {
            if *in_l1 {
                l1_set.push((p, Level1Truth::from_techniques(&sample.techniques).label_vector()));
            }
            if sample.is_transformed() {
                l2_set.push((p, sample.label_vector()));
            }
        }
    }
    for (sample, payload) in partials.iter().zip(&partial_payloads) {
        if let Ok(p) = payload {
            let mut truth = Level1Truth::from_techniques(&sample.techniques);
            truth.regular = true; // the page part is regular code
            l1_set.push((p, truth.label_vector()));
            l2_set.push((p, sample.label_vector()));
        }
    }
    let level1 = {
        let _t = jsdetect_obs::span(names::SPAN_LEVEL1_TRAIN);
        Detector::train(&l1_set, cfg)
    };
    let level2 = {
        let _t = jsdetect_obs::span(names::SPAN_LEVEL2_TRAIN);
        Detector::train(&l2_set, cfg)
    };

    PipelineOutput { detectors: TrainedDetectors { level1, level2 }, pools: held_out_pools(&gt) }
}

/// Carves the test and validation pools out of `gt` with the same split
/// [`train_pipeline`] trains on, so a model trained on
/// `GroundTruth::generate(n, seed)` is evaluated on exactly the samples it
/// never saw.
pub fn held_out_pools(gt: &GroundTruth) -> HeldOutPools {
    let sp = split(gt.regular.len());
    let slices = |techniques: &[Technique]| -> Vec<LabeledSample> {
        techniques
            .iter()
            .flat_map(|t| pool_slice(gt, *t, sp.train_end, sp.test_end))
            .cloned()
            .collect()
    };
    HeldOutPools {
        test_regular: gt.regular[sp.train_end..sp.test_end].to_vec(),
        test_minified: slices(&[Technique::MinificationSimple, Technique::MinificationAdvanced]),
        test_obfuscated: slices(&OBFUSCATIONS),
        test_level2: slices(&Technique::ALL),
        validation_regular: gt.regular[sp.test_end..].to_vec(),
    }
}

/// Slice of a technique pool corresponding to source-script indices
/// `[lo, hi)`. Pools can be shorter than the regular corpus when a
/// transform failed; indices are clamped.
fn pool_slice(gt: &GroundTruth, t: Technique, lo: usize, hi: usize) -> &[LabeledSample] {
    let pool = gt.pool(t);
    let lo = lo.min(pool.len());
    let hi = hi.min(pool.len());
    &pool[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_features::{FeatureConfig, FeaturePayload, VectorSpace};
    use serde_json::JsonValue;
    use std::sync::OnceLock;

    fn detectors() -> &'static TrainedDetectors {
        static D: OnceLock<TrainedDetectors> = OnceLock::new();
        D.get_or_init(|| train_pipeline(8, 42, &DetectorConfig::fast()).detectors)
    }

    fn json(value: &impl Serialize) -> String {
        serde_json::to_string(value).unwrap()
    }

    fn load_error(json: &str) -> String {
        TrainedDetectors::from_json(json).expect_err("the model must be refused").to_string()
    }

    #[test]
    fn from_json_rejects_swapped_levels() {
        let d = detectors();
        assert!(TrainedDetectors::from_json(&d.to_json().unwrap()).is_ok());
        let swapped = format!(r#"{{"level1":{},"level2":{}}}"#, json(&d.level2), json(&d.level1));
        let err = load_error(&swapped);
        assert!(err.contains("level1: 10 labels, expected 3"), "{}", err);
    }

    #[test]
    fn from_json_rejects_a_model_whose_width_is_not_its_space_dim() {
        let d = detectors();
        let level1: JsonValue = serde_json::from_str(&json(&d.level1)).unwrap();
        // No 4-gram block: narrower than the space the model was fitted on.
        let narrow =
            VectorSpace::fit(std::iter::empty::<&FeaturePayload>(), 0, FeatureConfig::default());
        assert!(narrow.dim() < d.level1.space().dim());
        let mismatched = format!(
            r#"{{"level1":{{"space":{},"model":{}}},"level2":{}}}"#,
            json(&narrow),
            json(level1.get("model").unwrap()),
            json(&d.level2)
        );
        let err = load_error(&mismatched);
        assert!(err.contains("level1: model reads"), "{}", err);
    }

    #[test]
    fn split_fractions() {
        let sp = split(100);
        assert_eq!(sp.train_end, 50);
        assert_eq!(sp.test_end, 75);
    }

    #[test]
    fn pools_are_deterministic_and_disjoint_sized() {
        let a = held_out_pools(&GroundTruth::generate(16, 3));
        let b = held_out_pools(&GroundTruth::generate(16, 3));
        assert_eq!(a.test_regular.len(), b.test_regular.len());
        assert_eq!(a.test_regular.len(), 4); // n/4
        assert_eq!(a.validation_regular.len(), 4);
        assert!(a.test_regular.iter().zip(&b.test_regular).all(|(x, y)| x.src == y.src));
        // The ablations score level 1 on test_level2 split at this seam.
        let seam: Vec<&str> =
            a.test_obfuscated.iter().chain(&a.test_minified).map(|s| s.src.as_str()).collect();
        assert_eq!(seam, a.test_level2.iter().map(|s| s.src.as_str()).collect::<Vec<_>>());
    }

    #[test]
    fn obfuscation_list_excludes_minification() {
        assert_eq!(OBFUSCATIONS.len(), 8);
        assert!(OBFUSCATIONS.iter().all(|t| !t.is_minification()));
    }
}
