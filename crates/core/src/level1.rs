//! The level-1 detector: regular vs. minified vs. obfuscated
//! (paper §III-C).

use crate::config::DetectorConfig;
use jsdetect_features::{FeaturePayload, VectorSpace};
use jsdetect_ml::{Dataset, MultiLabel};
use jsdetect_obs::names;
use serde::{Deserialize, Serialize};

/// Level-1 class labels (multi-label: a file can be both minified and
/// obfuscated, or partially regular).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Level1Truth {
    /// The file is (at least partly) regular.
    pub regular: bool,
    /// A minification technique was applied.
    pub minified: bool,
    /// An obfuscation technique was applied.
    pub obfuscated: bool,
}

impl Level1Truth {
    /// Truth for an untransformed file.
    pub fn regular() -> Self {
        Level1Truth { regular: true, minified: false, obfuscated: false }
    }

    /// Truth derived from an applied technique set.
    pub fn from_techniques(techniques: &[jsdetect_transform::Technique]) -> Self {
        let minified = techniques.iter().any(|t| t.is_minification());
        let obfuscated = techniques.iter().any(|t| !t.is_minification());
        Level1Truth { regular: techniques.is_empty(), minified, obfuscated }
    }

    /// Whether the file counts as transformed (obfuscated and/or minified,
    /// §III-E1).
    pub fn is_transformed(&self) -> bool {
        self.minified || self.obfuscated
    }

    /// Multi-label vector `[regular, minified, obfuscated]`.
    pub fn label_vector(&self) -> Vec<bool> {
        vec![self.regular, self.minified, self.obfuscated]
    }
}

/// Level-1 prediction: per-class confidence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Level1Prediction {
    /// Confidence the file is regular.
    pub regular: f32,
    /// Confidence the file is minified.
    pub minified: f32,
    /// Confidence the file is obfuscated.
    pub obfuscated: f32,
}

impl Level1Prediction {
    /// The paper's decision rule: a file is transformed if flagged
    /// obfuscated and/or minified.
    pub fn is_transformed(&self) -> bool {
        self.minified >= 0.5 || self.obfuscated >= 0.5
    }

    /// Whether the regular flag fires.
    pub fn is_regular(&self) -> bool {
        !self.is_transformed()
    }
}

/// A trained level-1 detector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Level1Detector {
    space: VectorSpace,
    model: MultiLabel,
}

impl Level1Detector {
    /// Trains on `(payload, truth)` pairs (one analysis per script can
    /// feed both the level-1 and level-2 detectors).
    pub fn train_from_payloads(
        samples: &[(&FeaturePayload, Level1Truth)],
        cfg: &DetectorConfig,
    ) -> Self {
        let _t = jsdetect_obs::span(names::SPAN_LEVEL1_TRAIN);
        let y: Vec<Vec<bool>> = samples.iter().map(|(_, t)| t.label_vector()).collect();
        let (space, model) = fit(samples.iter().map(|(p, _)| *p), &y, cfg);
        Level1Detector { space, model }
    }

    /// Classifies one pre-extracted feature payload (the cache/serve path:
    /// no lexing or parsing, just projection and forest inference).
    pub fn predict_payload(&self, payload: &FeaturePayload) -> Level1Prediction {
        let _t = jsdetect_obs::span(names::SPAN_LEVEL1_PREDICT);
        let p = self.model.predict_proba(&self.space.vectorize_payload(payload));
        Level1Prediction { regular: p[0], minified: p[1], obfuscated: p[2] }
    }

    /// Batch-classifies pre-extracted payloads; `None` inputs (rejected
    /// scripts) yield `None` outputs.
    pub fn predict_payloads(
        &self,
        payloads: &[Option<&FeaturePayload>],
    ) -> Vec<Option<Level1Prediction>> {
        let probs = batch_payload_proba(&self.space, &self.model, payloads, || {
            jsdetect_obs::span(names::SPAN_LEVEL1_PREDICT_BATCH)
        });
        probs
            .into_iter()
            .map(|p| {
                p.map(|p| Level1Prediction { regular: p[0], minified: p[1], obfuscated: p[2] })
            })
            .collect()
    }

    /// The fitted vector space (for inspection).
    pub fn space(&self) -> &VectorSpace {
        &self.space
    }

    /// Named feature importances for one class (0 = regular, 1 = minified,
    /// 2 = obfuscated), most important first. Chained-label inputs are
    /// named `chain:<i>`.
    pub fn feature_importances(&self, class: usize) -> Vec<(String, f64)> {
        named_importances(&self.space, self.model.feature_importances(class))
    }

    /// Restores internal indexes after deserialization and validates the
    /// flattened forest arrays.
    pub fn rebuild_index(&mut self) {
        self.space.rebuild_index();
        self.model.rebuild_index();
    }
}

/// Fits a vector space on the training payloads and a multi-label model on
/// their vectors (shared by both detector levels).
pub(crate) fn fit<'a>(
    payloads: impl Iterator<Item = &'a FeaturePayload> + Clone,
    y: &[Vec<bool>],
    cfg: &DetectorConfig,
) -> (VectorSpace, MultiLabel) {
    assert!(!y.is_empty(), "no training sample parsed");
    let space = VectorSpace::fit(payloads.clone(), cfg.max_ngrams, cfg.features);
    let mut data = Dataset::zeros(y.len(), space.dim());
    for (i, p) in payloads.enumerate() {
        data.fill_row(i, &space.vectorize_payload(p));
    }
    let model = MultiLabel::fit_dataset(&data, y, cfg.strategy, &cfg.base);
    (space, model)
}

/// Shared payload-batch inference: vectorizes the `Some` payloads into one
/// columnar dataset, runs the flattened-forest batch path, and scatters
/// the probability rows back to the input positions.
pub(crate) fn batch_payload_proba<S>(
    space: &VectorSpace,
    model: &MultiLabel,
    payloads: &[Option<&FeaturePayload>],
    span: impl FnOnce() -> S,
) -> Vec<Option<Vec<f32>>> {
    if payloads.is_empty() {
        return Vec::new();
    }
    let _t = span();
    let present: Vec<usize> =
        payloads.iter().enumerate().filter_map(|(i, p)| p.map(|_| i)).collect();
    let mut data = Dataset::zeros(present.len(), space.dim());
    for (row, &i) in present.iter().enumerate() {
        let p = payloads[i].expect("present index has a payload");
        data.fill_row(row, &space.vectorize_payload(p));
    }
    let probs = model.predict_proba_batch(&data);
    let mut out: Vec<Option<Vec<f32>>> = (0..payloads.len()).map(|_| None).collect();
    for (&i, p) in present.iter().zip(probs) {
        out[i] = Some(p);
    }
    out
}

/// Pairs importances with vector-space dimension names.
pub(crate) fn named_importances(
    space: &VectorSpace,
    importances: Option<Vec<f64>>,
) -> Vec<(String, f64)> {
    let Some(imp) = importances else { return Vec::new() };
    let mut named: Vec<(String, f64)> = imp
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            let name = if i < space.dim() {
                space.dim_name(i)
            } else {
                format!("chain:{}", i - space.dim())
            };
            (name, v)
        })
        .collect();
    named.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    named
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_transform::Technique;

    #[test]
    fn truth_from_techniques() {
        let t = Level1Truth::from_techniques(&[Technique::MinificationSimple]);
        assert!(t.minified && !t.obfuscated && !t.regular);
        let t = Level1Truth::from_techniques(&[Technique::GlobalArray]);
        assert!(!t.minified && t.obfuscated);
        let t = Level1Truth::from_techniques(&[
            Technique::MinificationAdvanced,
            Technique::IdentifierObfuscation,
        ]);
        assert!(t.minified && t.obfuscated && t.is_transformed());
        assert!(Level1Truth::regular().regular);
        assert!(!Level1Truth::regular().is_transformed());
    }

    #[test]
    fn prediction_rule() {
        let p = Level1Prediction { regular: 0.9, minified: 0.1, obfuscated: 0.2 };
        assert!(!p.is_transformed());
        let p = Level1Prediction { regular: 0.4, minified: 0.7, obfuscated: 0.2 };
        assert!(p.is_transformed());
        let p = Level1Prediction { regular: 0.4, minified: 0.3, obfuscated: 0.6 };
        assert!(p.is_transformed());
    }
}
