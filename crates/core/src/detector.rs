//! The detector both levels share (paper §III-C): a vector space fitted
//! on the training payloads plus a multi-label model over its vectors.
//! Level 1 trains it on the regular / minified / obfuscated labels of
//! [`Level1Truth`], level 2 on the ten technique labels indexed by
//! [`Technique::index`](jsdetect_transform::Technique::index).

use crate::config::DetectorConfig;
use jsdetect_features::{FeaturePayload, VectorSpace};
use jsdetect_ml::{Dataset, MultiLabel};
use serde::{Deserialize, Serialize};

/// A trained multi-label detector over one fitted vector space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Detector {
    space: VectorSpace,
    model: MultiLabel,
}

impl Detector {
    /// Fits a vector space on the training payloads and a multi-label
    /// model on their vectors. Every label vector has one entry per label
    /// (one analysis per script can feed both levels).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(samples: &[(&FeaturePayload, Vec<bool>)], cfg: &DetectorConfig) -> Self {
        assert!(!samples.is_empty(), "no training sample parsed");
        let space = VectorSpace::fit(samples.iter().map(|(p, _)| *p), cfg.max_ngrams, cfg.features);
        let mut data = Dataset::zeros(samples.len(), space.dim());
        for (i, (p, _)) in samples.iter().enumerate() {
            data.fill_row(i, &space.vectorize_payload(p));
        }
        let y: Vec<Vec<bool>> = samples.iter().map(|(_, l)| l.clone()).collect();
        let model = MultiLabel::fit(&data, &y, cfg.strategy, &cfg.base);
        Detector { space, model }
    }

    /// Per-label probabilities for one pre-extracted feature payload (no
    /// lexing or parsing, just projection and model inference).
    pub fn predict(&self, payload: &FeaturePayload) -> Vec<f32> {
        self.model.predict_proba(&self.space.vectorize_payload(payload))
    }

    /// The fitted vector space (for inspection).
    pub fn space(&self) -> &VectorSpace {
        &self.space
    }

    /// Named feature importances for one label, most important first
    /// (empty unless the base model is a forest). Chained-label inputs are
    /// named `chain:<i>`.
    pub fn feature_importances(&self, label: usize) -> Vec<(String, f64)> {
        let Some(imp) = self.model.feature_importances(label) else { return Vec::new() };
        let dim = self.space.dim();
        let mut named: Vec<(String, f64)> = imp
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                let name =
                    if i < dim { self.space.dim_name(i) } else { format!("chain:{}", i - dim) };
                (name, v)
            })
            .collect();
        named.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        named
    }

    /// Checks a deserialized detector's shape: `n_labels` labels, read
    /// from vectors as wide as its space's.
    pub(crate) fn check_shape(&self, n_labels: usize) -> Result<(), String> {
        if self.model.n_labels() != n_labels {
            return Err(format!("{} labels, expected {}", self.model.n_labels(), n_labels));
        }
        if self.model.n_features() != self.space.dim() {
            return Err(format!(
                "model reads {} features, its feature space has {}",
                self.model.n_features(),
                self.space.dim()
            ));
        }
        Ok(())
    }

    /// Restores internal indexes after deserialization and validates the
    /// flattened forest arrays.
    pub fn rebuild_index(&mut self) {
        self.space.rebuild_index();
        self.model.rebuild_index();
    }
}

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
    /// Reads the level-1 detector's probabilities, in
    /// [`Level1Truth::label_vector`] order.
    pub fn from_probs(p: &[f32]) -> Self {
        Level1Prediction { regular: p[0], minified: p[1], obfuscated: p[2] }
    }

    /// The paper's decision rule: a file is transformed if flagged
    /// obfuscated and/or minified.
    pub fn is_transformed(&self) -> bool {
        self.minified >= 0.5 || self.obfuscated >= 0.5
    }
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
        assert_eq!(Level1Prediction::from_probs(&[0.4, 0.3, 0.6]), p);
    }
}
