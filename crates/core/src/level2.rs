//! The level-2 detector: which of the ten transformation techniques were
//! used (paper §III-C).

use crate::config::DetectorConfig;
use jsdetect_features::{FeaturePayload, VectorSpace};
use jsdetect_ml::MultiLabel;
use jsdetect_obs::names;
use jsdetect_transform::Technique;
use serde::{Deserialize, Serialize};

/// The empirically selected probability threshold of §III-E2.
pub const DEFAULT_THRESHOLD: f32 = 0.10;

/// A trained level-2 detector over the ten techniques.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Level2Detector {
    space: VectorSpace,
    model: MultiLabel,
}

impl Level2Detector {
    /// Trains on `(payload, technique-label-vector)` pairs; label vectors
    /// are indexed by [`Technique::index`].
    pub fn train_from_payloads(
        samples: &[(&FeaturePayload, Vec<bool>)],
        cfg: &DetectorConfig,
    ) -> Self {
        let _t = jsdetect_obs::span(names::SPAN_LEVEL2_TRAIN);
        let y: Vec<Vec<bool>> = samples.iter().map(|(_, l)| l.clone()).collect();
        let (space, model) = crate::level1::fit(samples.iter().map(|(p, _)| *p), &y, cfg);
        Level2Detector { space, model }
    }

    /// Per-technique probabilities for one pre-extracted feature payload
    /// (the cache/serve path: no lexing or parsing).
    pub fn predict_proba_payload(&self, payload: &FeaturePayload) -> Vec<f32> {
        let _t = jsdetect_obs::span(names::SPAN_LEVEL2_PREDICT);
        self.model.predict_proba(&self.space.vectorize_payload(payload))
    }

    /// Batch probabilities over pre-extracted payloads; `None` inputs
    /// (rejected scripts) yield `None` outputs.
    pub fn predict_proba_payloads(
        &self,
        payloads: &[Option<&FeaturePayload>],
    ) -> Vec<Option<Vec<f32>>> {
        crate::level1::batch_payload_proba(&self.space, &self.model, payloads, || {
            jsdetect_obs::span(names::SPAN_LEVEL2_PREDICT_BATCH)
        })
    }

    /// The fitted vector space (for inspection).
    pub fn space(&self) -> &VectorSpace {
        &self.space
    }

    /// Named feature importances for one technique, most important first.
    pub fn feature_importances(&self, technique: Technique) -> Vec<(String, f64)> {
        crate::level1::named_importances(
            &self.space,
            self.model.feature_importances(technique.index()),
        )
    }

    /// Restores internal indexes after deserialization and validates the
    /// flattened forest arrays.
    pub fn rebuild_index(&mut self) {
        self.space.rebuild_index();
        self.model.rebuild_index();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_constant_matches_paper() {
        assert!((DEFAULT_THRESHOLD - 0.10).abs() < f32::EPSILON);
    }
}
