//! The vector space combining hand-picked and 4-gram features
//! (paper §III-B: "each feature is associated with one consistent
//! dimension").

use crate::handpicked::{FEATURE_NAMES, N_HANDPICKED};
use crate::ngrams::NgramVocab;
use crate::FeaturePayload;
use jsdetect_lint::LintSummary;
use jsdetect_obs::names;
use serde::{Deserialize, Serialize};

/// Version of the vector-space layout. Bumped when the dimension layout
/// changes (v2: lint-summary densities appended to the hand-picked
/// block; v3: normalized-vs-original delta block after the lint block,
/// plus the ninth lint rule); serialized models from other versions must
/// be refitted.
pub const FEATURE_SPACE_VERSION: u32 = 3;

/// Number of lint-summary dimensions.
const N_LINT: usize = LintSummary::N_FEATURES;

/// Number of normalization-delta dimensions.
const N_NORM: usize = crate::deltas::N_NORMALIZE;

/// Which feature families a vector space includes (used for the feature
/// ablation benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// Include the hand-picked features.
    pub handpicked: bool,
    /// Include the 4-gram features.
    pub ngrams: bool,
    /// Include the lint-rule densities.
    pub lint: bool,
    /// Include the normalized-vs-original delta features.
    pub normalize: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig { handpicked: true, ngrams: true, lint: true, normalize: true }
    }
}

/// A fitted vector space: consistent dimensions for every script.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VectorSpace {
    version: u32,
    config: FeatureConfig,
    vocab: NgramVocab,
}

impl VectorSpace {
    /// Fits the 4-gram vocabulary on a training corpus of payloads.
    pub fn fit<'a, I>(corpus: I, max_ngrams: usize, config: FeatureConfig) -> Self
    where
        I: IntoIterator<Item = &'a FeaturePayload>,
    {
        let _t = jsdetect_obs::span(names::SPAN_FIT_SPACE);
        let docs = corpus.into_iter().map(|p| p.ngrams.as_slice());
        let vocab = NgramVocab::build(docs, max_ngrams);
        VectorSpace { version: FEATURE_SPACE_VERSION, config, vocab }
    }

    /// Layout version this space was fitted with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Total vector dimensionality.
    pub fn dim(&self) -> usize {
        let mut d = 0;
        if self.config.handpicked {
            d += N_HANDPICKED;
        }
        if self.config.lint {
            d += N_LINT;
        }
        if self.config.normalize {
            d += N_NORM;
        }
        if self.config.ngrams {
            d += self.vocab.dim();
        }
        d
    }

    /// Vectorizes one script's [`FeaturePayload`]: the hand-picked, lint
    /// and delta blocks are copied verbatim and the n-gram block is
    /// computed from exact counts, so a payload replayed from the cache
    /// projects bit-identically to a fresh one.
    pub fn vectorize_payload(&self, p: &FeaturePayload) -> Vec<f32> {
        let _t = jsdetect_obs::span(names::SPAN_VECTORIZE);
        let mut out = Vec::with_capacity(self.dim());
        if self.config.handpicked {
            out.extend_from_slice(&p.handpicked);
        }
        if self.config.lint {
            out.extend_from_slice(&p.lint);
        }
        if self.config.normalize {
            out.extend_from_slice(&p.normalize);
        }
        if self.config.ngrams {
            out.extend(self.vocab.vectorize(&p.ngrams));
        }
        out
    }

    /// Name of dimension `i`.
    pub fn dim_name(&self, i: usize) -> String {
        let mut j = i;
        if self.config.handpicked {
            if j < N_HANDPICKED {
                return FEATURE_NAMES[j].to_string();
            }
            j -= N_HANDPICKED;
        }
        if self.config.lint {
            if j < N_LINT {
                return LintSummary::feature_names()[j].clone();
            }
            j -= N_LINT;
        }
        if self.config.normalize {
            if j < N_NORM {
                return crate::deltas::delta_feature_names()[j].clone();
            }
            j -= N_NORM;
        }
        format!("4gram:{}", self.vocab.gram_name(j))
    }

    /// Restores the internal lookup index after deserialization.
    pub fn rebuild_index(&mut self) {
        self.vocab.rebuild_index();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use jsdetect_guard::Limits;

    fn payloads(srcs: &[&str]) -> Vec<FeaturePayload> {
        srcs.iter().map(|s| analyze(s, &Limits::trusted()).into_ok().unwrap()).collect()
    }

    fn spaces(srcs: &[&str]) -> (VectorSpace, Vec<FeaturePayload>) {
        let payloads = payloads(srcs);
        let vs = VectorSpace::fit(payloads.iter(), 64, FeatureConfig::default());
        (vs, payloads)
    }

    fn only(handpicked: bool, ngrams: bool, lint: bool) -> FeatureConfig {
        FeatureConfig { handpicked, ngrams, lint, normalize: false }
    }

    #[test]
    fn consistent_dimensions() {
        let (vs, payloads) = spaces(&["var x = 1;", "function f() { return 2; }"]);
        let v0 = vs.vectorize_payload(&payloads[0]);
        let v1 = vs.vectorize_payload(&payloads[1]);
        assert_eq!(v0.len(), vs.dim());
        assert_eq!(v1.len(), vs.dim());
        assert_ne!(v0, v1);
    }

    #[test]
    fn handpicked_only_config() {
        let vs = VectorSpace::fit(&payloads(&["var x = 1;"]), 64, only(true, false, false));
        assert_eq!(vs.dim(), crate::handpicked::N_HANDPICKED);
    }

    #[test]
    fn ngrams_only_config() {
        let corpus = payloads(&["var x = 1; var y = 2;"]);
        let vs = VectorSpace::fit(&corpus, 64, only(false, true, false));
        assert!(vs.dim() > 0);
        assert!(vs.dim() <= 64);
    }

    #[test]
    fn lint_only_config() {
        let vs = VectorSpace::fit(&payloads(&["var x = 1;"]), 64, only(false, false, true));
        assert_eq!(vs.dim(), LintSummary::N_FEATURES);
        assert_eq!(vs.dim_name(0), format!("lint:{}", jsdetect_lint::RULE_NAMES[0]));
    }

    #[test]
    fn dim_names_cover_all_families() {
        let (vs, _) = spaces(&["var x = 1; var y = 2;"]);
        assert_eq!(vs.dim_name(0), "avg_chars_per_line");
        let lint_name = vs.dim_name(crate::handpicked::N_HANDPICKED);
        assert!(lint_name.starts_with("lint:"), "{}", lint_name);
        let norm_name = vs.dim_name(crate::handpicked::N_HANDPICKED + LintSummary::N_FEATURES);
        assert_eq!(norm_name, "normalize:node_ratio");
        let gram_name = vs.dim_name(
            crate::handpicked::N_HANDPICKED + LintSummary::N_FEATURES + crate::deltas::N_NORMALIZE,
        );
        assert!(gram_name.starts_with("4gram:"), "{}", gram_name);
    }

    #[test]
    fn fitted_space_carries_current_version() {
        let (vs, _) = spaces(&["var x = 1;"]);
        assert_eq!(vs.version(), FEATURE_SPACE_VERSION);
    }

    #[test]
    fn lint_dimensions_separate_obfuscated_from_clean() {
        let dirty = "while (running) { debugger; step(); }";
        let (vs, payloads) = spaces(&[dirty, "var x = 1; f(x);"]);
        let lint_block = |v: Vec<f32>| {
            v[crate::handpicked::N_HANDPICKED..crate::handpicked::N_HANDPICKED + N_LINT].to_vec()
        };
        let dirty_block = lint_block(vs.vectorize_payload(&payloads[0]));
        assert!(dirty_block.iter().any(|&x| x > 0.0), "{:?}", dirty_block);
        let clean_block = lint_block(vs.vectorize_payload(&payloads[1]));
        assert!(clean_block.iter().all(|&x| x == 0.0), "{:?}", clean_block);
    }

    #[test]
    fn serde_roundtrip() {
        let (vs, payloads) = spaces(&["var x = 1; f(x);"]);
        let json = serde_json::to_string(&vs).unwrap();
        let mut back: VectorSpace = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert_eq!(back.vectorize_payload(&payloads[0]), vs.vectorize_payload(&payloads[0]));
    }
}
