//! The space-independent feature payload — the unit the analysis cache
//! stores.
//!
//! A fitted [`VectorSpace`](crate::VectorSpace) is corpus-dependent (its
//! 4-gram vocabulary comes from training), so caching final vectors would
//! tie every cache record to one trained model. Instead the cache stores a
//! [`FeaturePayload`]: the hand-picked and lint feature values exactly as
//! computed (f32), plus the *raw* 4-gram counts, moved out of the
//! analysis's one tree walk ([`TreeStats`](crate::TreeStats)). Training
//! fits its vector spaces from payloads too, and
//! [`VectorSpace::vectorize_payload`](crate::VectorSpace::vectorize_payload)
//! is the only vectorizer, so a replayed payload projects bit-identically
//! to a fresh one in any fitted space.

use crate::analysis::ScriptAnalysis;
use crate::handpicked::handpicked_features;
use crate::ngrams::Gram;

/// Everything needed to re-vectorize one analyzed script without its AST.
#[derive(Debug, Clone, PartialEq)]
pub struct FeaturePayload {
    /// Hand-picked feature values ([`crate::N_HANDPICKED`] of them).
    pub handpicked: Vec<f32>,
    /// Lint-summary feature values ([`jsdetect_lint::LintSummary::N_FEATURES`]).
    pub lint: Vec<f32>,
    /// Normalization-delta feature values ([`crate::deltas::N_NORMALIZE`]).
    pub normalize: Vec<f32>,
    /// Raw 4-gram counts of the pre-order kind stream, sorted by gram for
    /// a deterministic serialized form.
    pub ngrams: Vec<(Gram, u32)>,
    /// Whether the analysis this was extracted from was the lexer-only
    /// degraded fallback.
    pub degraded: bool,
}

impl FeaturePayload {
    /// Distills one analysis into its cacheable payload, consuming it:
    /// the graph is dropped here.
    pub(crate) fn extract(a: ScriptAnalysis<'_>) -> FeaturePayload {
        FeaturePayload {
            handpicked: handpicked_features(&a),
            lint: a.lint.features(),
            normalize: a.normalize,
            ngrams: a.tree.grams,
            degraded: a.degraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::space::{FeatureConfig, VectorSpace};
    use crate::{analyze, LintSummary, N_HANDPICKED};
    use jsdetect_guard::Limits;

    fn payload(src: &str) -> super::FeaturePayload {
        analyze(src, &Limits::trusted()).into_ok().unwrap()
    }

    #[test]
    fn extract_carries_all_blocks() {
        let p = payload("var x = 1; if (x) { f(x); }");
        assert_eq!(p.handpicked.len(), N_HANDPICKED);
        assert_eq!(p.lint.len(), LintSummary::N_FEATURES);
        assert_eq!(p.normalize.len(), crate::deltas::N_NORMALIZE);
        assert!(!p.ngrams.is_empty());
        assert!(!p.degraded);
    }

    #[test]
    fn ngram_pairs_are_sorted_and_deduplicated() {
        let p = payload("var x = 1; var y = 2; var z = 3;");
        for w in p.ngrams.windows(2) {
            assert!(w[0].0 < w[1].0, "grams must be strictly increasing");
        }
    }

    #[test]
    fn every_config_projects_its_blocks_in_order() {
        let payloads: Vec<_> =
            ["var x = 1; f(x);", "function g(a) { return a ? a + 1 : 0; }"].map(payload).into();
        let only = |handpicked, ngrams, lint, normalize| FeatureConfig {
            handpicked,
            ngrams,
            lint,
            normalize,
        };
        let full = VectorSpace::fit(payloads.iter(), 64, FeatureConfig::default());
        for p in &payloads {
            let v = full.vectorize_payload(p);
            let mut blocks = Vec::new();
            for config in [
                only(true, false, false, false),
                only(false, false, true, false),
                only(false, false, false, true),
                only(false, true, false, false),
            ] {
                blocks.extend(VectorSpace::fit(payloads.iter(), 64, config).vectorize_payload(p));
            }
            assert_eq!(v, blocks);
        }
    }
}
