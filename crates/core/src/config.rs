//! Detector configuration.

use jsdetect_features::FeatureConfig;
use jsdetect_guard::Limits;
use jsdetect_ml::{BaseParams, ForestParams, Strategy};
use serde::{Deserialize, Serialize};

/// Configuration shared by the level-1 and level-2 detectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Multi-label strategy; the paper's validation picked classifier
    /// chains (§III-D3).
    pub strategy: Strategy,
    /// Base classifier; the paper's validation picked random forests.
    pub base: BaseParams,
    /// Number of 4-gram vocabulary dimensions.
    pub max_ngrams: usize,
    /// Which feature families to use.
    pub features: FeatureConfig,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            strategy: Strategy::ClassifierChain,
            base: BaseParams::Forest(ForestParams { n_trees: 32, ..Default::default() }),
            max_ngrams: 250,
            features: FeatureConfig::default(),
        }
    }
}

/// Configuration for hardened analysis ([`crate::analyze_many`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Per-script resource budgets.
    pub limits: Limits,
}

impl Default for AnalysisConfig {
    /// Defaults to scanning under [`Limits::wild`].
    fn default() -> Self {
        AnalysisConfig { limits: Limits::wild() }
    }
}

impl AnalysisConfig {
    /// Preset for wild-corpus scanning (the default).
    pub fn wild() -> Self {
        AnalysisConfig::default()
    }

    /// Preset for trusted inputs: only the stack-overflow depth guard, the
    /// limits training and the experiment binaries analyze under.
    pub fn trusted() -> Self {
        AnalysisConfig { limits: Limits::trusted() }
    }
}

impl DetectorConfig {
    /// A configuration with fewer trees, for tests and quick runs.
    pub fn fast() -> Self {
        DetectorConfig {
            base: BaseParams::Forest(ForestParams { n_trees: 12, ..Default::default() }),
            max_ngrams: 120,
            ..Default::default()
        }
    }

    /// Sets the base learner's training seed (builder-style). Naive
    /// Bayes draws nothing at random, so it has no seed to set.
    pub fn with_seed(mut self, seed: u64) -> Self {
        match &mut self.base {
            BaseParams::Forest(f) => f.seed = seed,
            BaseParams::Tree(_, s) => *s = seed,
            BaseParams::Bayes => {}
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_ml::TreeParams;

    #[test]
    fn default_uses_chain_and_forest() {
        let c = DetectorConfig::default();
        assert_eq!(c.strategy, Strategy::ClassifierChain);
        assert!(matches!(c.base, BaseParams::Forest(_)));
    }

    #[test]
    fn with_seed_propagates_to_forest() {
        let c = DetectorConfig::default().with_seed(9);
        match c.base {
            BaseParams::Forest(f) => assert_eq!(f.seed, 9),
            _ => panic!("expected forest"),
        }
    }

    #[test]
    fn with_seed_propagates_to_single_tree() {
        let c = DetectorConfig {
            base: BaseParams::Tree(TreeParams::default(), 7),
            ..DetectorConfig::default()
        }
        .with_seed(9);
        match c.base {
            BaseParams::Tree(_, seed) => assert_eq!(seed, 9),
            _ => panic!("expected single tree"),
        }
    }
}
