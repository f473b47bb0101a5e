//! Bagged random forests over CART trees.
//!
//! Trees are grown over a columnar [`Dataset`] with bootstrap resampling
//! done purely on `u32` row indices (no feature row is ever cloned), then
//! compiled into one merged flattened struct-of-arrays node block. Inference
//! walks that block once per tree for one row-major sample.

use crate::dataset::{Dataset, DatasetError};
use crate::tree::{DecisionTree, FlatNodes, TreeParams, ValueRanks};
use jsdetect_obs::names;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Random-forest parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Bootstrap-sample the training set per tree.
    pub bootstrap: bool,
    /// Per-tree growing parameters.
    pub tree: TreeParams,
    /// Base RNG seed; tree `i` derives its stream via [`ForestParams::tree_seed`].
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams { n_trees: 32, bootstrap: true, tree: TreeParams::default(), seed: 0 }
    }
}

impl ForestParams {
    /// Deterministic per-tree RNG seed: a SplitMix64-style finalizer over
    /// `(seed, i)`.
    ///
    /// The previous scheme, `(seed + i) * γ` with γ = `0x9E3779B97F4A7C15`,
    /// produced correlated streams: γ is exactly the SplitMix64 gamma, so
    /// consecutive tree indices seeded generator states one step apart.
    /// Hash-mixing the index first decorrelates the streams.
    pub fn tree_seed(&self, i: usize) -> u64 {
        let mut z = self.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// A fitted random forest (binary classifier with probability output).
///
/// All trees share one flattened node block; `roots[t]` is tree `t`'s root
/// node id. The flattened arrays are what gets serialized; loaders should
/// call [`RandomForest::rebuild_index`] to bounds-check untrusted input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    roots: Vec<u32>,
    pub(crate) nodes: FlatNodes,
}

impl RandomForest {
    /// Fits the forest on row-major samples (convenience wrapper that
    /// builds a columnar [`Dataset`] once).
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty, ragged, or `x.len() != y.len()`.
    pub fn fit(x: &[Vec<f32>], y: &[bool], params: &ForestParams) -> Self {
        let data = match Dataset::from_rows(x) {
            Ok(d) => d,
            Err(DatasetError::Empty) => panic!("cannot fit a forest on an empty dataset"),
            Err(e) => panic!("invalid training matrix: {}", e),
        };
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        Self::fit_dataset(&data, y, params)
    }

    /// Fits the forest on a columnar dataset using all available cores.
    pub fn fit_dataset(data: &Dataset, y: &[bool], params: &ForestParams) -> Self {
        let n_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Self::fit_dataset_threads(data, y, params, n_threads)
    }

    /// Fits the forest with an explicit worker count. Trees are trained in
    /// parallel with deterministic per-tree seeds, so the fitted model is
    /// bit-identical for a fixed seed regardless of `n_threads`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != data.n_rows()`.
    pub fn fit_dataset_threads(
        data: &Dataset,
        y: &[bool],
        params: &ForestParams,
        n_threads: usize,
    ) -> Self {
        assert_eq!(y.len(), data.n_rows(), "feature/label length mismatch");
        let _t = jsdetect_obs::span(names::SPAN_FOREST_FIT);
        // Per-column distinct-value rank tables do not depend on the
        // bootstrap index sets: build them once and share them read-only
        // across all trees.
        let ranks = &ValueRanks::build(data);
        let mut trees: Vec<Option<DecisionTree>> = vec![None; params.n_trees];
        let chunk = params.n_trees.div_ceil(n_threads.max(1)).max(1);
        crossbeam::thread::scope(|scope| {
            for (t, slot_chunk) in trees.chunks_mut(chunk).enumerate() {
                let base = t * chunk;
                scope.spawn(move |_| {
                    let _obs = jsdetect_obs::ScopedCollector::new();
                    let _s = jsdetect_obs::span(names::SPAN_FIT_TREE_BATCH);
                    for (off, slot) in slot_chunk.iter_mut().enumerate() {
                        let i = base + off;
                        let mut rng = StdRng::seed_from_u64(params.tree_seed(i));
                        let idx = sample_indices(data.n_rows(), params.bootstrap, &mut rng);
                        *slot = Some(DecisionTree::fit_dataset_with_ranks(
                            data,
                            &idx,
                            y,
                            &params.tree,
                            &mut rng,
                            ranks,
                        ));
                    }
                    jsdetect_obs::counter_add(names::CTR_TREES_FITTED, slot_chunk.len() as u64);
                });
            }
        })
        .expect("forest training threads panicked");

        // Compile per-tree node blocks into one merged arena, in tree
        // order (deterministic regardless of which thread grew what).
        let mut roots = Vec::with_capacity(params.n_trees);
        let mut nodes = FlatNodes::new();
        for tree in trees.into_iter().map(Option::unwrap) {
            roots.push(nodes.append(tree.nodes()));
        }
        RandomForest { roots, nodes }
    }

    /// Mean positive-class probability across trees, summed in tree order.
    /// Records one `trees_traversed` count per tree walked.
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        jsdetect_obs::counter_add(names::CTR_TREES_TRAVERSED, self.roots.len() as u64);
        let sum: f32 = self.roots.iter().map(|&r| self.nodes.predict_row(r, row)).sum();
        sum / self.roots.len() as f32
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, row: &[f32]) -> bool {
        self.predict_proba(row) >= 0.5
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total node count across all trees.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Validates the flattened arrays after deserialization (array lengths
    /// agree, child/root ids in bounds, every walk moves forward). Call
    /// after loading a serialized model; corrupt input panics here instead
    /// of misindexing or looping later. Feature ids are only bounded by the
    /// node layout here; [`crate::MultiLabel::rebuild_index`] also checks
    /// them against each label's input width.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn rebuild_index(&mut self) {
        if let Err(msg) = self.check_invariants(usize::MAX) {
            panic!("corrupt serialized forest: {}", msg);
        }
    }

    /// Validates a deserialized forest whose inputs are `width` wide.
    pub(crate) fn check_invariants(&self, width: usize) -> Result<(), String> {
        self.nodes.check_invariants(width)?;
        match self.roots.iter().find(|&&r| r as usize >= self.nodes.len()) {
            Some(r) => Err(format!("root {} out of range", r)),
            None => Ok(()),
        }
    }

    /// Split-frequency feature importances, normalized to sum to 1 (or all
    /// zeros if no split exists). A simple, deterministic proxy for Gini
    /// importance.
    pub fn feature_importances(&self, n_features: usize) -> Vec<f64> {
        let mut counts = vec![0u32; n_features];
        self.nodes.accumulate_split_counts(&mut counts);
        let total: u32 = counts.iter().sum();
        if total == 0 {
            return vec![0.0; n_features];
        }
        counts.into_iter().map(|c| c as f64 / total as f64).collect()
    }
}

/// Bootstrap resampling as index resampling: a multiset of `n` row ids
/// (or the identity permutation when bagging is off). Draws exactly `n`
/// `gen_range` values, matching the legacy row-cloning sampler's RNG
/// consumption.
fn sample_indices(n: usize, bootstrap: bool, rng: &mut StdRng) -> Vec<u32> {
    if bootstrap {
        (0..n).map(|_| rng.gen_range(0..n) as u32).collect()
    } else {
        (0..n as u32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moons(n: usize) -> (Vec<Vec<f32>>, Vec<bool>) {
        // Two offset half-rings, deterministic.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let t = (i as f32 / n as f32) * std::f32::consts::PI;
            if i % 2 == 0 {
                x.push(vec![t.cos(), t.sin()]);
                y.push(false);
            } else {
                x.push(vec![1.0 - t.cos(), 0.5 - t.sin()]);
                y.push(true);
            }
        }
        (x, y)
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let (x, y) = moons(200);
        let forest = RandomForest::fit(&x, &y, &ForestParams { n_trees: 16, ..Default::default() });
        let correct = x.iter().zip(&y).filter(|(xi, yi)| forest.predict(xi) == **yi).count();
        assert!(correct as f64 / x.len() as f64 > 0.95, "{}/{}", correct, x.len());
    }

    #[test]
    fn proba_in_unit_interval() {
        let (x, y) = moons(60);
        let forest = RandomForest::fit(&x, &y, &ForestParams { n_trees: 8, ..Default::default() });
        for xi in &x {
            let p = forest.predict_proba(xi);
            assert!((0.0..=1.0).contains(&p), "p={}", p);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (x, y) = moons(80);
        let params = ForestParams { n_trees: 12, seed: 42, ..Default::default() };
        let a = RandomForest::fit(&x, &y, &params);
        let b = RandomForest::fit(&x, &y, &params);
        for xi in x.iter().take(10) {
            assert_eq!(a.predict_proba(xi), b.predict_proba(xi));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = moons(80);
        let a =
            RandomForest::fit(&x, &y, &ForestParams { n_trees: 4, seed: 1, ..Default::default() });
        let b =
            RandomForest::fit(&x, &y, &ForestParams { n_trees: 4, seed: 2, ..Default::default() });
        let differs = x.iter().any(|xi| a.predict_proba(xi) != b.predict_proba(xi));
        assert!(differs);
    }

    #[test]
    fn n_trees_respected() {
        let (x, y) = moons(40);
        let forest = RandomForest::fit(&x, &y, &ForestParams { n_trees: 7, ..Default::default() });
        assert_eq!(forest.n_trees(), 7);
    }

    #[test]
    fn feature_importances_identify_informative_features() {
        // Feature 0 is informative, feature 1 is pure noise.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..120 {
            let v = (i % 12) as f32;
            x.push(vec![v, ((i * 7) % 5) as f32]);
            y.push(v > 6.0);
        }
        let forest = RandomForest::fit(&x, &y, &ForestParams { n_trees: 12, ..Default::default() });
        let imp = forest.feature_importances(2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > imp[1], "informative {} vs noise {}", imp[0], imp[1]);
    }

    #[test]
    fn serde_roundtrip() {
        let (x, y) = moons(40);
        let forest = RandomForest::fit(&x, &y, &ForestParams { n_trees: 4, ..Default::default() });
        let json = serde_json::to_string(&forest).unwrap();
        let mut back: RandomForest = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert_eq!(back.predict_proba(&x[0]), forest.predict_proba(&x[0]));
    }

    #[test]
    fn tree_seeds_are_decorrelated() {
        let p = ForestParams::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            assert!(seen.insert(p.tree_seed(i)), "duplicate seed for tree {}", i);
        }
        // Consecutive seeds should differ in roughly half their bits, not
        // by a single generator step.
        let xor = p.tree_seed(0) ^ p.tree_seed(1);
        assert!(xor.count_ones() > 10, "seeds too similar: {:064b}", xor);
    }

    #[test]
    fn thread_count_does_not_change_fit() {
        let (x, y) = moons(80);
        let data = Dataset::from_rows(&x).unwrap();
        let params = ForestParams { n_trees: 9, seed: 5, ..Default::default() };
        let a = RandomForest::fit_dataset_threads(&data, &y, &params, 1);
        let b = RandomForest::fit_dataset_threads(&data, &y, &params, 2);
        let c = RandomForest::fit_dataset_threads(&data, &y, &params, 8);
        for xi in &x {
            let p = a.predict_proba(xi);
            assert_eq!(p, b.predict_proba(xi));
            assert_eq!(p, c.predict_proba(xi));
        }
    }
}
