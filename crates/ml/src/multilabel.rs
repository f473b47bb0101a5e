//! Multi-task (multi-label) classification: binary relevance and
//! classifier chains (paper §II-C / §III-D3).
//!
//! A multi-task system with `C` classes runs `C` binary classifiers.
//! Under the *independence assumption* (binary relevance) they are fitted
//! and evaluated separately; in a *classifier chain* the classifier at
//! position `p` additionally receives the labels of positions `0..p` as
//! features (ground truth while training, thresholded predictions at
//! inference) [38], [41], [43].
//!
//! Fitting runs over the columnar [`Dataset`]; chain augmentation there
//! is an O(rows) [`Dataset::push_column`] instead of a push onto every row
//! vector. Inference classifies one row at a time: each chained prediction
//! is appended to that row before the next label's model sees it.

use crate::bayes::GaussianNb;
use crate::dataset::{Dataset, DatasetError};
use crate::forest::{ForestParams, RandomForest};
use crate::tree::{DecisionTree, TreeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which base classifier the multi-task system uses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum BaseParams {
    /// Random forest (the paper's selected model).
    Forest(ForestParams),
    /// Single CART tree.
    Tree(TreeParams, u64),
    /// Gaussian naive Bayes (NoFus-style baseline).
    Bayes,
}

/// A fitted base model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum BaseModel {
    /// Random forest.
    Forest(RandomForest),
    /// Single tree.
    Tree(DecisionTree),
    /// Gaussian naive Bayes.
    Bayes(GaussianNb),
}

impl BaseModel {
    fn fit(params: &BaseParams, data: &Dataset, y: &[bool], label_idx: usize) -> BaseModel {
        match params {
            BaseParams::Forest(p) => {
                let mut p = p.clone();
                // Decorrelate per-label forests.
                p.seed = p.seed.wrapping_add(label_idx as u64 * 7919);
                BaseModel::Forest(RandomForest::fit_dataset(data, y, &p))
            }
            BaseParams::Tree(p, seed) => {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(label_idx as u64 * 7919));
                let idx: Vec<u32> = (0..data.n_rows() as u32).collect();
                BaseModel::Tree(DecisionTree::fit_dataset(data, &idx, y, p, &mut rng))
            }
            BaseParams::Bayes => BaseModel::Bayes(GaussianNb::fit_dataset(data, y)),
        }
    }

    fn predict_proba(&self, row: &[f32]) -> f32 {
        match self {
            BaseModel::Forest(m) => m.predict_proba(row),
            BaseModel::Tree(m) => m.predict_proba(row),
            BaseModel::Bayes(m) => m.predict_proba(row),
        }
    }
}

/// Multi-label strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Independent per-label classifiers.
    BinaryRelevance,
    /// Chained classifiers (label `p` sees labels `0..p`).
    ClassifierChain,
}

/// A fitted multi-task classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiLabel {
    strategy: Strategy,
    models: Vec<BaseModel>,
    n_features: usize,
}

impl MultiLabel {
    /// Fits one binary classifier per label column from row-major samples
    /// (convenience wrapper that builds a columnar [`Dataset`] once).
    ///
    /// `labels[i]` is the label vector for row `i`; all rows must have the
    /// same number of labels.
    ///
    /// # Panics
    ///
    /// Panics on empty input, ragged feature rows, or ragged label rows.
    pub fn fit(
        x: &[Vec<f32>],
        labels: &[Vec<bool>],
        strategy: Strategy,
        base: &BaseParams,
    ) -> Self {
        let data = match Dataset::from_rows(x) {
            Ok(d) => d,
            Err(DatasetError::Empty) => panic!("cannot fit on an empty dataset"),
            Err(e) => panic!("invalid training matrix: {}", e),
        };
        Self::fit_dataset(&data, labels, strategy, base)
    }

    /// Fits one binary classifier per label column over a columnar dataset.
    ///
    /// # Panics
    ///
    /// Panics on row-count mismatch or ragged label rows.
    pub fn fit_dataset(
        data: &Dataset,
        labels: &[Vec<bool>],
        strategy: Strategy,
        base: &BaseParams,
    ) -> Self {
        assert_eq!(data.n_rows(), labels.len(), "feature/label length mismatch");
        let n_labels = labels[0].len();
        assert!(labels.iter().all(|l| l.len() == n_labels), "ragged label rows");
        let n_features = data.n_cols();

        let mut models = Vec::with_capacity(n_labels);
        match strategy {
            Strategy::BinaryRelevance => {
                for j in 0..n_labels {
                    let y: Vec<bool> = labels.iter().map(|l| l[j]).collect();
                    models.push(BaseModel::fit(base, data, &y, j));
                }
            }
            Strategy::ClassifierChain => {
                // Augment features with the ground-truth labels of all
                // previous positions: one pushed column per position.
                let mut augmented = data.clone();
                for j in 0..n_labels {
                    let y: Vec<bool> = labels.iter().map(|l| l[j]).collect();
                    models.push(BaseModel::fit(base, &augmented, &y, j));
                    if j + 1 < n_labels {
                        let col: Vec<f32> = y.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
                        augmented.push_column(&col);
                    }
                }
            }
        }
        MultiLabel { strategy, models, n_features }
    }

    /// Per-label positive probabilities for one row.
    pub fn predict_proba(&self, row: &[f32]) -> Vec<f32> {
        assert_eq!(row.len(), self.n_features, "feature width mismatch");
        match self.strategy {
            Strategy::BinaryRelevance => self.models.iter().map(|m| m.predict_proba(row)).collect(),
            Strategy::ClassifierChain => {
                let mut augmented = row.to_vec();
                let mut probs = Vec::with_capacity(self.models.len());
                for (j, m) in self.models.iter().enumerate() {
                    let p = m.predict_proba(&augmented);
                    probs.push(p);
                    if j + 1 < self.models.len() {
                        augmented.push(if p >= 0.5 { 1.0 } else { 0.0 });
                    }
                }
                probs
            }
        }
    }

    /// Hard label set at the 0.5 threshold.
    pub fn predict(&self, row: &[f32]) -> Vec<bool> {
        self.predict_proba(row).into_iter().map(|p| p >= 0.5).collect()
    }

    /// Number of labels.
    pub fn n_labels(&self) -> usize {
        self.models.len()
    }

    /// The strategy used.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Validates every tree and forest base model's flattened node arrays
    /// after deserialization: child ids in bounds and moving forward, and
    /// feature ids within the label's input width (see
    /// [`MultiLabel::feature_importances`]). A model file is outside input,
    /// so corrupt arrays must fail here rather than at prediction time.
    ///
    /// # Panics
    ///
    /// Panics if a serialized base model is corrupt.
    pub fn rebuild_index(&mut self) {
        for (label, m) in self.models.iter().enumerate() {
            let width = self.input_width(label);
            let checked = match m {
                BaseModel::Forest(f) => f.check_invariants(width),
                BaseModel::Tree(t) => t.check_invariants(width),
                BaseModel::Bayes(_) => Ok(()),
            };
            if let Err(msg) = checked {
                panic!("corrupt serialized model for label {}: {}", label, msg);
            }
        }
    }

    /// Feature importances of the classifier for `label` (forest base
    /// only; other bases return `None`). With classifier chains, features
    /// beyond the base width are the chained label predictions.
    pub fn feature_importances(&self, label: usize) -> Option<Vec<f64>> {
        match self.models.get(label)? {
            BaseModel::Forest(f) => Some(f.feature_importances(self.input_width(label))),
            _ => None,
        }
    }

    /// Input width of the classifier for `label`: the base features, plus
    /// the chained predictions of labels `0..label` under classifier chains.
    fn input_width(&self, label: usize) -> usize {
        self.n_features
            + match self.strategy {
                Strategy::BinaryRelevance => 0,
                Strategy::ClassifierChain => label,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three correlated labels over 2-D points:
    /// l0: x>0.5, l1: y>0.5, l2: l0 AND l1 (correlated with both).
    fn dataset(n: usize) -> (Vec<Vec<f32>>, Vec<Vec<bool>>) {
        let mut x = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let a = (i % 17) as f32 / 16.0;
            let b = (i % 13) as f32 / 12.0;
            x.push(vec![a, b]);
            labels.push(vec![a > 0.5, b > 0.5, a > 0.5 && b > 0.5]);
        }
        (x, labels)
    }

    fn forest_base() -> BaseParams {
        BaseParams::Forest(ForestParams { n_trees: 8, ..Default::default() })
    }

    #[test]
    fn binary_relevance_learns_labels() {
        let (x, labels) = dataset(300);
        let ml = MultiLabel::fit(&x, &labels, Strategy::BinaryRelevance, &forest_base());
        let mut correct = 0;
        for (xi, li) in x.iter().zip(&labels) {
            if ml.predict(xi) == *li {
                correct += 1;
            }
        }
        assert!(correct as f64 / x.len() as f64 > 0.9, "{}/{}", correct, x.len());
    }

    #[test]
    fn chain_learns_labels() {
        let (x, labels) = dataset(300);
        let ml = MultiLabel::fit(&x, &labels, Strategy::ClassifierChain, &forest_base());
        let mut correct = 0;
        for (xi, li) in x.iter().zip(&labels) {
            if ml.predict(xi) == *li {
                correct += 1;
            }
        }
        assert!(correct as f64 / x.len() as f64 > 0.9, "{}/{}", correct, x.len());
    }

    #[test]
    fn proba_len_matches_labels() {
        let (x, labels) = dataset(60);
        let ml = MultiLabel::fit(&x, &labels, Strategy::ClassifierChain, &forest_base());
        assert_eq!(ml.n_labels(), 3);
        assert_eq!(ml.predict_proba(&x[0]).len(), 3);
    }

    #[test]
    fn bayes_base_works() {
        let (x, labels) = dataset(200);
        let ml = MultiLabel::fit(&x, &labels, Strategy::BinaryRelevance, &BaseParams::Bayes);
        let p = ml.predict_proba(&[0.9, 0.9]);
        assert!(p[0] > 0.5 && p[1] > 0.5);
    }

    #[test]
    fn tree_base_works() {
        let (x, labels) = dataset(200);
        let ml = MultiLabel::fit(
            &x,
            &labels,
            Strategy::ClassifierChain,
            &BaseParams::Tree(TreeParams::default(), 3),
        );
        let p = ml.predict(&[0.9, 0.1]);
        assert_eq!(p, vec![true, false, false]);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn wrong_width_panics() {
        let (x, labels) = dataset(40);
        let ml = MultiLabel::fit(&x, &labels, Strategy::ClassifierChain, &forest_base());
        let _ = ml.predict_proba(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn deterministic() {
        let (x, labels) = dataset(100);
        let a = MultiLabel::fit(&x, &labels, Strategy::ClassifierChain, &forest_base());
        let b = MultiLabel::fit(&x, &labels, Strategy::ClassifierChain, &forest_base());
        assert_eq!(a.predict_proba(&x[7]), b.predict_proba(&x[7]));
    }

    /// Serializes `ml`, reloads it and validates it, as the CLI and the
    /// daemon do with a model file.
    fn reload(ml: &MultiLabel) -> MultiLabel {
        let mut back: MultiLabel =
            serde_json::from_str(&serde_json::to_string(ml).unwrap()).unwrap();
        back.rebuild_index();
        back
    }

    /// First split node of a flattened node block.
    fn first_split(nodes: &crate::tree::FlatNodes) -> usize {
        nodes.feature.iter().position(|&f| f != u16::MAX).expect("model has a split")
    }

    #[test]
    #[should_panic(expected = "corrupt serialized model for label 0: node")]
    fn right_child_pointing_back_is_rejected_at_load() {
        let (x, labels) = dataset(60);
        let mut ml = MultiLabel::fit(&x, &labels, Strategy::ClassifierChain, &forest_base());
        let BaseModel::Forest(f) = &mut ml.models[0] else { unreachable!() };
        let i = first_split(&f.nodes);
        // A self-loop: `predict_row` would spin on this node forever.
        f.nodes.children[i] = i as u32;
        reload(&ml);
    }

    #[test]
    #[should_panic(expected = "corrupt serialized model for label 1: node")]
    fn feature_beyond_the_chained_input_width_is_rejected_at_load() {
        let (x, labels) = dataset(60);
        let mut ml = MultiLabel::fit(&x, &labels, Strategy::ClassifierChain, &forest_base());
        // Label 1 of the chain sees the 2 base features plus label 0's
        // prediction: ids 0..3. Id 3 would index past the row at predict.
        let BaseModel::Forest(f) = &mut ml.models[1] else { unreachable!() };
        let i = first_split(&f.nodes);
        f.nodes.feature[i] = 3;
        reload(&ml);
    }

    #[test]
    #[should_panic(expected = "corrupt serialized model for label 2: node")]
    fn corrupt_single_tree_base_is_rejected_at_load() {
        let (x, labels) = dataset(60);
        let base = BaseParams::Tree(TreeParams::default(), 3);
        let mut ml = MultiLabel::fit(&x, &labels, Strategy::BinaryRelevance, &base);
        let BaseModel::Tree(t) = &mut ml.models[2] else { unreachable!() };
        let i = first_split(&t.nodes);
        t.nodes.children[i] = t.nodes.len() as u32;
        reload(&ml);
    }

    #[test]
    fn serde_roundtrip() {
        let (x, labels) = dataset(60);
        let bases = [forest_base(), BaseParams::Tree(TreeParams::default(), 3), BaseParams::Bayes];
        for base in &bases {
            for strategy in [Strategy::BinaryRelevance, Strategy::ClassifierChain] {
                let ml = MultiLabel::fit(&x, &labels, strategy, base);
                assert_eq!(reload(&ml).predict_proba(&x[3]), ml.predict_proba(&x[3]));
            }
        }
    }
}
