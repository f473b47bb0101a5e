//! Learning substrate for the `jsdetect` suite.
//!
//! Stands in for scikit-learn in the reproduced pipeline (§III-C/D):
//! CART decision trees, bagged random forests (trained in parallel with
//! deterministic seeding), a Gaussian naive-Bayes baseline, multi-task
//! wrappers (binary relevance and classifier chains), and the paper's
//! evaluation metrics including the Top-k criterion.
//!
//! # Examples
//!
//! ```
//! use jsdetect_ml::{ForestParams, MultiLabel, Strategy, BaseParams};
//!
//! let x = vec![vec![0.0], vec![0.2], vec![0.8], vec![1.0]];
//! let labels = vec![vec![false], vec![false], vec![true], vec![true]];
//! let base = BaseParams::Forest(ForestParams { n_trees: 4, ..Default::default() });
//! let model = MultiLabel::fit(&x, &labels, Strategy::ClassifierChain, &base);
//! assert!(model.predict_proba(&[0.9])[0] > 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bayes;
mod dataset;
mod forest;
pub mod metrics;
mod multilabel;
pub mod reference;
mod tree;

pub use bayes::GaussianNb;
pub use dataset::{Dataset, DatasetError};
pub use forest::{ForestParams, RandomForest};
pub use multilabel::{BaseModel, BaseParams, MultiLabel, Strategy};
pub use tree::{DecisionTree, MaxFeatures, TreeParams};
