//! Feature extraction for the `jsdetect` detectors (paper §III-B).
//!
//! [`analyze`] abstracts a script by its AST enhanced with control and
//! data flows, under per-script resource [`Limits`],
//! and distils that analysis into a [`FeaturePayload`]: the hand-picked
//! features capturing the syntactic traces of the ten transformation
//! techniques, lint-rule densities, normalization deltas, and the raw AST
//! 4-gram counts. A [`VectorSpace`] fitted on training payloads projects
//! every payload onto consistent dimensions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
pub mod deltas;
mod handpicked;
mod ngrams;
mod payload;
mod space;
mod tree;

pub use analysis::{analyze, analyze_lexer_only, Analyzed};
pub use deltas::{
    delta_feature_names, measure_deltas, neutral_deltas, normalize_deltas, N_NORMALIZE,
};
pub use handpicked::{FEATURE_NAMES, N_HANDPICKED};
pub use jsdetect_guard::{AnalysisError, Limits, OutcomeKind};
pub use jsdetect_lint::LintSummary;
pub use ngrams::{Gram, NgramVocab};
pub use payload::FeaturePayload;
pub use space::{FeatureConfig, VectorSpace, FEATURE_SPACE_VERSION};
pub use tree::TreeStats;
