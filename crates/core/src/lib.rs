//! `jsdetect`: static detection of JavaScript obfuscation and minification
//! techniques.
//!
//! A from-scratch Rust reproduction of *"Statically Detecting JavaScript
//! Obfuscation and Minification Techniques in the Wild"* (DSN 2021). The
//! pipeline abstracts scripts by their AST enhanced with control and data
//! flows, extracts 4-gram and hand-picked features, and runs two
//! multi-task random-forest detectors:
//!
//! - **Level 1**: regular vs. minified vs. obfuscated;
//! - **Level 2**: which of the ten transformation techniques were used,
//!   reported through the thresholded Top-k rule.
//!
//! Both levels are one [`Detector`] type, trained twice on the same
//! feature payloads with different label vectors.
//!
//! # Analysis
//!
//! One pipeline takes every script from source to `{outcome, payload}`
//! ([`jsdetect_features::analyze`]), and five entry points drive it:
//! [`analyze_one`] and [`analyze_many`] analyze under the
//! [`AnalysisConfig`] limits with an optional verdict cache, and
//! [`classify_one_cached`], [`classify_many_cached`] and
//! [`classify_analyzed`] add both detector levels. Inference has one path:
//! [`classify_many_cached`] runs [`classify_one_cached`] once per script on
//! the work-stealing pool, the longest script first, and each detector walks its forests for that
//! one script's feature row. Training and the experiment binaries run the
//! same batch driver and panic fence under [`Limits::trusted`] and keep
//! `Ok` outcomes only, as the paper skips files that do not parse.
//!
//! # Quickstart
//!
//! ```no_run
//! use jsdetect::{
//!     classify_one_cached, train_pipeline, AnalysisConfig, DetectorConfig, DEFAULT_THRESHOLD,
//! };
//!
//! // Train at a laptop scale (the paper uses 21,000 source scripts).
//! let out = train_pipeline(200, 42, &DetectorConfig::default());
//! let config = AnalysisConfig::default();
//! let verdict =
//!     classify_one_cached("var x=1;f(x);", &config, None, &out.detectors, 4, DEFAULT_THRESHOLD);
//! println!("transformed: {}, techniques: {:?}", verdict.is_transformed(), verdict.techniques);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod classify;
mod config;
mod detector;
mod pipeline;

/// Serializes the unit tests that switch process-wide telemetry on and off.
#[cfg(test)]
static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

pub use analysis::{analyze_many, analyze_one, CachedScript};
pub use classify::{
    classify_analyzed, classify_many_cached, classify_one_cached, ScriptVerdict, DEFAULT_THRESHOLD,
};
pub use config::{AnalysisConfig, DetectorConfig};
pub use detector::{Detector, Level1Prediction, Level1Truth};
pub use pipeline::{
    held_out_pools, train_pipeline, HeldOutPools, PipelineOutput, TrainedDetectors,
};

// Re-export the vocabulary types users need alongside the detectors.
pub use jsdetect_guard::{AnalysisError, Limits, OutcomeKind, QuarantineReport};
pub use jsdetect_ml::metrics;
pub use jsdetect_ml::Strategy;
pub use jsdetect_transform::Technique;
