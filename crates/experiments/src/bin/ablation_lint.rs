//! Lint-feature ablation — Level-2 per-technique F1 with and without the
//! lint-summary densities appended to the feature vector.
//!
//! The lint rules fire on the exact structural signatures the Level-2
//! classifier has to recover statistically (dispatcher loops, string
//! pools, anti-debugging probes, …); this quantifies how much those nine
//! extra dimensions help each per-technique head.

use jsdetect::{train_pipeline, DetectorConfig, Technique};
use jsdetect_experiments::{classify_ok, exact_match_pct, level2_kept, or_exit, write_json, Args};
use jsdetect_features::FeatureConfig;
use jsdetect_ml::metrics;
use serde::Serialize;

#[derive(Serialize)]
struct LintRow {
    features: String,
    technique: String,
    precision: f64,
    recall: f64,
    f1: f64,
}

fn main() {
    let args = Args::parse();
    let n = args.scaled(120);
    let mut rows = Vec::new();

    for (name, lint) in [("without lint", false), ("with lint", true)] {
        // Normalization deltas stay off in both arms so the comparison
        // isolates the lint family.
        let features = FeatureConfig { handpicked: true, ngrams: true, lint, normalize: false };
        let cfg = DetectorConfig { features, ..DetectorConfig::default() }.with_seed(args.seed);
        let out = train_pipeline(n, args.seed, &cfg);

        let samples = &out.pools.test_level2;
        let srcs: Vec<&str> = samples.iter().map(|s| s.src.as_str()).collect();
        let (probs, truth) = level2_kept(&classify_ok(&out.detectors, &srcs), samples);

        println!("== {} (space dim {}) ==", name, out.detectors.level2.space().dim());
        let exact = exact_match_pct(&probs, &truth);
        for (i, t) in Technique::ALL.iter().enumerate() {
            let col_pred: Vec<bool> = probs.iter().map(|v| v[i] >= 0.5).collect();
            let col_truth: Vec<bool> = truth.iter().map(|v| v[i]).collect();
            let m = metrics::prf(&col_pred, &col_truth);
            println!(
                "  {:24} P {:5.2}  R {:5.2}  F1 {:5.2}",
                t.as_str(),
                m.precision,
                m.recall,
                m.f1
            );
            rows.push(LintRow {
                features: name.to_string(),
                technique: t.as_str().to_string(),
                precision: m.precision,
                recall: m.recall,
                f1: m.f1,
            });
        }
        println!("  {:24} exact-match {:5.2}%", "(all techniques)", exact);
    }
    or_exit(write_json(&args, "ablation_lint", &rows));
}
