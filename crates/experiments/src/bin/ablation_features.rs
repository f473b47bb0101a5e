//! Feature-family ablation (DESIGN.md §5): the deployed space with all
//! four families, the deployed space without the lint-rule densities, and
//! the paper's two families alone and together. The paper uses 4-grams
//! and hand-picked features; this quantifies each family's contribution,
//! and the lint densities' per Level-2 technique.

use jsdetect::{train_pipeline, DetectorConfig, Technique};
use jsdetect_corpus::LabeledSample;
use jsdetect_experiments::{
    classify_ok, exact_match_pct, level2_kept, or_exit, write_json, Args, Level1Score,
};
use jsdetect_features::FeatureConfig;
use jsdetect_ml::metrics;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct FeatureRow {
    features: String,
    level1_overall_acc: f64,
    level2_exact_acc: f64,
    /// Level-2 F1 per technique.
    level2_f1: BTreeMap<String, f64>,
    dims_note: String,
}

fn main() {
    let args = Args::parse();
    let n = args.scaled(120);
    let mut rows = Vec::new();

    let paper = FeatureConfig { handpicked: true, ngrams: true, lint: false, normalize: false };
    for (name, features) in [
        ("deployed", FeatureConfig::default()),
        ("deployed minus lint", FeatureConfig { lint: false, ..FeatureConfig::default() }),
        ("both", paper),
        ("handpicked only", FeatureConfig { ngrams: false, ..paper }),
        ("4-grams only", FeatureConfig { handpicked: false, ..paper }),
    ] {
        let cfg = DetectorConfig { features, ..DetectorConfig::default() }.with_seed(args.seed);
        let out = train_pipeline(n, args.seed, &cfg);

        // Both levels from one classification of each held-out pool;
        // test_level2 is test_obfuscated followed by test_minified.
        let pools = &out.pools;
        let classify = |samples: &[LabeledSample]| {
            classify_ok(&out.detectors, &samples.iter().map(|s| s.src.as_str()).collect::<Vec<_>>())
        };
        let regular = classify(&pools.test_regular);
        let level2 = classify(&pools.test_level2);
        let (obfuscated, minified) = level2.split_at(pools.test_obfuscated.len());
        let l1 = Level1Score::of(&regular, minified, obfuscated).overall_pct();
        let (probs, truth) = level2_kept(&level2, &pools.test_level2);
        let l2 = exact_match_pct(&probs, &truth);
        let level2_f1: BTreeMap<String, f64> = Technique::ALL
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let col_pred: Vec<bool> = probs.iter().map(|v| v[i] >= 0.5).collect();
                let col_truth: Vec<bool> = truth.iter().map(|v| v[i]).collect();
                (t.as_str().to_string(), metrics::prf(&col_pred, &col_truth).f1)
            })
            .collect();

        println!("{:20} level1 {:6.2}%  level2-exact {:6.2}%", name, l1, l2);
        for (technique, f1) in &level2_f1 {
            println!("  {:24} F1 {:5.2}", technique, f1);
        }
        rows.push(FeatureRow {
            features: name.to_string(),
            level1_overall_acc: l1,
            level2_exact_acc: l2,
            level2_f1,
            dims_note: format!("l1 space dim = {}", out.detectors.level1.space().dim()),
        });
    }
    or_exit(write_json(&args, "ablation_features", &rows));
}
