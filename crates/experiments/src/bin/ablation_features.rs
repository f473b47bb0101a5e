//! Feature-family ablation — 4-grams only vs. hand-picked only vs. both
//! (DESIGN.md §5). The paper uses both families; this quantifies each
//! family's contribution.

use jsdetect::{train_pipeline, DetectorConfig};
use jsdetect_corpus::LabeledSample;
use jsdetect_experiments::{
    classify_ok, exact_match_pct, level2_kept, or_exit, write_json, Args, Level1Score,
};
use jsdetect_features::FeatureConfig;
use serde::Serialize;

#[derive(Serialize)]
struct FeatureRow {
    features: String,
    level1_overall_acc: f64,
    level2_exact_acc: f64,
    dims_note: String,
}

fn main() {
    let args = Args::parse();
    let n = args.scaled(120);
    let mut rows = Vec::new();

    for (name, features) in [
        ("both", FeatureConfig { handpicked: true, ngrams: true, lint: false, normalize: false }),
        (
            "handpicked only",
            FeatureConfig { handpicked: true, ngrams: false, lint: false, normalize: false },
        ),
        (
            "4-grams only",
            FeatureConfig { handpicked: false, ngrams: true, lint: false, normalize: false },
        ),
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

        println!("{:18} level1 {:6.2}%  level2-exact {:6.2}%", name, l1, l2);
        rows.push(FeatureRow {
            features: name.to_string(),
            level1_overall_acc: l1,
            level2_exact_acc: l2,
            dims_note: format!("l1 space dim = {}", out.detectors.level1.space().dim()),
        });
    }
    or_exit(write_json(&args, "ablation_features", &rows));
}
