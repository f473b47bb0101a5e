//! §III-D3 ablation — classifier chains vs. the independence assumption,
//! and random forest vs. naive Bayes vs. a single tree.
//!
//! The paper's validation study selected the random forest with classifier
//! chains; this experiment reproduces that comparison on the validation
//! split.

use jsdetect::{train_pipeline, DetectorConfig, Strategy};
use jsdetect_corpus::LabeledSample;
use jsdetect_experiments::{
    classify_ok, exact_match_pct, level2_kept, or_exit, write_json, Args, Level1Score,
};
use jsdetect_ml::{BaseParams, ForestParams, TreeParams};
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    model: String,
    strategy: String,
    level1_overall_acc: f64,
    level2_exact_acc: f64,
    train_seconds: f64,
}

fn main() {
    let args = Args::parse();
    let n = args.scaled(120);
    let mut rows = Vec::new();

    let configs: Vec<(String, String, DetectorConfig)> = vec![
        (
            "random forest".into(),
            "chain".into(),
            DetectorConfig {
                strategy: Strategy::ClassifierChain,
                base: BaseParams::Forest(ForestParams::default()),
                ..DetectorConfig::default()
            },
        ),
        (
            "random forest".into(),
            "independent".into(),
            DetectorConfig {
                strategy: Strategy::BinaryRelevance,
                base: BaseParams::Forest(ForestParams::default()),
                ..DetectorConfig::default()
            },
        ),
        (
            "naive bayes".into(),
            "chain".into(),
            DetectorConfig {
                strategy: Strategy::ClassifierChain,
                base: BaseParams::Bayes,
                ..DetectorConfig::default()
            },
        ),
        (
            "naive bayes".into(),
            "independent".into(),
            DetectorConfig {
                strategy: Strategy::BinaryRelevance,
                base: BaseParams::Bayes,
                ..DetectorConfig::default()
            },
        ),
        (
            "single tree".into(),
            "chain".into(),
            DetectorConfig {
                strategy: Strategy::ClassifierChain,
                base: BaseParams::Tree(TreeParams::default(), 7),
                ..DetectorConfig::default()
            },
        ),
    ];

    for (model, strategy, cfg) in configs {
        let t0 = std::time::Instant::now();
        let out = train_pipeline(n, args.seed, &cfg.with_seed(args.seed));
        let secs = t0.elapsed().as_secs_f64();

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

        println!(
            "{:16} {:12} level1 {:6.2}%  level2-exact {:6.2}%  ({:.1}s)",
            model, strategy, l1, l2, secs
        );
        rows.push(AblationRow {
            model,
            strategy,
            level1_overall_acc: l1,
            level2_exact_acc: l2,
            train_seconds: secs,
        });
    }

    println!("\npaper: the random forest with classifier chains performed best.");
    or_exit(write_json(&args, "ablation_chain", &rows));
}
