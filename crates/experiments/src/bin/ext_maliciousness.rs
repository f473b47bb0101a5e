//! Extension (paper §V-B, future work) — from technique detection to
//! maliciousness detection.
//!
//! The paper's headline finding is that *code transformation is no
//! indicator of maliciousness*, and its suggested extension is to use the
//! patterns of §IV (which techniques, at which frequencies) to separate
//! benign from malicious scripts. This experiment quantifies both halves:
//!
//! 1. the naive baseline "transformed ⇒ malicious" performs poorly on a
//!    mixed benign/malicious stream (most transformed files are benign
//!    minified code);
//! 2. a small random forest over the two detectors' outputs (3 level-1 +
//!    10 level-2 confidences) separates the classes far better — the
//!    technique *mixture* carries the signal the paper points at.

use jsdetect_corpus::{alexa_population, malware_population, npm_population, MalwareSource};
use jsdetect_experiments::{classify_ok, or_exit, train_cached, write_json, Args};
use jsdetect_ml::{metrics, Dataset, ForestParams, RandomForest};
use serde::Serialize;

#[derive(Serialize)]
struct MaliciousnessResult {
    naive_precision: f64,
    naive_recall: f64,
    naive_f1: f64,
    learned_precision: f64,
    learned_recall: f64,
    learned_f1: f64,
    learned_accuracy: f64,
    n_train: usize,
    n_test: usize,
}

/// 13-dimensional meta-feature vector: level-1 + level-2 confidences.
fn meta_features(detectors: &jsdetect::TrainedDetectors, srcs: &[&str]) -> Vec<Option<Vec<f32>>> {
    classify_ok(detectors, srcs)
        .into_iter()
        .map(|v| {
            let v = v?;
            let (a, b) = (v.level1?, v.level2?);
            let mut features = vec![a.regular, a.minified, a.obfuscated];
            features.extend(b);
            Some(features)
        })
        .collect()
}

fn collect(
    detectors: &jsdetect::TrainedDetectors,
    seed: u64,
    scale: f64,
) -> (Vec<Vec<f32>>, Vec<bool>) {
    let n = |base: usize| ((base as f64 * scale).round() as usize).max(4);
    let mut srcs_owned: Vec<String> = Vec::new();
    let mut labels = Vec::new();

    for s in alexa_population(64, n(25), 0, seed) {
        srcs_owned.push(s.src);
        labels.push(false);
    }
    for s in npm_population(64, n(30), 1000, seed ^ 1) {
        srcs_owned.push(s.src);
        labels.push(false);
    }
    for source in [MalwareSource::Dnc, MalwareSource::Hynek, MalwareSource::Bsi] {
        for m in [2usize, 9, 17] {
            for s in malware_population(source, m, n(30), seed ^ 2) {
                srcs_owned.push(s.src);
                labels.push(true);
            }
        }
    }
    let srcs: Vec<&str> = srcs_owned.iter().map(|s| s.as_str()).collect();
    let feats = meta_features(detectors, &srcs);
    let mut x = Vec::new();
    let mut y = Vec::new();
    for (f, l) in feats.into_iter().zip(labels) {
        if let Some(f) = f {
            x.push(f);
            y.push(l);
        }
    }
    (x, y)
}

fn main() {
    let args = Args::parse();
    let (detectors, _pools) = or_exit(train_cached(&args));

    eprintln!("[ext] building benign/malicious meta-feature sets...");
    let (x_train, y_train) = collect(&detectors, args.seed ^ 0xbad, args.scale);
    let (x_test, y_test) = collect(&detectors, args.seed ^ TEST_SALT, args.scale);

    // Naive baseline: "transformed ⇒ malicious" (level-1 transformed flag:
    // minified or obfuscated confidence ≥ 0.5 → indices 1 and 2).
    let naive_pred: Vec<bool> = x_test.iter().map(|f| f[1] >= 0.5 || f[2] >= 0.5).collect();
    let naive = metrics::prf(&naive_pred, &y_test);

    // Learned: forest over the 13 detector confidences.
    let train = Dataset::from_rows(&x_train).expect("meta-feature training matrix");
    let forest = RandomForest::fit(
        &train,
        &y_train,
        &ForestParams { n_trees: 32, seed: args.seed, ..Default::default() },
    );
    let learned_pred: Vec<bool> = x_test.iter().map(|f| forest.predict_proba(f) >= 0.5).collect();
    let learned = metrics::prf(&learned_pred, &y_test);
    let learned_acc = metrics::accuracy(&learned_pred, &y_test);

    println!("Extension: maliciousness from transformation patterns (§V-B)");
    println!("{:-<68}", "");
    println!("train n={}, test n={}", x_train.len(), x_test.len());
    println!("\nnaive rule (transformed ⇒ malicious):");
    println!(
        "  precision {:.2}%  recall {:.2}%  F1 {:.2}%",
        100.0 * naive.precision,
        100.0 * naive.recall,
        100.0 * naive.f1
    );
    println!("\nlearned (forest over 13 detector confidences):");
    println!(
        "  precision {:.2}%  recall {:.2}%  F1 {:.2}%  accuracy {:.2}%",
        100.0 * learned.precision,
        100.0 * learned.recall,
        100.0 * learned.f1,
        100.0 * learned_acc
    );
    println!(
        "\nreading: transformation alone is a poor maliciousness signal\n\
         (the paper's central claim), while the *pattern* of techniques —\n\
         identifier/string obfuscation vs plain minification — separates\n\
         the classes well."
    );

    or_exit(write_json(
        &args,
        "ext_maliciousness",
        &MaliciousnessResult {
            naive_precision: 100.0 * naive.precision,
            naive_recall: 100.0 * naive.recall,
            naive_f1: 100.0 * naive.f1,
            learned_precision: 100.0 * learned.precision,
            learned_recall: 100.0 * learned.recall,
            learned_f1: 100.0 * learned.f1,
            learned_accuracy: 100.0 * learned_acc,
            n_train: x_train.len(),
            n_test: x_test.len(),
        },
    ));
}

/// Seed salt decorrelating the held-out test stream from training.
const TEST_SALT: u64 = 0x600d;
