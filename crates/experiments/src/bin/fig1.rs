//! Figure 1 + §III-E2 (Test Set 2) — mixed-technique samples.
//!
//! (a) Top-k accuracy and average wrong/missing labels as k grows;
//! (b) the same with the 10% probability threshold;
//! (c) with a 50% threshold (few techniques remain detectable);
//! plus the level-1 transformed rate on mixed samples (paper: 99.99%).

use jsdetect_corpus::mixed_set;
use jsdetect_experiments::{
    classify_ok, level2_kept, or_exit, pct, train_cached, transformed_hits, write_json, Args,
};
use jsdetect_ml::metrics;
use serde::Serialize;

#[derive(Serialize)]
struct FigPoint {
    k: usize,
    accuracy: f64,
    subset_accuracy: f64,
    avg_wrong: f64,
    avg_missing: f64,
}

#[derive(Serialize)]
struct Fig1Result {
    level1_transformed_acc: f64,
    unthresholded: Vec<FigPoint>,
    threshold_10: Vec<FigPoint>,
    threshold_50: Vec<FigPoint>,
    max_detectable_at_50: usize,
    n: usize,
    labels_histogram: Vec<usize>,
}

fn main() {
    let args = Args::parse();
    let (detectors, _pools) = or_exit(train_cached(&args));

    let n_mixed = args.scaled(320);
    eprintln!("[fig1] generating {} mixed-technique samples...", n_mixed);
    let mixed = mixed_set(n_mixed, args.seed ^ MIXED_SALT);
    let srcs: Vec<&str> = mixed.iter().map(|s| s.src.as_str()).collect();

    let verdicts = classify_ok(&detectors, &srcs);
    // Level 1 on mixed samples: everything is transformed.
    let (l1_ok, l1_n) = transformed_hits(&verdicts);
    let l1_acc = pct(l1_ok, l1_n);

    // Level 2 probabilities, read without the level-1 gate.
    let (kept_probs, kept_truth) = level2_kept(&verdicts, &mixed);
    let mut labels_histogram = vec![0usize; 11];
    for (_, s) in verdicts.iter().zip(&mixed).filter(|(v, _)| v.is_some()) {
        labels_histogram[s.techniques.len().min(10)] += 1;
    }

    let sweep = |threshold: f32| -> Vec<FigPoint> {
        (1..=10)
            .map(|k| {
                let s = metrics::top_k_stats(&kept_probs, &kept_truth, k, threshold);
                FigPoint {
                    k,
                    accuracy: 100.0 * s.exact_accuracy,
                    subset_accuracy: 100.0 * s.subset_accuracy,
                    avg_wrong: s.avg_wrong,
                    avg_missing: s.avg_missing,
                }
            })
            .collect()
    };
    // (a) no threshold: force exactly k labels (threshold 0 keeps all k).
    let unthresholded = sweep(0.0);
    let threshold_10 = sweep(0.10);
    let threshold_50 = sweep(0.50);
    // §III-E2: "even with a threshold of 50% we could only recognize 3 or
    // 4 techniques" — the largest number of labels any prediction keeps.
    let max_at_50 =
        kept_probs.iter().map(|p| metrics::thresholded_top_k(p, 10, 0.5).len()).max().unwrap_or(0);

    println!("Figure 1 / Test Set 2 — mixed-technique samples (n={})", kept_probs.len());
    println!("level-1 transformed accuracy: {:.2}% (paper: 99.99%)", l1_acc);
    println!("\nlabel-count histogram: {:?}", &labels_histogram[1..8]);
    for (title, points) in [
        ("(a) unthresholded top-k", &unthresholded),
        ("(b) threshold 10%", &threshold_10),
        ("(c) threshold 50%", &threshold_50),
    ] {
        println!("\n{}", title);
        println!("  k   set-acc  subset-acc  avg-wrong  avg-missing");
        for p in points.iter() {
            println!(
                "  {:2} {:7.2}% {:9.2}% {:10.3} {:12.3}",
                p.k, p.accuracy, p.subset_accuracy, p.avg_wrong, p.avg_missing
            );
        }
    }
    println!("\nmax techniques ever kept at threshold 50%: {} (paper: 3-4)", max_at_50);

    let result = Fig1Result {
        level1_transformed_acc: l1_acc,
        unthresholded,
        threshold_10,
        threshold_50,
        max_detectable_at_50: max_at_50,
        n: kept_probs.len(),
        labels_histogram,
    };
    or_exit(write_json(&args, "fig1", &result));
}

/// Salt decorrelating the mixed-set RNG stream from training.
const MIXED_SALT: u64 = 0x1234_5678;
