//! Detection-under-normalization study.
//!
//! The deobfuscation suite is meant to *undo* the transforms the Level-2
//! detector is trained to recognize — so running the held-out
//! per-technique pool through it and re-classifying measures how much of
//! each technique's detectable signature the passes actually remove.
//! For every technique we report precision / recall / F1 at threshold
//! 0.5 on the original sources and on their normalized re-printings,
//! plus the deltas. Techniques the suite reverses well (global string
//! arrays, statement-merging minification) should lose recall;
//! techniques it does not touch (identifier renaming, flattening
//! dispatchers) should hold steady — a built-in control.
//!
//! Results land in `results/normalization_study.json`, and a compact
//! `normalize` provenance block is merged into `BENCH_ml.json` (top
//! level, next to the perf trajectory) so the study's headline numbers
//! travel with the benchmark history.

use jsdetect::Technique;
use jsdetect_experiments::{
    classify_ok, merge_bench_block, or_exit, train_cached, write_json, Args,
};
use jsdetect_guard::{Budget, Limits};
use jsdetect_normalize::{normalize_program, NormalizeOptions};
use serde::Serialize;
use serde_json::JsonValue;

#[derive(Serialize, Clone, Copy)]
struct Prf {
    precision: f64,
    recall: f64,
    f1: f64,
}

#[derive(Serialize)]
struct TechniqueRow {
    technique: String,
    n: usize,
    original: Prf,
    normalized: Prf,
    delta_f1: f64,
    delta_recall: f64,
}

#[derive(Serialize)]
struct StudyResult {
    n_scripts: usize,
    n_reprinted: usize,
    rewrites_total: u64,
    per_technique: Vec<TechniqueRow>,
    mean_abs_delta_f1: f64,
    seed: u64,
    scale: f64,
    feature_space_version: u32,
}

/// Precision/recall/F1 of one technique column at threshold 0.5.
fn prf(probs: &[Vec<f32>], truth: &[Vec<bool>], idx: usize) -> Prf {
    let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
    for (p, t) in probs.iter().zip(truth) {
        let pred = p[idx] >= 0.5;
        match (pred, t[idx]) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    let precision = tp as f64 / (tp + fp).max(1) as f64;
    let recall = tp as f64 / (tp + fn_).max(1) as f64;
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    Prf { precision, recall, f1 }
}

fn main() {
    let args = Args::parse();
    let (detectors, pools) = or_exit(train_cached(&args));

    // Normalize every held-out level-2 sample: parse, drive the pass
    // suite to its fixpoint, and re-print. Unparseable samples and samples
    // on which a pass panicked (none are expected — they came from our own
    // transforms) keep their original text, so the two prediction passes
    // always align row for row.
    // Trusted limits disable the deadline for reproducibility; fuel and
    // round caps bound the work.
    let opts = NormalizeOptions::default();
    let mut normalized: Vec<String> = Vec::with_capacity(pools.test_level2.len());
    let mut n_reprinted = 0usize;
    let mut rewrites_total = 0u64;
    for sample in &pools.test_level2 {
        match jsdetect_parser::parse(&sample.src) {
            Ok(program) => {
                let budget = Budget::new(&Limits::trusted());
                let (program, report) = normalize_program(program, None, &opts, &budget);
                let Some(program) = program.map(|n| n.program) else {
                    normalized.push(sample.src.clone());
                    continue;
                };
                rewrites_total += report.total_rewrites();
                n_reprinted += 1;
                normalized.push(jsdetect_codegen::to_source(&program));
            }
            Err(_) => normalized.push(sample.src.clone()),
        }
    }

    let orig_refs: Vec<&str> = pools.test_level2.iter().map(|s| s.src.as_str()).collect();
    let norm_refs: Vec<&str> = normalized.iter().map(String::as_str).collect();
    let orig = classify_ok(&detectors, &orig_refs);
    let norm = classify_ok(&detectors, &norm_refs);

    // Keep only rows where both variants produced a prediction.
    let mut kept_orig: Vec<Vec<f32>> = Vec::new();
    let mut kept_norm: Vec<Vec<f32>> = Vec::new();
    let mut kept_truth: Vec<Vec<bool>> = Vec::new();
    let level2 = |v: Option<jsdetect::ScriptVerdict>| v.and_then(|v| v.level2);
    for ((o, n), s) in orig.into_iter().zip(norm).zip(&pools.test_level2) {
        if let (Some(o), Some(n)) = (level2(o), level2(n)) {
            kept_orig.push(o);
            kept_norm.push(n);
            kept_truth.push(s.label_vector());
        }
    }

    let mut rows = Vec::new();
    let mut abs_delta_sum = 0.0;
    for t in Technique::ALL {
        let n = kept_truth.iter().filter(|v| v[t.index()]).count();
        let original = prf(&kept_orig, &kept_truth, t.index());
        let normalized = prf(&kept_norm, &kept_truth, t.index());
        let delta_f1 = normalized.f1 - original.f1;
        abs_delta_sum += delta_f1.abs();
        rows.push(TechniqueRow {
            technique: t.as_str().to_string(),
            n,
            original,
            normalized,
            delta_f1,
            delta_recall: normalized.recall - original.recall,
        });
    }

    let result = StudyResult {
        n_scripts: kept_truth.len(),
        n_reprinted,
        rewrites_total,
        mean_abs_delta_f1: abs_delta_sum / Technique::ALL.len() as f64,
        per_technique: rows,
        seed: args.seed,
        scale: args.scale,
        feature_space_version: jsdetect_features::FEATURE_SPACE_VERSION,
    };

    println!(
        "Detection under normalization (level 2, threshold 0.5), n={} ({} rewrites)",
        result.n_scripts, result.rewrites_total
    );
    println!("{:-<78}", "");
    println!(
        "  {:26} {:>5}  {:>8} {:>8}  {:>8} {:>8}  {:>7}",
        "technique", "n", "P orig", "R orig", "P norm", "R norm", "dF1"
    );
    for r in &result.per_technique {
        println!(
            "  {:26} {:>5}  {:>8.2} {:>8.2}  {:>8.2} {:>8.2}  {:>+7.3}",
            r.technique,
            r.n,
            r.original.precision,
            r.original.recall,
            r.normalized.precision,
            r.normalized.recall,
            r.delta_f1
        );
    }
    println!("\n  mean |dF1| across techniques: {:.3}", result.mean_abs_delta_f1);

    or_exit(write_json(&args, "normalization_study", &result));
    or_exit(merge_bench_block("normalize", bench_block(&result)));
}

/// The compact `normalize` block merged into the top level of
/// `BENCH_ml.json`, so the study's headline travels with the benchmark
/// history.
fn bench_block(result: &StudyResult) -> JsonValue {
    BenchProvenance {
        n_scripts: result.n_scripts,
        rewrites_total: result.rewrites_total,
        mean_abs_delta_f1: result.mean_abs_delta_f1,
        seed: result.seed,
        scale: result.scale,
        feature_space_version: result.feature_space_version,
        source: "crates/experiments/src/bin/normalization_study.rs".to_string(),
    }
    .to_value()
}

#[derive(Serialize)]
struct BenchProvenance {
    n_scripts: usize,
    rewrites_total: u64,
    mean_abs_delta_f1: f64,
    seed: u64,
    scale: f64,
    feature_space_version: u32,
    source: String,
}
