//! §II-C / §V-A claim check — the level-1 detector flags samples as
//! transformed even when the technique is *not* among the ten it
//! monitors. The example technique the paper names is **obfuscated field
//! reference** (dot accesses rewritten to bracket notation).

use jsdetect_corpus::regular_corpus;
use jsdetect_experiments::{classify_ok, or_exit, pct, train_cached, write_json, Args};
use jsdetect_transform::presets::obfuscate_field_references;
use serde::Serialize;

#[derive(Serialize)]
struct UnmonitoredResult {
    flagged_pct: f64,
    regular_baseline_flagged_pct: f64,
    mean_obfuscated_confidence_before: f64,
    mean_obfuscated_confidence_after: f64,
    n: usize,
}

fn main() {
    let args = Args::parse();
    let (detectors, _pools) = or_exit(train_cached(&args));

    let n = args.scaled(200);
    let base = regular_corpus(n, args.seed.wrapping_add(0xF1E1D));
    let rewritten: Vec<String> = base
        .iter()
        .filter_map(|s| {
            let out = obfuscate_field_references(s).ok()?;
            (out != *s).then_some(out)
        })
        .collect();

    let base_refs: Vec<&str> = base.iter().map(|s| s.as_str()).collect();
    let obf_refs: Vec<&str> = rewritten.iter().map(|s| s.as_str()).collect();
    let level1 = |srcs: &[&str]| -> Vec<jsdetect::Level1Prediction> {
        classify_ok(&detectors, srcs).into_iter().flatten().filter_map(|v| v.level1).collect()
    };
    let p_base = level1(&base_refs);
    let p_obf = level1(&obf_refs);

    let flagged = |preds: &[jsdetect::Level1Prediction]| {
        pct(preds.iter().filter(|p| p.is_transformed()).count(), preds.len())
    };
    let mean_obf = |preds: &[jsdetect::Level1Prediction]| {
        let s: f64 = preds.iter().map(|p| p.obfuscated as f64).sum();
        s / preds.len().max(1) as f64
    };

    let result = UnmonitoredResult {
        flagged_pct: flagged(&p_obf),
        regular_baseline_flagged_pct: flagged(&p_base),
        mean_obfuscated_confidence_before: mean_obf(&p_base),
        mean_obfuscated_confidence_after: mean_obf(&p_obf),
        n: rewritten.len(),
    };

    println!("Unmonitored technique: obfuscated field reference (§II-C)");
    println!("{:-<64}", "");
    println!("rewritten samples flagged transformed: {:.2}%", result.flagged_pct);
    println!("untouched baseline flagged transformed: {:.2}%", result.regular_baseline_flagged_pct);
    println!(
        "mean obfuscated confidence: {:.3} -> {:.3}",
        result.mean_obfuscated_confidence_before, result.mean_obfuscated_confidence_after
    );
    println!(
        "\npaper's claim: level 1 recognizes transformed samples even for\n\
         techniques it has no level-2 label for."
    );
    or_exit(write_json(&args, "eval_unmonitored", &result));
}
