//! §III-E1 (Test Set 1, level 1) — detection accuracy over the held-out
//! regular / minified / obfuscated pools.
//!
//! Paper targets: regular 98.65%, obfuscated 99.81%, minified 99.71%,
//! overall 99.41%; transformed-vs-regular 99.69%.

use jsdetect_corpus::LabeledSample;
use jsdetect_experiments::{
    classify_ok, or_exit, pct, train_cached, transformed_hits, write_json, Args, Level1Score,
};
use serde::Serialize;

#[derive(Serialize)]
struct Level1Result {
    regular_acc: f64,
    minified_acc: f64,
    obfuscated_acc: f64,
    overall_acc: f64,
    transformed_acc: f64,
    n_regular: usize,
    n_minified: usize,
    n_obfuscated: usize,
    paper: PaperRef,
}

#[derive(Serialize)]
struct PaperRef {
    regular_acc: f64,
    minified_acc: f64,
    obfuscated_acc: f64,
    overall_acc: f64,
    transformed_acc: f64,
}

fn main() {
    let args = Args::parse();
    let (detectors, pools) = or_exit(train_cached(&args));

    let classify = |samples: &[LabeledSample]| {
        classify_ok(&detectors, &samples.iter().map(|s| s.src.as_str()).collect::<Vec<_>>())
    };
    let regular = classify(&pools.test_regular);
    let minified = classify(&pools.test_minified);
    let obfuscated = classify(&pools.test_obfuscated);
    let score = Level1Score::of(&regular, &minified, &obfuscated);
    let ((reg_ok, reg_n), (min_ok, min_n), (obf_ok, obf_n)) =
        (score.regular, score.minified, score.obfuscated);
    // Transformed = minified and/or obfuscated flag fires.
    let tr_ok = transformed_hits(&minified).0 + transformed_hits(&obfuscated).0;

    let result = Level1Result {
        regular_acc: pct(reg_ok, reg_n),
        minified_acc: pct(min_ok, min_n),
        obfuscated_acc: pct(obf_ok, obf_n),
        overall_acc: score.overall_pct(),
        transformed_acc: pct(reg_ok + tr_ok, reg_n + min_n + obf_n),
        n_regular: reg_n,
        n_minified: min_n,
        n_obfuscated: obf_n,
        paper: PaperRef {
            regular_acc: 98.65,
            minified_acc: 99.71,
            obfuscated_acc: 99.81,
            overall_acc: 99.41,
            transformed_acc: 99.69,
        },
    };

    println!("Level-1 detector accuracy (Test Set 1, §III-E1)");
    println!("{:-<64}", "");
    println!("{:24} {:>12} {:>12}", "class", "measured", "paper");
    println!(
        "{:24} {:>11.2}% {:>11.2}%",
        format!("regular (n={})", result.n_regular),
        result.regular_acc,
        result.paper.regular_acc
    );
    println!(
        "{:24} {:>11.2}% {:>11.2}%",
        format!("minified (n={})", result.n_minified),
        result.minified_acc,
        result.paper.minified_acc
    );
    println!(
        "{:24} {:>11.2}% {:>11.2}%",
        format!("obfuscated (n={})", result.n_obfuscated),
        result.obfuscated_acc,
        result.paper.obfuscated_acc
    );
    println!("{:24} {:>11.2}% {:>11.2}%", "overall", result.overall_acc, result.paper.overall_acc);
    println!(
        "{:24} {:>11.2}% {:>11.2}%",
        "transformed", result.transformed_acc, result.paper.transformed_acc
    );
    or_exit(write_json(&args, "eval_level1", &result));
}
