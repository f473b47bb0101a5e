//! §IV-B1 sanity check — classification of a fresh regular-only corpus
//! (the paper's stand-in is the 150,000-sample Raychev et al. corpus;
//! target: 98.65% classified regular).

use jsdetect_corpus::regular_corpus;
use jsdetect_experiments::{
    classify_ok, or_exit, pct, train_cached, transformed_hits, write_json, Args,
};
use serde::Serialize;

#[derive(Serialize)]
struct HoldoutResult {
    regular_acc: f64,
    n: usize,
    paper_acc: f64,
}

fn main() {
    let args = Args::parse();
    let (detectors, _pools) = or_exit(train_cached(&args));

    let n = args.scaled(400);
    eprintln!("[holdout] generating {} fresh regular scripts (unseen seeds)...", n);
    // Seed offset far outside the training stream.
    let scripts = regular_corpus(n, args.seed.wrapping_add(0xDEAD_0000));
    let srcs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
    let (transformed, total) = transformed_hits(&classify_ok(&detectors, &srcs));
    let acc = pct(total - transformed, total);

    println!("Fresh regular-corpus holdout (§IV-B1 verification), n={}", total);
    println!("classified regular: {:.2}% (paper, Raychev corpus: 98.65%)", acc);

    or_exit(write_json(
        &args,
        "eval_regular_holdout",
        &HoldoutResult { regular_acc: acc, n: total, paper_acc: 98.65 },
    ));
}
