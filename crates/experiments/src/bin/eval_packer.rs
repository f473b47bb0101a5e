//! §III-E3 (Test Set 3) — generalization to the held-out Dean Edwards
//! packer (the Daft Logic obfuscator's engine).
//!
//! Paper targets: 99.52% of packed samples flagged transformed; the
//! thresholded Top-4 reports minification (advanced and simple),
//! identifier obfuscation, and string obfuscation.

use jsdetect::{Technique, DEFAULT_THRESHOLD};
use jsdetect_corpus::packer_set;
use jsdetect_experiments::{
    classify_ok, or_exit, pct, train_cached, transformed_hits, write_json, Args,
};
use serde::Serialize;

#[derive(Serialize)]
struct PackerResult {
    transformed_acc: f64,
    top4_technique_rates: Vec<(String, f64)>,
    n: usize,
    paper_transformed_acc: f64,
}

fn main() {
    let args = Args::parse();
    let (detectors, _pools) = or_exit(train_cached(&args));

    let n = args.scaled(150);
    eprintln!("[packer] generating {} packed samples...", n);
    let samples = packer_set(n, args.seed ^ 0x9acc);
    let srcs: Vec<&str> = samples.iter().map(|s| s.src.as_str()).collect();

    let verdicts = classify_ok(&detectors, &srcs);
    let (transformed, total) = transformed_hits(&verdicts);
    let acc = pct(transformed, total);

    // Thresholded Top-4 technique reports across the set, read from the
    // level-2 probabilities of every sample (no level-1 gate).
    let mut counts = [0usize; 10];
    for p in verdicts.iter().flatten().filter_map(|v| v.level2.as_ref()) {
        for i in jsdetect_ml::metrics::thresholded_top_k(p, 4, DEFAULT_THRESHOLD) {
            counts[i] += 1;
        }
    }
    let mut rates: Vec<(String, f64)> = counts
        .iter()
        .enumerate()
        .map(|(i, c)| (Technique::ALL[i].as_str().to_string(), pct(*c, total)))
        .collect();
    rates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    println!("Held-out packer generalization (Test Set 3, §III-E3), n={}", total);
    println!("{:-<64}", "");
    println!("flagged transformed: {:.2}% (paper: 99.52%)", acc);
    println!("\ntop-4 thresholded technique reports (fraction of samples):");
    for (name, r) in &rates {
        println!("  {:26} {:6.2}%", name, r);
    }
    println!(
        "\npaper reports: minification advanced + simple, identifier\n\
         obfuscation, and string obfuscation — in line with the packer."
    );

    let result = PackerResult {
        transformed_acc: acc,
        top4_technique_rates: rates,
        n: total,
        paper_transformed_acc: 99.52,
    };
    or_exit(write_json(&args, "eval_packer", &result));
}
