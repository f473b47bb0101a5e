//! Figure 2 + §IV-B1 — Alexa Top-10k study.
//!
//! Reports: fraction of scripts transformed (paper: 68.60%; 68.20%
//! minified, 0.40% obfuscated), fraction of sites with at least one
//! transformed script (paper: 89.4%), per-rank-bucket transformed rates
//! (paper: ~80% top-1k declining to ~72.35% in the 9-10k bucket), and the
//! Figure-2 technique-usage probabilities (min simple 45.96%, min adv
//! 40.24%, identifier obf 5.72%, the rest under 1.94%).

use jsdetect::Technique;
use jsdetect_corpus::alexa_population;
use jsdetect_experiments::{
    classify_ok, or_exit, pct, print_technique_table, technique_usage_probability, train_cached,
    write_json, Args,
};
use serde::Serialize;
use std::collections::HashMap;

#[derive(Serialize)]
struct AlexaResult {
    scripts_transformed_pct: f64,
    scripts_minified_pct: f64,
    scripts_obfuscated_pct: f64,
    sites_with_transformed_pct: f64,
    bucket_transformed_pct: Vec<f64>,
    technique_usage: Vec<(String, f64)>,
    generating_transformed_pct: f64,
    n_scripts: usize,
    paper: HashMap<&'static str, f64>,
}

fn main() {
    let args = Args::parse();
    let (detectors, _pools) = or_exit(train_cached(&args));

    // 10 rank buckets of sites sampled across the top 10k.
    let sites_per_bucket = args.scaled(14);
    let month = 64; // 2020-09
    let mut all_scripts = Vec::new();
    let mut bucket_of_script = Vec::new();
    for bucket in 0..10usize {
        let pop = alexa_population(
            month,
            sites_per_bucket,
            bucket * 1000,
            args.seed ^ (bucket as u64) << 8,
        );
        for s in pop {
            bucket_of_script.push(bucket);
            all_scripts.push(s);
        }
    }
    eprintln!("[alexa] classifying {} scripts...", all_scripts.len());
    let srcs: Vec<&str> = all_scripts.iter().map(|s| s.src.as_str()).collect();
    let verdicts = classify_ok(&detectors, &srcs);

    let mut transformed = 0usize;
    let mut minified = 0usize;
    let mut obfuscated = 0usize;
    let mut total = 0usize;
    let mut bucket_counts = [(0usize, 0usize); 10];
    let mut site_any: HashMap<usize, bool> = HashMap::new();
    for ((v, script), bucket) in verdicts.iter().zip(&all_scripts).zip(&bucket_of_script) {
        if let Some(p) = v.as_ref().and_then(|v| v.level1) {
            total += 1;
            let entry = site_any.entry(script.container).or_insert(false);
            if p.is_transformed() {
                transformed += 1;
                bucket_counts[*bucket].0 += 1;
                *entry = true;
            }
            if p.minified >= 0.5 {
                minified += 1;
            }
            if p.obfuscated >= 0.5 {
                obfuscated += 1;
            }
            bucket_counts[*bucket].1 += 1;
        }
    }
    let sites_with = site_any.values().filter(|v| **v).count();
    let bucket_pct: Vec<f64> = bucket_counts.iter().map(|(t, n)| pct(*t, *n)).collect();
    let gen_rate =
        pct(all_scripts.iter().filter(|s| s.is_transformed()).count(), all_scripts.len());

    // Figure 2: technique usage probability over transformed scripts.
    let (usage, n_transformed) = technique_usage_probability(&verdicts);
    let usage_rows: Vec<(String, f64)> =
        Technique::ALL.iter().map(|t| (t.as_str().to_string(), 100.0 * usage[t.index()])).collect();

    println!("Alexa Top 10k (simulated), month 2020-09, {} scripts", total);
    println!("{:-<70}", "");
    println!(
        "scripts transformed: {:.2}% (generating truth {:.2}%, paper 68.60%)",
        pct(transformed, total),
        gen_rate
    );
    println!("scripts minified:    {:.2}% (paper 68.20%)", pct(minified, total));
    println!("scripts obfuscated:  {:.2}% (paper 0.40%)", pct(obfuscated, total));
    println!(
        "sites with ≥1 transformed script: {:.2}% (paper 89.4%)",
        pct(sites_with, site_any.len())
    );
    println!("\ntransformed rate per rank bucket (paper: ~80% → 72.35%):");
    for (b, p) in bucket_pct.iter().enumerate() {
        println!("  rank {:>5}-{:<5} {:6.2}%", b * 1000, (b + 1) * 1000, p);
    }
    print_technique_table(
        &format!(
            "Figure 2 — technique usage probability over {} transformed scripts",
            n_transformed
        ),
        &usage,
    );
    println!("(paper: min simple 45.96%, min adv 40.24%, ident obf 5.72%, rest <1.94%)");

    let mut paper = HashMap::new();
    paper.insert("scripts_transformed_pct", 68.60);
    paper.insert("scripts_minified_pct", 68.20);
    paper.insert("scripts_obfuscated_pct", 0.40);
    paper.insert("sites_with_transformed_pct", 89.4);
    let result = AlexaResult {
        scripts_transformed_pct: pct(transformed, total),
        scripts_minified_pct: pct(minified, total),
        scripts_obfuscated_pct: pct(obfuscated, total),
        sites_with_transformed_pct: pct(sites_with, site_any.len()),
        bucket_transformed_pct: bucket_pct,
        technique_usage: usage_rows,
        generating_transformed_pct: gen_rate,
        n_scripts: total,
        paper,
    };
    or_exit(write_json(&args, "fig2_alexa", &result));
}
