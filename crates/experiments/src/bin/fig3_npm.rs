//! Figure 3 + §IV-B2 — npm Top-10k study.
//!
//! Paper targets: 8.7% of scripts transformed (8.46% minified, 0.25%
//! obfuscated); 15.14% of packages contain ≥1 transformed script; Figure-3
//! technique usage dominated by minification simple (58.34%) and advanced
//! (36.57%).

use jsdetect::Technique;
use jsdetect_corpus::npm_population;
use jsdetect_experiments::{
    classify_ok, or_exit, pct, print_technique_table, technique_usage_probability, train_cached,
    write_json, Args,
};
use serde::Serialize;
use std::collections::HashMap;

#[derive(Serialize)]
struct NpmResult {
    scripts_transformed_pct: f64,
    scripts_minified_pct: f64,
    scripts_obfuscated_pct: f64,
    packages_with_transformed_pct: f64,
    technique_usage: Vec<(String, f64)>,
    generating_transformed_pct: f64,
    n_scripts: usize,
    paper: HashMap<&'static str, f64>,
}

fn main() {
    let args = Args::parse();
    let (detectors, _pools) = or_exit(train_cached(&args));

    let packages_per_bucket = args.scaled(18);
    let month = 64;
    let mut all_scripts = Vec::new();
    for bucket in 0..10usize {
        let pop = npm_population(
            month,
            packages_per_bucket,
            bucket * 1000,
            args.seed ^ ((bucket as u64) << 9),
        );
        all_scripts.extend(pop);
    }
    eprintln!("[npm] classifying {} scripts...", all_scripts.len());
    let srcs: Vec<&str> = all_scripts.iter().map(|s| s.src.as_str()).collect();
    let verdicts = classify_ok(&detectors, &srcs);

    let mut transformed = 0usize;
    let mut minified = 0usize;
    let mut obfuscated = 0usize;
    let mut total = 0usize;
    let mut pkg_any: HashMap<usize, bool> = HashMap::new();
    for (v, script) in verdicts.iter().zip(&all_scripts) {
        if let Some(p) = v.as_ref().and_then(|v| v.level1) {
            total += 1;
            let entry = pkg_any.entry(script.container).or_insert(false);
            if p.is_transformed() {
                transformed += 1;
                *entry = true;
            }
            if p.minified >= 0.5 {
                minified += 1;
            }
            if p.obfuscated >= 0.5 {
                obfuscated += 1;
            }
        }
    }
    let pkgs_with = pkg_any.values().filter(|v| **v).count();
    let gen_rate =
        pct(all_scripts.iter().filter(|s| s.is_transformed()).count(), all_scripts.len());

    let (usage, n_transformed) = technique_usage_probability(&verdicts);
    let usage_rows: Vec<(String, f64)> =
        Technique::ALL.iter().map(|t| (t.as_str().to_string(), 100.0 * usage[t.index()])).collect();

    println!("npm Top 10k (simulated), {} scripts", total);
    println!("{:-<70}", "");
    println!(
        "scripts transformed: {:.2}% (generating truth {:.2}%, paper 8.7%)",
        pct(transformed, total),
        gen_rate
    );
    println!("scripts minified:    {:.2}% (paper 8.46%)", pct(minified, total));
    println!("scripts obfuscated:  {:.2}% (paper 0.25%)", pct(obfuscated, total));
    println!(
        "packages with ≥1 transformed script: {:.2}% (paper 15.14%)",
        pct(pkgs_with, pkg_any.len())
    );
    print_technique_table(
        &format!(
            "Figure 3 — technique usage probability over {} transformed scripts",
            n_transformed
        ),
        &usage,
    );
    println!("(paper: min simple 58.34%, min adv 36.57%, rest small)");

    let mut paper = HashMap::new();
    paper.insert("scripts_transformed_pct", 8.7);
    paper.insert("scripts_minified_pct", 8.46);
    paper.insert("scripts_obfuscated_pct", 0.25);
    paper.insert("packages_with_transformed_pct", 15.14);
    let result = NpmResult {
        scripts_transformed_pct: pct(transformed, total),
        scripts_minified_pct: pct(minified, total),
        scripts_obfuscated_pct: pct(obfuscated, total),
        packages_with_transformed_pct: pct(pkgs_with, pkg_any.len()),
        technique_usage: usage_rows,
        generating_transformed_pct: gen_rate,
        n_scripts: total,
        paper,
    };
    or_exit(write_json(&args, "fig3_npm", &result));
}
