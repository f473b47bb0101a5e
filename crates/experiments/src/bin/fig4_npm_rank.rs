//! Figure 4 / §IV-B2 — npm transformation rate by package rank.
//!
//! Paper targets: the top-1k packages are 2.4–4.4× less likely to contain
//! transformed code than the remaining top-10k; within transformed
//! scripts, the top-1k split basic/advanced minification ≈49%/47% while
//! lower ranks favour basic (≈58%) over advanced (≈37%).

use jsdetect::Technique;
use jsdetect_corpus::npm_population;
use jsdetect_experiments::{
    classify_ok, or_exit, pct, technique_usage_probability, train_cached, transformed_hits,
    write_json, Args,
};
use serde::Serialize;

#[derive(Serialize)]
struct Bucket {
    rank_start: usize,
    transformed_pct: f64,
    min_simple_usage: f64,
    min_advanced_usage: f64,
    n: usize,
}

#[derive(Serialize)]
struct Fig4Result {
    buckets: Vec<Bucket>,
    top1k_vs_rest_factor: f64,
    paper_factor_range: [f64; 2],
}

fn main() {
    let args = Args::parse();
    let (detectors, _pools) = or_exit(train_cached(&args));

    let packages_per_bucket = args.scaled(30);
    let month = 64;
    let mut buckets = Vec::new();
    for bucket in 0..10usize {
        // Transformed packages are rare events; aggregate several seeds
        // per bucket to tame the variance.
        let mut pop = Vec::new();
        for round in 0..4u64 {
            pop.extend(npm_population(
                month,
                packages_per_bucket,
                bucket * 1000,
                args.seed ^ ((bucket as u64) << 10) ^ (round << 40) ^ 0xf4,
            ));
        }
        let srcs: Vec<&str> = pop.iter().map(|s| s.src.as_str()).collect();
        let verdicts = classify_ok(&detectors, &srcs);
        let (transformed, total) = transformed_hits(&verdicts);
        let (usage, _) = technique_usage_probability(&verdicts);
        buckets.push(Bucket {
            rank_start: bucket * 1000,
            transformed_pct: pct(transformed, total),
            min_simple_usage: 100.0 * usage[Technique::MinificationSimple.index()],
            min_advanced_usage: 100.0 * usage[Technique::MinificationAdvanced.index()],
            n: total,
        });
    }

    let top1k = buckets[0].transformed_pct.max(0.01);
    let rest: f64 = buckets[1..].iter().map(|b| b.transformed_pct).sum::<f64>() / 9.0;
    let factor = rest / top1k;

    println!("Figure 4 — npm transformation rate by rank bucket");
    println!("{:-<74}", "");
    println!(
        "{:>12} {:>13} {:>12} {:>12} {:>6}",
        "rank", "transformed", "min simple", "min adv", "n"
    );
    for b in &buckets {
        println!(
            "{:>5}-{:<6} {:>12.2}% {:>11.2}% {:>11.2}% {:>6}",
            b.rank_start,
            b.rank_start + 1000,
            b.transformed_pct,
            b.min_simple_usage,
            b.min_advanced_usage,
            b.n
        );
    }
    println!("\ntop-1k is {:.1}x less transformed than the rest (paper: 2.4-4.4x)", factor);
    println!("paper: top-1k splits 49/47 basic/advanced; rest 58/37");

    or_exit(write_json(
        &args,
        "fig4_npm_rank",
        &Fig4Result { buckets, top1k_vs_rest_factor: factor, paper_factor_range: [2.4, 4.4] },
    ));
}
