//! Figure 8 — technique-usage evolution in transformed npm scripts.
//!
//! Paper targets: minification simple ≈58.62% average, advanced ≈34.28%,
//! identifier obfuscation ≈9.71%, the rest below ~3%.

use jsdetect::Technique;
use jsdetect_corpus::npm_population;
use jsdetect_experiments::{
    classify_ok, or_exit, technique_usage_probability, train_cached, write_json, Args,
};
use serde::Serialize;

#[derive(Serialize)]
struct TimePoint {
    month: usize,
    usage: Vec<(String, f64)>,
    n_transformed: usize,
}

fn main() {
    let args = Args::parse();
    let (detectors, _pools) = or_exit(train_cached(&args));

    let packages = args.scaled(30);
    let stride = 8usize;
    let mut points = Vec::new();
    for month in (0..jsdetect_corpus::N_MONTHS).step_by(stride) {
        let pop = npm_population(month, packages, 1_000, args.seed ^ (month as u64) ^ 0x8b);
        let srcs: Vec<&str> = pop.iter().map(|s| s.src.as_str()).collect();
        let (usage, n) = technique_usage_probability(&classify_ok(&detectors, &srcs));
        eprintln!(
            "[fig8] month {:>2}: simple {:.1}% adv {:.1}% ident {:.1}% ({} transformed)",
            month,
            100.0 * usage[Technique::MinificationSimple.index()],
            100.0 * usage[Technique::MinificationAdvanced.index()],
            100.0 * usage[Technique::IdentifierObfuscation.index()],
            n
        );
        points.push(TimePoint {
            month,
            usage: Technique::ALL
                .iter()
                .map(|t| (t.as_str().to_string(), 100.0 * usage[t.index()]))
                .collect(),
            n_transformed: n,
        });
    }

    println!("Figure 8 — npm technique usage over time");
    println!("{:-<76}", "");
    println!(
        "{:>6} {:>11} {:>11} {:>11} {:>8}",
        "month", "min simple", "min adv", "ident obf", "n"
    );
    let mut avg = [0.0f64; 3];
    for p in &points {
        let get =
            |name: &str| p.usage.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0.0);
        avg[0] += get("minification_simple");
        avg[1] += get("minification_advanced");
        avg[2] += get("identifier_obfuscation");
        println!(
            "{:>6} {:>10.2}% {:>10.2}% {:>10.2}% {:>8}",
            p.month,
            get("minification_simple"),
            get("minification_advanced"),
            get("identifier_obfuscation"),
            p.n_transformed
        );
    }
    let n = points.len().max(1) as f64;
    println!(
        "\naverages: simple {:.2}% / advanced {:.2}% / ident {:.2}%",
        avg[0] / n,
        avg[1] / n,
        avg[2] / n
    );
    println!("paper averages: simple 58.62%, advanced 34.28%, ident 9.71%");
    or_exit(write_json(&args, "fig8_npm_time", &points));
}
