//! Figure 7 — technique-usage evolution in transformed Alexa scripts.
//!
//! Paper targets: minification simple rises 38.74% → 47.02%, advanced
//! decays 43.77% → 40%, identifier obfuscation decays 8.23% → 6.21%, the
//! other techniques stay under ~2.4%.

use jsdetect::Technique;
use jsdetect_corpus::alexa_population;
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

    let sites = args.scaled(28);
    let stride = 8usize;
    let mut points = Vec::new();
    for month in (0..jsdetect_corpus::N_MONTHS).step_by(stride) {
        let pop = alexa_population(month, sites, 0, args.seed ^ (month as u64) ^ 0x7a);
        let srcs: Vec<&str> = pop.iter().map(|s| s.src.as_str()).collect();
        let (usage, n) = technique_usage_probability(&classify_ok(&detectors, &srcs));
        eprintln!(
            "[fig7] month {:>2}: simple {:.1}% adv {:.1}% ident {:.1}% ({} transformed)",
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

    println!("Figure 7 — Alexa technique usage over time");
    println!("{:-<76}", "");
    println!(
        "{:>6} {:>11} {:>11} {:>11} {:>8}",
        "month", "min simple", "min adv", "ident obf", "n"
    );
    for p in &points {
        let get =
            |name: &str| p.usage.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0.0);
        println!(
            "{:>6} {:>10.2}% {:>10.2}% {:>10.2}% {:>8}",
            p.month,
            get("minification_simple"),
            get("minification_advanced"),
            get("identifier_obfuscation"),
            p.n_transformed
        );
    }
    println!("\npaper: simple 38.74%→47.02%, advanced 43.77%→40%, ident 8.23%→6.21%");
    or_exit(write_json(&args, "fig7_alexa_time", &points));
}
