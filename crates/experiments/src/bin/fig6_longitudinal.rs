//! Figure 6 — proportion of transformed scripts over 65 months
//! (2015-05 .. 2020-09) for Alexa Top 2k and npm Top 2k.
//!
//! Paper targets: a steady rise for Alexa; three npm phases (noisy ~7.4%,
//! stable ~17.95%, then ~15.17%).

use jsdetect_corpus::{alexa_population, npm_population};
use jsdetect_experiments::{
    classify_ok, or_exit, pct, train_cached, transformed_hits, write_json, Args,
};
use serde::Serialize;

#[derive(Serialize)]
struct MonthPoint {
    month: usize,
    alexa_pct: f64,
    npm_pct: f64,
    alexa_truth_pct: f64,
    npm_truth_pct: f64,
}

fn main() {
    let args = Args::parse();
    let (detectors, _pools) = or_exit(train_cached(&args));

    let sites = args.scaled(12);
    let packages = args.scaled(16);
    let stride = 4usize;
    let mut points = Vec::new();

    for month in (0..jsdetect_corpus::N_MONTHS).step_by(stride) {
        let alexa = alexa_population(month, sites, 0, args.seed ^ (month as u64));
        // Top-2k packages: sample both rank halves.
        let mut npm = npm_population(month, packages / 2, 0, args.seed ^ (month as u64) ^ 0x99);
        npm.extend(npm_population(month, packages / 2, 1000, args.seed ^ (month as u64) ^ 0x9a));
        let rate = |pop: &[jsdetect_corpus::WildScript]| -> (f64, f64) {
            let srcs: Vec<&str> = pop.iter().map(|s| s.src.as_str()).collect();
            let (tr, n) = transformed_hits(&classify_ok(&detectors, &srcs));
            let truth = pop.iter().filter(|s| s.is_transformed()).count() as f64 / pop.len() as f64;
            (pct(tr, n), 100.0 * truth)
        };
        let (a, at) = rate(&alexa);
        let (n, nt) = rate(&npm);
        eprintln!("[fig6] month {:>2}: alexa {:.1}% npm {:.1}%", month, a, n);
        points.push(MonthPoint {
            month,
            alexa_pct: a,
            npm_pct: n,
            alexa_truth_pct: at,
            npm_truth_pct: nt,
        });
    }

    println!("Figure 6 — transformed-script proportion over time");
    println!("{:-<66}", "");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "month", "alexa", "npm", "alexa-truth", "npm-truth"
    );
    for p in &points {
        println!(
            "{:>6} {:>11.2}% {:>11.2}% {:>11.2}% {:>11.2}%",
            p.month, p.alexa_pct, p.npm_pct, p.alexa_truth_pct, p.npm_truth_pct
        );
    }

    // Shape checks against the paper.
    let first_third: f64 = points.iter().take(points.len() / 3).map(|p| p.alexa_pct).sum::<f64>()
        / (points.len() / 3).max(1) as f64;
    let last_third: f64 =
        points.iter().skip(2 * points.len() / 3).map(|p| p.alexa_pct).sum::<f64>()
            / (points.len() - 2 * points.len() / 3).max(1) as f64;
    println!("\nAlexa rises from ~{:.1}% to ~{:.1}% (paper: steady rise)", first_third, last_third);
    let npm_early: f64 = points.iter().filter(|p| p.month < 12).map(|p| p.npm_pct).sum::<f64>()
        / points.iter().filter(|p| p.month < 12).count().max(1) as f64;
    let npm_mid: f64 =
        points.iter().filter(|p| (12..49).contains(&p.month)).map(|p| p.npm_pct).sum::<f64>()
            / points.iter().filter(|p| (12..49).contains(&p.month)).count().max(1) as f64;
    println!(
        "npm phases: early ~{:.1}% (paper 7.4%), middle ~{:.1}% (paper 17.95%)",
        npm_early, npm_mid
    );
    or_exit(write_json(&args, "fig6_longitudinal", &points));
}
