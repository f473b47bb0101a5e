//! Feature-importance analysis (paper §III-B) — which features the
//! trained forests actually rely on per class and per technique.
//!
//! The paper motivates its hand-picked features by the syntactic traces
//! each transformation leaves; this experiment verifies the trained model
//! agrees (e.g. identifier obfuscation should hinge on `hex_binding_ratio`,
//! minification on layout statistics, no-alphanumeric on charset ratios).

use jsdetect::Technique;
use jsdetect_experiments::{or_exit, train_cached, write_json, Args};
use serde::Serialize;

#[derive(Serialize)]
struct ImportanceReport {
    level1: Vec<(String, Vec<(String, f64)>)>,
    level2: Vec<(String, Vec<(String, f64)>)>,
}

fn top(named: Vec<(String, f64)>, k: usize) -> Vec<(String, f64)> {
    named.into_iter().take(k).collect()
}

fn main() {
    let args = Args::parse();
    let (detectors, _pools) = or_exit(train_cached(&args));

    let mut report = ImportanceReport { level1: Vec::new(), level2: Vec::new() };

    println!("Level-1 feature importances (top 8 per class)");
    println!("{:-<64}", "");
    for (class, name) in [(0usize, "regular"), (1, "minified"), (2, "obfuscated")] {
        let imp = top(detectors.level1.feature_importances(class), 8);
        println!("\n[{}]", name);
        for (f, v) in &imp {
            println!("  {:44} {:6.3}", f, v);
        }
        report.level1.push((name.to_string(), imp));
    }

    println!("\nLevel-2 feature importances (top 6 per technique)");
    println!("{:-<64}", "");
    for t in Technique::ALL {
        let imp = top(detectors.level2.feature_importances(t.index()), 6);
        println!("\n[{}]", t.as_str());
        for (f, v) in &imp {
            println!("  {:44} {:6.3}", f, v);
        }
        report.level2.push((t.as_str().to_string(), imp));
    }

    or_exit(write_json(&args, "feature_importance", &report));
}
