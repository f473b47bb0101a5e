//! Audit a JavaScript file: print the level-1 verdict, the thresholded
//! level-2 technique report, and the most transformation-sensitive
//! hand-picked feature values — a small static-analysis console like the
//! paper's pipeline produces.
//!
//! ```sh
//! cargo run --release --example technique_audit -- path/to/file.js
//! # or, without an argument, audits built-in demo scripts:
//! cargo run --release --example technique_audit
//! ```

use jsdetect_suite::detector::{
    classify_one_cached, train_pipeline, AnalysisConfig, DetectorConfig, OutcomeKind,
    TrainedDetectors, DEFAULT_THRESHOLD,
};
use jsdetect_suite::features::{analyze, Limits, FEATURE_NAMES};
use jsdetect_suite::transform::{apply, Technique};

fn audit(detectors: &TrainedDetectors, name: &str, src: &str) {
    println!("\n=== {} ({} bytes) ===", name, src.len());
    let config = AnalysisConfig::trusted();
    let verdict = classify_one_cached(src, &config, None, detectors, 4, DEFAULT_THRESHOLD);
    let Some(p) = verdict.level1.filter(|_| verdict.outcome == OutcomeKind::Ok) else {
        println!("  not analyzable: {}", verdict.error_msg);
        return;
    };
    println!(
        "  level 1: regular={:.2} minified={:.2} obfuscated={:.2} → {}",
        p.regular,
        p.minified,
        p.obfuscated,
        if p.is_transformed() { "TRANSFORMED" } else { "regular" }
    );
    if p.is_transformed() {
        println!(
            "  level 2 (top-4 over {:.0}% threshold): {}",
            DEFAULT_THRESHOLD * 100.0,
            verdict.techniques.iter().map(|t| t.as_str()).collect::<Vec<_>>().join(", ")
        );
    }

    // Show the most telling hand-picked features.
    let features = analyze(src, &Limits::trusted()).into_ok().unwrap().handpicked;
    let show = [
        "avg_chars_per_line",
        "whitespace_ratio",
        "hex_binding_ratio",
        "short_binding_ratio",
        "bracket_member_ratio",
        "string_op_call_ratio",
        "jsfuck_charset_ratio",
        "avg_string_entropy",
    ];
    println!("  features:");
    for name in show {
        let i = FEATURE_NAMES.iter().position(|n| *n == name).unwrap();
        println!("    {:24} {:8.3}", name, features[i]);
    }
}

fn main() {
    println!("training detectors (n=100)...");
    let out = train_pipeline(100, 5, &DetectorConfig::default().with_seed(5));
    let detectors = out.detectors;

    if let Some(path) = std::env::args().nth(1) {
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {}", path, e);
            std::process::exit(1);
        });
        audit(&detectors, &path, &src);
        return;
    }

    // No file given: audit a demo script in several disguises.
    let demo = r#"
        function checksum(data) {
            var total = 0;
            for (var i = 0; i < data.length; i++) {
                total = (total + data.charCodeAt(i) * 31) % 65521;
            }
            return total.toString(16);
        }
        console.log(checksum('the quick brown fox'));
    "#;
    audit(&detectors, "original", demo);
    for techniques in [
        vec![Technique::MinificationSimple],
        vec![Technique::IdentifierObfuscation, Technique::GlobalArray],
        vec![Technique::ControlFlowFlattening, Technique::StringObfuscation],
        vec![Technique::NoAlphanumeric],
    ] {
        let label = techniques.iter().map(|t| t.as_str()).collect::<Vec<_>>().join(" + ");
        match apply(demo, &techniques, 1234) {
            Ok(src) => audit(&detectors, &label, &src),
            Err(e) => println!("\n=== {} === failed: {}", label, e),
        }
    }
}
