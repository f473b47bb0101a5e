//! Fixture tests: every rule must fire on the transform preset that
//! produces its signature and stay silent on clean input.

use jsdetect_lint::{Diagnostic, Severity};
use jsdetect_parser::parse;
use jsdetect_transform::{apply, Technique};

/// Clean base program: every binding is read, every string is used, no
/// dead code — zero diagnostics expected before transformation.
const BASE: &str = r#"
function greet(name) {
    var message = 'hello there ' + name;
    var punct = '!!';
    log(message + punct);
    return message;
}
function compute(a, b) {
    var total = a + b;
    var scale = 'factor';
    var label = 'result value';
    log(label + ': ' + total + scale);
    return total;
}
greet('world');
compute(3, 4);
log('done with work');
"#;

fn lint(src: &str) -> Vec<Diagnostic> {
    let program = parse(src).expect("fixture must parse");
    let graph = jsdetect_flow::analyze(&program);
    jsdetect_lint::lint(src, &program, &graph).0
}

fn transformed(t: Technique) -> String {
    apply(BASE, &[t], 11).expect("preset must apply")
}

fn hits<'a>(diags: &'a [Diagnostic], rule: &str) -> Vec<&'a Diagnostic> {
    diags.iter().filter(|d| d.rule == rule).collect()
}

/// Every diagnostic must anchor to a real in-bounds span.
fn assert_anchored(diags: &[Diagnostic], src: &str) {
    for d in diags {
        assert!(
            (d.span.end as usize) <= src.len() && d.span.start < d.span.end,
            "{} has a bad span {:?} for source of {} bytes",
            d.rule,
            d.span,
            src.len()
        );
    }
}

#[test]
fn clean_base_is_silent() {
    assert!(lint(BASE).is_empty(), "clean fixture must produce no diagnostics: {:#?}", lint(BASE));
}

#[test]
fn unreachable_code_fires_on_dead_code_injection() {
    let src = transformed(Technique::DeadCodeInjection);
    let diags = lint(&src);
    let found = hits(&diags, "unreachable-code");
    assert!(!found.is_empty(), "dead-code output must contain unreachable code:\n{}", src);
    assert_anchored(&diags, &src);
    // The opaque-predicate findings name the sentinel state variable.
    assert!(
        found.iter().any(|d| d.data.iter().any(|(k, _)| *k == "state_var")),
        "expected at least one opaque-predicate finding"
    );
}

#[test]
fn unused_binding_fires_on_dead_code_injection() {
    let src = transformed(Technique::DeadCodeInjection);
    let diags = lint(&src);
    assert!(
        !hits(&diags, "unused-binding").is_empty(),
        "junk declarations must be flagged:\n{}",
        src
    );
}

#[test]
fn flattening_dispatcher_fires_on_control_flow_flattening() {
    let src = transformed(Technique::ControlFlowFlattening);
    let diags = lint(&src);
    let found = hits(&diags, "flattening-dispatcher");
    assert!(!found.is_empty(), "dispatcher must be flagged:\n{}", src);
    // The span must anchor the actual switch statement.
    let snippet = &src[found[0].span.start as usize..found[0].span.end as usize];
    assert!(snippet.starts_with("switch"), "span should cover the switch, got: {}", snippet);
}

#[test]
fn global_string_array_fires_on_global_array() {
    let src = transformed(Technique::GlobalArray);
    let diags = lint(&src);
    assert!(
        !hits(&diags, "global-string-array").is_empty(),
        "string pool must be flagged:\n{}",
        src
    );
    assert_anchored(&diags, &src);
}

#[test]
fn string_decoder_call_fires_on_global_array() {
    let src = transformed(Technique::GlobalArray);
    let diags = lint(&src);
    let found = hits(&diags, "string-decoder-call");
    assert!(!found.is_empty(), "decoder shim must be flagged:\n{}", src);
    assert!(found[0].data.iter().any(|(k, _)| *k == "calls"));
}

#[test]
fn debugger_in_loop_fires_on_debug_protection() {
    let src = transformed(Technique::DebugProtection);
    let diags = lint(&src);
    assert!(
        !hits(&diags, "debugger-in-loop").is_empty(),
        "constructor('debugger') probe must be flagged:\n{}",
        src
    );
}

#[test]
fn debugger_statement_in_loop_fires() {
    let src = "while (running) { debugger; step(); }";
    let diags = lint(src);
    let found = hits(&diags, "debugger-in-loop");
    assert_eq!(found.len(), 1);
    assert_eq!(&src[found[0].span.start as usize..found[0].span.end as usize], "debugger");
}

#[test]
fn self_defending_fires_on_self_defending() {
    let src = transformed(Technique::SelfDefending);
    let diags = lint(&src);
    assert!(
        !hits(&diags, "self-defending-tostring").is_empty(),
        "regex pump must be flagged:\n{}",
        src
    );
}

#[test]
fn density_fires_on_identifier_obfuscation() {
    let src = transformed(Technique::IdentifierObfuscation);
    let diags = lint(&src);
    assert!(
        !hits(&diags, "non-alphanumeric-density").is_empty(),
        "hex-renamed identifiers must be flagged:\n{}",
        src
    );
}

#[test]
fn density_fires_on_no_alphanumeric() {
    let src = transformed(Technique::NoAlphanumeric);
    let diags = lint(&src);
    assert!(!hits(&diags, "non-alphanumeric-density").is_empty(), "jsfuck charset must be flagged");
}

#[test]
fn comma_sequence_fires_on_long_chains() {
    let src = "init(), step(), step(), step(), finish();";
    let diags = lint(src);
    let found = hits(&diags, "comma-sequence-density");
    assert_eq!(found.len(), 1, "a 5-element chain must be flagged:\n{:#?}", diags);
    assert!(found[0].data.iter().any(|(k, v)| *k == "chain_len" && v == "5"));
    assert_anchored(&diags, src);
}

#[test]
fn comma_sequence_silent_on_short_chains() {
    let src = "for (var i = 0, j = 9; i < j; i++, j--) { swap(i, j); }\nlog((probe(), value));";
    let diags = lint(src);
    assert!(
        hits(&diags, "comma-sequence-density").is_empty(),
        "short idiomatic sequences must not be flagged:\n{:#?}",
        diags
    );
}

#[test]
fn comma_sequence_fires_on_advanced_minification() {
    // Enough adjacent expression statements for the minifier's
    // statement-merge to build a chain past the rule threshold.
    let plain = "setup();\nwork(1);\nwork(2);\nwork(3);\nteardown();";
    let src = apply(plain, &[Technique::MinificationAdvanced], 11).expect("preset must apply");
    let diags = lint(&src);
    assert!(
        !hits(&diags, "comma-sequence-density").is_empty(),
        "statement-merged output must contain long comma chains:\n{}",
        src
    );
}

#[test]
fn signature_rules_silent_on_generated_regular_corpus() {
    let gt = jsdetect_corpus::GroundTruth::generate(12, 7);
    for sample in &gt.regular {
        let diags = lint(&sample.src);
        let sigs: Vec<_> = diags.iter().filter(|d| d.severity == Severity::Signature).collect();
        assert!(
            sigs.is_empty(),
            "signature rules must stay silent on regular code, got {:#?} for:\n{}",
            sigs,
            sample.src
        );
    }
}

#[test]
fn minification_produces_no_signature_findings() {
    for t in [Technique::MinificationSimple, Technique::MinificationAdvanced] {
        let src = transformed(t);
        let diags = lint(&src);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Signature),
            "minification is not obfuscation; no signature findings expected for {:?}:\n{}",
            t,
            src
        );
    }
}

#[test]
fn diagnostics_are_sorted_by_span() {
    let src = transformed(Technique::DeadCodeInjection);
    let diags = lint(&src);
    for w in diags.windows(2) {
        assert!(
            (w[0].span.start, w[0].span.end) <= (w[1].span.start, w[1].span.end),
            "diagnostics must come back span-sorted"
        );
    }
}
