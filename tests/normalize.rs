//! Normalization pass-suite invariants at the workspace level.
//!
//! The crate-level unit tests pin each pass in isolation; this suite
//! pins the properties the rest of the pipeline depends on when the
//! whole suite runs over real (generated + transformed) programs:
//!
//! 1. **Round-trip**: normalized programs still satisfy the printer
//!    round-trip property (print → re-parse preserves the node-kind
//!    stream, printing is a fixed point) for every transform preset —
//!    normalization must never produce unprintable or drifting ASTs.
//! 2. **Idempotence**: `normalize(normalize(x)) == normalize(x)`. The
//!    fixpoint driver claims convergence; a second full run must find
//!    nothing left to rewrite.
//! 3. **Reversal**: the array-inline pass exactly undoes
//!    `Technique::GlobalArray` on generator corpora, not just on
//!    hand-written fixtures.

use jsdetect_suite::ast::kind_stream;
use jsdetect_suite::codegen::{to_minified, to_source};
use jsdetect_suite::corpus::RegularJsGenerator;
use jsdetect_suite::guard::{Budget, Limits, OutcomeKind};
use jsdetect_suite::normalize::{normalize_program, NormalizeOptions, PassKind};
use jsdetect_suite::parser::parse;
use jsdetect_suite::transform::{apply, Technique};

/// Deterministic budget: deadline off, deterministic fuel/round caps
/// only — the same configuration feature extraction uses under trusted
/// limits.
fn budget() -> Budget {
    Budget::new(&Limits::unbounded())
}

/// Parses, normalizes, and returns (program printed readable, report
/// outcome), panicking on parse failure.
fn normalize_src(src: &str, label: &str) -> (String, OutcomeKind) {
    let p = parse(src).unwrap_or_else(|e| panic!("{}: does not parse: {}", label, e));
    let (normalized, report) = normalize_program(p, None, &NormalizeOptions::default(), &budget());
    let normalized = normalized.unwrap_or_else(|| panic!("{}: a pass panicked", label));
    (to_source(&normalized.program), report.outcome)
}

/// The printer round-trip property from `tests/roundtrip.rs`, applied
/// to an already-normalized source.
fn assert_roundtrip(src: &str, label: &str) {
    let p1 =
        parse(src).unwrap_or_else(|e| panic!("{}: normalized output does not parse: {}", label, e));
    let stream1 = kind_stream(&p1);
    for (mode, printed) in [("readable", to_source(&p1)), ("minified", to_minified(&p1))] {
        let p2 = parse(&printed).unwrap_or_else(|e| {
            panic!("{} [{}]: printed output does not re-parse: {}\n{}", label, mode, e, printed)
        });
        assert_eq!(
            stream1,
            kind_stream(&p2),
            "{} [{}]: node-kind stream changed across print→parse",
            label,
            mode
        );
        let reprinted = match mode {
            "readable" => to_source(&p2),
            _ => to_minified(&p2),
        };
        assert_eq!(printed, reprinted, "{} [{}]: printer is not a fixed point", label, mode);
    }
}

#[test]
fn normalized_output_roundtrips_for_every_technique() {
    let mut gen = RegularJsGenerator::new(0xDECAF);
    let samples: Vec<String> = (0..3).map(|_| gen.generate()).collect();
    for t in Technique::ALL {
        for (i, src) in samples.iter().enumerate() {
            let label = format!("{} on sample {}", t.as_str(), i);
            let transformed = apply(src, &[t], 23 + i as u64)
                .unwrap_or_else(|e| panic!("{}: transform failed: {}", label, e));
            let (normalized, outcome) = normalize_src(&transformed, &label);
            assert_ne!(outcome, OutcomeKind::Rejected, "{}: normalize rejected", label);
            assert_roundtrip(&normalized, &label);
        }
    }
}

#[test]
fn normalized_output_roundtrips_for_stacked_techniques() {
    let mut gen = RegularJsGenerator::new(0x5EED);
    let samples: Vec<String> = (0..2).map(|_| gen.generate()).collect();
    let mut configs: Vec<Vec<Technique>> = Technique::ALL.windows(2).map(|w| w.to_vec()).collect();
    configs.push(Technique::ALL.to_vec());
    for (ci, techniques) in configs.iter().enumerate() {
        for (i, src) in samples.iter().enumerate() {
            let Ok(transformed) = apply(src, techniques, 31 + ci as u64) else {
                continue;
            };
            let label = format!("stack {} on sample {}", ci, i);
            let (normalized, _) = normalize_src(&transformed, &label);
            assert_roundtrip(&normalized, &label);
        }
    }
}

#[test]
fn normalization_is_idempotent_across_presets() {
    let mut gen = RegularJsGenerator::new(0x1D0);
    let samples: Vec<String> = (0..3).map(|_| gen.generate()).collect();
    // Untransformed plus every single-technique preset.
    let mut sources: Vec<(String, String)> =
        samples.iter().enumerate().map(|(i, s)| (format!("plain {}", i), s.clone())).collect();
    for t in Technique::ALL {
        for (i, src) in samples.iter().enumerate() {
            if let Ok(transformed) = apply(src, &[t], 47 + i as u64) {
                sources.push((format!("{} on sample {}", t.as_str(), i), transformed));
            }
        }
    }
    for (label, src) in &sources {
        let (once, _) = normalize_src(src, label);
        let p = parse(&once).unwrap_or_else(|e| panic!("{}: once does not parse: {}", label, e));
        let (p, report) = normalize_program(p, None, &NormalizeOptions::default(), &budget());
        let p = p.unwrap_or_else(|| panic!("{}: a pass panicked", label)).program;
        assert_eq!(
            report.total_rewrites(),
            0,
            "{}: second normalize still rewrote {} times",
            label,
            report.total_rewrites()
        );
        assert_eq!(to_source(&p), *once, "{}: normalize is not idempotent", label);
    }
}

#[test]
fn array_inline_reverses_global_array_on_generated_corpora() {
    let mut gen = RegularJsGenerator::new(0xA11A);
    let inline_only =
        NormalizeOptions { passes: vec![PassKind::ArrayInline], ..NormalizeOptions::default() };
    let mut reversed = 0;
    for i in 0..6 {
        let src = gen.generate();
        let canonical = to_minified(&parse(&src).unwrap());
        let Ok(obf) = apply(&src, &[Technique::GlobalArray], 101 + i) else {
            continue;
        };
        let (p, report) = normalize_program(parse(&obf).unwrap(), None, &inline_only, &budget());
        assert_eq!(
            to_minified(&p.expect("no pass panicked").program),
            canonical,
            "sample {}: array-inline did not reverse the transform",
            i
        );
        if report.total_rewrites() > 0 {
            reversed += 1;
        }
    }
    assert!(reversed >= 3, "transform only took effect on {} of 6 samples", reversed);
}

/// The zero-rewrite short-cut in `normalize_deltas` must be exact: for
/// every script the normalizer leaves untouched, the full re-analysis of
/// the (unchanged) tree equals `neutral_deltas()` bit for bit. Also pins
/// that the production path agrees with the full measurement on every
/// rewritten script, and prints the zero-rewrite share per corpus.
#[test]
fn zero_rewrite_shortcut_is_bit_identical_to_full_measurement() {
    use jsdetect_suite::corpus::{chaos_corpus, module_corpus, regular_corpus};
    use jsdetect_suite::features::{analyze, measure_deltas, neutral_deltas, TreeStats};
    use jsdetect_suite::transform::presets::Tool;

    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let neutral = bits(&neutral_deltas());
    let regular = regular_corpus(24, 0x2E70);
    let mut corpora: Vec<(&str, Vec<String>)> = vec![("regular", regular.clone())];
    corpora.push((
        "techniques",
        Technique::ALL
            .iter()
            .enumerate()
            .flat_map(|(t, &tech)| {
                regular[..4]
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, src)| apply(src, &[tech], (t * 4 + i) as u64).ok())
            })
            .collect(),
    ));
    corpora.push((
        "tools",
        Tool::ALL
            .iter()
            .enumerate()
            .flat_map(|(t, &tool)| {
                regular[4..6]
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, src)| tool.apply(src, (t * 2 + i) as u64).ok())
            })
            .collect(),
    ));
    corpora.push(("modules", module_corpus(24, 0x2E70)));
    corpora.push(("chaos", chaos_corpus().into_iter().map(|c| c.src).collect()));

    for (name, sources) in &corpora {
        let (mut analyzed, mut zero) = (0usize, 0usize);
        for (i, src) in sources.iter().enumerate() {
            let label = format!("{} #{}", name, i);
            let result = analyze(src, &Limits::wild());
            if result.outcome != OutcomeKind::Ok {
                // Only chaos cases may fail the guarded front end.
                assert_eq!(*name, "chaos", "{}: {:?}", label, result.error);
                continue;
            }
            let production = result.payload.expect("Ok carries a payload").normalize;
            // The original-side inputs of the measurement, computed as the
            // front end computes them.
            let program = parse(src).expect("an Ok script parses");
            let tree = TreeStats::of(&program);
            let graph = jsdetect_suite::flow::analyze(&program);
            let lint = jsdetect_suite::lint::lint(src, &program, &graph).1;
            let (normalized, report) = normalize_program(
                program.clone(),
                Some(&graph.scopes),
                &NormalizeOptions::default(),
                &budget(),
            );
            analyzed += 1;
            let (Some(normalized), OutcomeKind::Ok) = (normalized, report.outcome) else {
                assert_eq!(bits(&production), neutral, "{}: degraded run is neutral", label);
                continue;
            };
            let full = measure_deltas(
                src,
                &tree,
                &normalized.program,
                normalized.scopes,
                &lint,
                &budget(),
            );
            if report.total_rewrites() == 0 {
                zero += 1;
                assert_eq!(
                    normalized.program, program,
                    "{}: zero rewrites changed the tree",
                    label
                );
                assert_eq!(bits(&full), neutral, "{}: full measurement is not neutral", label);
            }
            assert_eq!(bits(&production), bits(&full), "{}: short-cut differs", label);
        }
        assert!(analyzed > 0, "{}: nothing analyzed", name);
        eprintln!(
            "{:<10} zero-rewrite share {:>3}/{:<3} ({:.0}%)",
            name,
            zero,
            analyzed,
            100.0 * zero as f64 / analyzed as f64
        );
    }
}

/// `examples/corpus`, the `payload_digest` corpora (the chaos corpus among
/// them), each in a fixed order.
fn skip_contract_corpora() -> Vec<(String, Vec<String>)> {
    use jsdetect_suite::corpus::{chaos_corpus, module_corpus, regular_corpus, GroundTruth};
    use jsdetect_suite::transform::presets::Tool;

    const SEED: u64 = 0x9A71;
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(examples)
        .expect("examples/corpus is readable")
        .map(|e| e.expect("a directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "js"))
        .collect();
    paths.sort();
    let examples = paths.iter().map(|p| std::fs::read_to_string(p).unwrap()).collect();
    let truth = GroundTruth::generate(6, SEED);
    let regular = regular_corpus(16, SEED);
    let tools = Tool::ALL
        .iter()
        .enumerate()
        .flat_map(|(t, &tool)| {
            regular[..3]
                .iter()
                .enumerate()
                .filter_map(move |(i, src)| tool.apply(src, SEED ^ (t * 3 + i) as u64).ok())
        })
        .collect();
    vec![
        ("examples".to_string(), examples),
        (
            "technique pools".to_string(),
            truth.pools.iter().flatten().map(|s| s.src.clone()).collect(),
        ),
        ("tools".to_string(), tools),
        ("regular".to_string(), regular),
        ("modules".to_string(), module_corpus(12, SEED)),
        ("chaos".to_string(), chaos_corpus().into_iter().map(|c| c.src).collect()),
    ]
}

/// The fixpoint driver skips a pass that ran with no rewrite until some
/// pass rewrites the tree again. That is exact only if a pass that finds
/// nothing on a tree finds nothing on it a second time and leaves it
/// as it was: for each pass alone, a second run over its fixpoint output
/// must report no rewrite and print the same program. Trees are compared
/// printed, since a folded `NaN` literal is not equal to itself.
#[test]
fn a_pass_that_finds_nothing_finds_nothing_again() {
    let mut checked = 0;
    for (name, sources) in skip_contract_corpora() {
        for (i, src) in sources.iter().enumerate() {
            let Ok(program) = parse(src) else { continue };
            for pass in PassKind::ALL {
                let label = format!("{} #{} under {}", name, i, pass.as_str());
                let opts = NormalizeOptions { passes: vec![pass], ..NormalizeOptions::default() };
                let (once, report) = normalize_program(program.clone(), None, &opts, &budget());
                assert_eq!(report.outcome, OutcomeKind::Ok, "{}: {:?}", label, report.error);
                assert!(report.rounds < opts.max_rounds, "{}: no fixpoint in the round cap", label);
                let once = once.expect("no pass panicked").program;
                let printed = to_minified(&once);
                let (twice, report) = normalize_program(once, None, &opts, &budget());
                assert_eq!(report.total_rewrites(), 0, "{}: the second run rewrote", label);
                assert_eq!(report.rounds, 1, "{}", label);
                let twice = twice.expect("no pass panicked").program;
                assert_eq!(
                    to_minified(&twice),
                    printed,
                    "{}: the second run moved the tree",
                    label
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 600, "only {} pass runs checked", checked);
}

/// Normalizes `src` with the input's scope tree passed in, as the
/// analysis front end does, and prints the result minified.
fn normalize_seeded(src: &str) -> (String, jsdetect_suite::normalize::NormalizeReport) {
    let program = parse(src).unwrap();
    let scopes = jsdetect_suite::flow::analyze_scopes(&program);
    let (normalized, report) =
        normalize_program(program, Some(&scopes), &NormalizeOptions::default(), &budget());
    (to_minified(&normalized.expect("no pass panicked").program), report)
}

/// The seeded scope tree is the input's: once dead-branch deletes the
/// second write of `a`, propagation must see a tree built after that
/// rewrite, or `a` still counts two writes and stays unpropagated.
#[test]
fn a_rewrite_invalidates_the_seeded_scope_tree() {
    let (out, report) = normalize_seeded("var a = 1; if (false) { a = 2; } f(a);");
    assert_eq!(out, "var a=1;f(1);");
    assert_eq!(report.outcome, OutcomeKind::Ok);

    let (out, report) = normalize_seeded("var a = 1 + 2; f(a);");
    assert_eq!(out, "var a=3;f(3);");
    assert_eq!(report.rounds, 3);
    assert_eq!(report.total_rewrites(), 2);
}

/// A run that rewrites nothing uses the seeded tree and builds none: it
/// hands back the seed itself. Without a seed the same run builds one.
#[test]
fn a_script_with_nothing_to_rewrite_builds_no_scope_tree() {
    use std::borrow::Cow;

    // `k` has a literal initializer, so propagation needs the scope tree,
    // and a second write, so it propagates nothing.
    let src = "var k = 1; k = g(); f(k);";
    let program = parse(src).unwrap();
    let seed = jsdetect_suite::flow::analyze_scopes(&program);
    let opts = NormalizeOptions::default();
    let (normalized, report) = normalize_program(program.clone(), Some(&seed), &opts, &budget());
    assert_eq!(report.total_rewrites(), 0);
    let scopes = normalized.expect("no pass panicked").scopes;
    assert!(matches!(scopes, Some(Cow::Borrowed(s)) if std::ptr::eq(s, &seed)), "{:?}", scopes);

    let (normalized, _) = normalize_program(program, None, &opts, &budget());
    assert!(matches!(normalized.expect("no pass panicked").scopes, Some(Cow::Owned(_))));
}
