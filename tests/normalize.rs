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
    let (normalized, report) = normalize_program(p, &NormalizeOptions::default(), &budget());
    let normalized = normalized.unwrap_or_else(|| panic!("{}: a pass panicked", label));
    (to_source(&normalized), report.outcome)
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
        let (p, report) = normalize_program(p, &NormalizeOptions::default(), &budget());
        let p = p.unwrap_or_else(|| panic!("{}: a pass panicked", label));
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
        let (p, report) = normalize_program(parse(&obf).unwrap(), &inline_only, &budget());
        assert_eq!(
            to_minified(&p.expect("no pass panicked")),
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
            let (normalized, report) =
                normalize_program(program.clone(), &NormalizeOptions::default(), &budget());
            analyzed += 1;
            let (Some(normalized), OutcomeKind::Ok) = (normalized, report.outcome) else {
                assert_eq!(bits(&production), neutral, "{}: degraded run is neutral", label);
                continue;
            };
            let full = measure_deltas(src, &tree, &normalized, &lint);
            if report.total_rewrites() == 0 {
                zero += 1;
                assert_eq!(normalized, program, "{}: zero rewrites changed the tree", label);
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
