//! The ISSUE-4 acceptance gate: the entire chaos corpus must run through
//! the hardened batch pipeline without crashing the process or overflowing
//! the stack, every file landing in exactly one of {ok, degraded,
//! rejected}, with per-error-kind counters visible in telemetry.

use jsdetect_suite::corpus::chaos_corpus;
use jsdetect_suite::detector::{analyze_many, AnalysisConfig};
use jsdetect_suite::features::analyze;
use jsdetect_suite::guard::{OutcomeKind, QuarantineReport};
use jsdetect_suite::obs;
use std::sync::Mutex;

/// The telemetry registry is process-global; tests that enable/reset it
/// must not interleave (same discipline as tests/telemetry.rs).
static TEST_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn chaos_corpus_survives_guarded_batch_analysis() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = chaos_corpus();
    assert!(corpus.len() >= 25);
    let refs: Vec<&str> = corpus.iter().map(|c| c.src.as_str()).collect();

    obs::set_enabled(true);
    obs::reset();
    let config = AnalysisConfig::wild();
    let results = analyze_many(&refs, &config, None);
    let snap = obs::snapshot();
    obs::set_enabled(false);

    assert_eq!(results.len(), corpus.len());
    let mut quarantine = QuarantineReport::new();
    for (case, batch) in corpus.iter().zip(&results) {
        quarantine.push_replayed(case.name, batch.outcome, &batch.error_kind, &batch.error_msg);
        // The batch carries the error as rendered text; the same script
        // analyzed on its own gives the structured error behind it.
        let r = analyze(&case.src, &config.limits);
        assert_eq!(r.outcome, batch.outcome, "case {}", case.name);
        assert_eq!(r.payload, batch.payload, "case {}", case.name);
        assert_eq!(r.error.as_ref().map_or("", |e| e.kind()), batch.error_kind);
        match r.outcome {
            OutcomeKind::Ok => {
                let p = r
                    .payload
                    .as_ref()
                    .unwrap_or_else(|| panic!("case {} is ok but carries no payload", case.name));
                assert!(!p.degraded, "case {} is ok but flagged degraded", case.name);
                assert!(r.error.is_none());
            }
            OutcomeKind::Degraded => {
                let p = r.payload.as_ref().unwrap_or_else(|| {
                    panic!("case {} degraded but carries no fallback", case.name)
                });
                assert!(p.degraded, "case {} degraded without the degraded bit", case.name);
                assert!(r.error.is_some());
            }
            OutcomeKind::Rejected => {
                assert!(r.payload.is_none(), "case {} rejected but carries a payload", case.name);
                let e = r.error.as_ref().expect("rejected cases carry their error");
                assert!(
                    e.is_resource(),
                    "case {} rejected by non-resource error {:?}",
                    case.name,
                    e
                );
            }
        }
    }

    // Spot-check the verdicts that pin the sandbox's semantics.
    let outcome = |name: &str| {
        quarantine
            .records()
            .iter()
            .find(|r| r.file == name)
            .unwrap_or_else(|| panic!("no record for {}", name))
    };
    assert_eq!(outcome("paren_bomb_50k").outcome, OutcomeKind::Rejected);
    assert_eq!(outcome("paren_bomb_50k").error_kind.as_deref(), Some("ast_depth_exceeded"));
    assert_eq!(outcome("new_bomb").outcome, OutcomeKind::Rejected);
    assert_eq!(outcome("binding_pattern_bomb").outcome, OutcomeKind::Rejected);
    // A giant but legitimate one-liner must pass untouched…
    assert_eq!(outcome("eight_mb_one_liner").outcome, OutcomeKind::Ok);
    // …while the over-cap input is rejected before any work.
    assert_eq!(outcome("twelve_mb_input").outcome, OutcomeKind::Rejected);
    assert_eq!(outcome("twelve_mb_input").error_kind.as_deref(), Some("input_too_large"));
    assert_eq!(outcome("token_flood").outcome, OutcomeKind::Rejected);
    assert_eq!(outcome("token_flood").error_kind.as_deref(), Some("token_budget_exceeded"));
    // Syntax-level failures degrade (the lexer-only fallback still counts).
    assert_eq!(outcome("unterminated_string").outcome, OutcomeKind::Degraded);
    assert_eq!(outcome("truncated_unicode_escape").outcome, OutcomeKind::Degraded);
    // Benign edge cases stay fully ok.
    for name in ["empty_file", "whitespace_only", "deep_but_legal_nesting", "hex_identifier_soup"] {
        assert_eq!(outcome(name).outcome, OutcomeKind::Ok, "case {}", name);
    }
    // Module-flavored chaos: flat floods are legal module syntax and must
    // analyze cleanly; the recursive dynamic-import bomb hits the depth
    // guard; the truncated clause degrades like any other syntax error.
    for name in ["import_specifier_flood", "export_star_chain", "private_member_flood"] {
        assert_eq!(outcome(name).outcome, OutcomeKind::Ok, "case {}", name);
    }
    assert_eq!(outcome("dynamic_import_bomb").outcome, OutcomeKind::Rejected);
    assert_eq!(outcome("dynamic_import_bomb").error_kind.as_deref(), Some("ast_depth_exceeded"));
    assert_eq!(outcome("truncated_import_clause").outcome, OutcomeKind::Degraded);

    // Per-error-kind counters are visible in telemetry, one bump per
    // non-ok file.
    let (n_ok, n_degraded, n_rejected) = quarantine.counts();
    assert_eq!(n_ok + n_degraded + n_rejected, corpus.len());
    assert!(n_rejected >= 5, "expected several rejects, got {}", n_rejected);
    assert!(n_degraded >= 5, "expected several degrades, got {}", n_degraded);
    let mut counter_total = 0;
    for (kind, n) in quarantine.error_kind_counts() {
        let counter = match kind.as_str() {
            "input_too_large" => "guard/input_too_large",
            "token_budget_exceeded" => "guard/token_budget_exceeded",
            "ast_depth_exceeded" => "guard/ast_depth_exceeded",
            "ast_node_budget_exceeded" => "guard/ast_node_budget_exceeded",
            "cfg_edge_budget_exceeded" => "guard/cfg_edge_budget_exceeded",
            "deadline_exceeded" => "guard/deadline_exceeded",
            "stage_panicked" => "guard/stage_panicked",
            "parse_error" => "guard/parse_error",
            "lex_error" => "guard/lex_error",
            "io_error" => "guard/io_error",
            other => panic!("outcome outside the taxonomy: {}", other),
        };
        assert_eq!(snap.counter(counter), n, "telemetry counter {} mismatch", counter);
        counter_total += n;
    }
    assert_eq!(counter_total as usize, n_degraded + n_rejected);
    // The outcome-level aggregates mirror the per-kind counters: these are
    // what the CI syntax-coverage gate reads as a rate.
    assert_eq!(snap.counter("guard/degraded") as usize, n_degraded);
    assert_eq!(snap.counter("guard/rejected") as usize, n_rejected);

    // The quarantine JSONL export covers every file with a valid outcome.
    let jsonl = quarantine.to_jsonl();
    assert_eq!(jsonl.lines().count(), corpus.len());
    for line in jsonl.lines() {
        assert!(
            line.contains("\"outcome\":\"ok\"")
                || line.contains("\"outcome\":\"degraded\"")
                || line.contains("\"outcome\":\"rejected\""),
            "outcome outside the three-way verdict: {}",
            line
        );
    }
}

#[test]
fn chaos_corpus_under_trusted_limits_only_guards_depth() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Under trusted limits the megabyte and token-flood cases all pass;
    // only the stack-overflow depth guard may reject.
    let corpus = chaos_corpus();
    let by_name = |name: &str| {
        corpus
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("missing case {}", name))
            .src
            .as_str()
    };
    let picks = [by_name("twelve_mb_input"), by_name("token_flood"), by_name("paren_bomb_50k")];
    let results = analyze_many(&picks, &AnalysisConfig::trusted(), None);
    // twelve_mb_input and token_flood are syntactically fine: ok now.
    assert_eq!(results[0].outcome, OutcomeKind::Ok);
    assert_eq!(results[1].outcome, OutcomeKind::Ok);
    // The depth bomb still rejects — that guard never turns off in presets.
    assert_eq!(results[2].outcome, OutcomeKind::Rejected);
}
