//! `jsdetect-cli` — train, persist, and apply the detectors from the
//! command line.
//!
//! ```sh
//! # Train on a synthetic ground-truth corpus and save the model:
//! jsdetect-cli train --n 240 --seed 42 --model model.json
//!
//! # Classify JavaScript files (level 1 + level 2):
//! jsdetect-cli classify --model model.json a.js b.js
//!
//! # Transform a file (ground-truth tooling):
//! jsdetect-cli transform --technique identifier_obfuscation a.js
//!
//! # Explain which obfuscation signatures a file exhibits:
//! jsdetect-cli lint a.js
//! jsdetect-cli lint --emit-diagnostics json a.js
//!
//! # Run the analysis front-end with telemetry (spans, counters, histograms):
//! jsdetect-cli analyze --telemetry summary examples/
//! jsdetect-cli analyze --telemetry jsonl --telemetry-out telemetry.jsonl a.js
//!
//! # Export a Perfetto-loadable Chrome trace and summarize hot spans:
//! jsdetect-cli analyze --trace-out trace.json examples/
//! jsdetect-cli trace trace.json --top 10
//!
//! # Incremental rescans: verdicts for unchanged bytes replay from a
//! # content-addressed cache instead of re-running the front-end:
//! jsdetect-cli analyze --cache-dir .jsdetect-cache examples/
//! jsdetect-cli cache stats --cache-dir .jsdetect-cache
//! ```

use jsdetect_suite::detector::{
    classify_many_cached, train_pipeline, AnalysisConfig, DetectorConfig, Technique,
    TrainedDetectors, DEFAULT_THRESHOLD,
};

fn usage() -> ! {
    eprintln!(
        "usage:\n  jsdetect-cli train --model <out.json> [--n 240] [--seed 42]\n  \
         jsdetect-cli classify --model <model.json> <file.js>...\n  \
         jsdetect-cli transform --technique <name> [--seed 42] <file.js>\n  \
         jsdetect-cli lint [--emit-diagnostics json] <file.js>...\n  \
         jsdetect-cli analyze [--telemetry summary|jsonl|prometheus] [--telemetry-out <file>] \
         [--trace-out <trace.json>] \
         [--limits wild|trusted|interactive] [--keep-going|--fail-fast] \
         [--quarantine-out <file>] [--strict] \
         [--cache-dir <dir>] [--cache-readonly] <file.js|dir>...\n  \
         jsdetect-cli trace [--top 20] <trace.json>\n  \
         jsdetect-cli cache stats|verify|gc --cache-dir <dir>\n  \
         jsdetect-cli normalize [--passes <p1,p2,...>] [--emit] \
         [--limits wild|trusted|interactive] [--max-rounds 8] <file.js|dir>...\n  \
         jsdetect-cli chaos-corpus --out <dir>\n  \
         jsdetect-cli module-corpus --out <dir> [--n 60] [--seed 42]\n\n\
         techniques: {}\n\
         normalize passes: {}",
        Technique::ALL.iter().map(|t| t.as_str()).collect::<Vec<_>>().join(", "),
        jsdetect_suite::normalize::PassKind::ALL
            .iter()
            .map(|p| p.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn arg_value(argv: &[String], flag: &str) -> Option<String> {
    argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1).cloned())
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    match argv.get(1).map(String::as_str) {
        Some("train") => cmd_train(&argv),
        Some("classify") => cmd_classify(&argv),
        Some("transform") => cmd_transform(&argv),
        Some("lint") => cmd_lint(&argv),
        Some("analyze") => cmd_analyze(&argv),
        Some("trace") => cmd_trace(&argv),
        Some("cache") => cmd_cache(&argv),
        Some("normalize") => cmd_normalize(&argv),
        Some("chaos-corpus") => cmd_chaos_corpus(&argv),
        Some("module-corpus") => cmd_module_corpus(&argv),
        _ => usage(),
    }
}

/// Inspects or repairs a content-addressed analysis cache directory
/// (`cache stats|verify|gc --cache-dir <dir>`). `verify` exits non-zero
/// when any record is corrupt; `gc` removes corrupt records, records from
/// other schema / feature-space versions, and interrupted-writer tmp
/// files.
fn cmd_cache(argv: &[String]) {
    use jsdetect_suite::cache;

    let action = argv.get(2).map(String::as_str).unwrap_or_else(|| usage());
    let dir = arg_value(argv, "--cache-dir").unwrap_or_else(|| usage());
    let path = std::path::Path::new(&dir);

    fn emit<T: serde::Serialize>(report: &T) {
        match serde_json::to_string_pretty(report) {
            Ok(s) => println!("{}", s),
            Err(e) => {
                eprintln!("cannot serialize report: {}", e);
                std::process::exit(1);
            }
        }
    }

    match action {
        "stats" => match cache::stats(path) {
            Ok(s) => emit(&s),
            Err(e) => {
                eprintln!("cache stats failed on {}: {}", dir, e);
                std::process::exit(1);
            }
        },
        "verify" => match cache::verify(path) {
            Ok(r) => {
                emit(&r);
                if !r.is_clean() {
                    eprintln!("cache verify: {} corrupt record(s) under {}", r.corrupt.len(), dir);
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("cache verify failed on {}: {}", dir, e);
                std::process::exit(1);
            }
        },
        "gc" => match cache::gc(path, jsdetect_suite::features::FEATURE_SPACE_VERSION) {
            Ok(r) => emit(&r),
            Err(e) => {
                eprintln!("cache gc failed on {}: {}", dir, e);
                std::process::exit(1);
            }
        },
        other => {
            eprintln!("unknown cache action: {} (expected stats, verify, or gc)", other);
            usage()
        }
    }
}

/// Materializes the deterministic chaos corpus (pathological inputs the
/// hardened sandbox must survive) into a directory, for CI and manual
/// stress runs.
fn cmd_chaos_corpus(argv: &[String]) {
    let dir = arg_value(argv, "--out").unwrap_or_else(|| usage());
    match jsdetect_suite::corpus::write_chaos_corpus(std::path::Path::new(&dir)) {
        Ok(paths) => eprintln!("wrote {} chaos cases to {}", paths.len(), dir),
        Err(e) => {
            eprintln!("{}", e);
            std::process::exit(1);
        }
    }
}

/// Materializes the deterministic module-flavoured wild population
/// (ES-module bundles: import/export declarations, dynamic `import()`,
/// `import.meta`, BigInt literals, private class members; some minified)
/// into a directory. CI scans it and gates the `guard/degraded` telemetry
/// counter at zero — a degraded module script means lost syntax coverage.
fn cmd_module_corpus(argv: &[String]) {
    let dir = arg_value(argv, "--out").unwrap_or_else(|| usage());
    let n: usize = arg_value(argv, "--n").and_then(|v| v.parse().ok()).unwrap_or(60);
    let seed: u64 = arg_value(argv, "--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let path = std::path::Path::new(&dir);
    if let Err(e) = std::fs::create_dir_all(path) {
        eprintln!("cannot create {}: {}", dir, e);
        std::process::exit(1);
    }
    let pop = jsdetect_suite::corpus::module_population(n, seed);
    for (i, script) in pop.iter().enumerate() {
        let file = path.join(format!("module_{:03}.js", i));
        if let Err(e) = std::fs::write(&file, &script.src) {
            eprintln!("cannot write {}: {}", file.display(), e);
            std::process::exit(1);
        }
    }
    eprintln!("wrote {} module scripts to {}", pop.len(), dir);
}

fn cmd_train(argv: &[String]) {
    let model_path = arg_value(argv, "--model").unwrap_or_else(|| usage());
    let n: usize = arg_value(argv, "--n").and_then(|v| v.parse().ok()).unwrap_or(240);
    let seed: u64 = arg_value(argv, "--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    eprintln!("training on {} synthetic source scripts (seed {})...", n, seed);
    let t0 = std::time::Instant::now();
    let out = train_pipeline(n, seed, &DetectorConfig::default().with_seed(seed));
    eprintln!("trained in {:.1?}", t0.elapsed());
    let json = match out.detectors.to_json() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot serialize model: {}", e);
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(&model_path, json) {
        eprintln!("cannot write {}: {}", model_path, e);
        std::process::exit(1);
    }
    eprintln!("model saved to {}", model_path);
}

fn load_model(argv: &[String]) -> TrainedDetectors {
    let model_path = arg_value(argv, "--model").unwrap_or_else(|| usage());
    let json = std::fs::read_to_string(&model_path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {}", model_path, e);
        std::process::exit(1);
    });
    TrainedDetectors::from_json(&json).unwrap_or_else(|e| {
        eprintln!("invalid model {}: {}", model_path, e);
        std::process::exit(1);
    })
}

fn cmd_classify(argv: &[String]) {
    use jsdetect_suite::guard::OutcomeKind;

    let detectors = load_model(argv);
    let files: Vec<&String> = argv
        .iter()
        .skip(2)
        .filter(|a| !a.starts_with("--"))
        .filter(|a| {
            // Skip the value of --model.
            arg_value(argv, "--model").as_deref() != Some(a.as_str())
        })
        .collect();
    if files.is_empty() {
        usage();
    }
    // Classification goes through the same guarded batch entry the
    // jsdetect-serve daemon uses per request, so a CLI verdict and a
    // daemon verdict for the same bytes cannot drift.
    let mut batch: Vec<(&String, String)> = Vec::new();
    for path in files {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                println!("{}: unreadable ({})", path, e);
                continue;
            }
        };
        if src.len() < 512 {
            // The paper only analyzes files ≥ 512 bytes: smaller scripts
            // carry too few features to classify reliably.
            println!("{}: too small to classify reliably ({} bytes < 512)", path, src.len());
            continue;
        }
        batch.push((path, src));
    }
    let srcs: Vec<&str> = batch.iter().map(|(_, s)| s.as_str()).collect();
    let verdicts = classify_many_cached(
        &srcs,
        &AnalysisConfig::default(),
        None,
        &detectors,
        4,
        DEFAULT_THRESHOLD,
    );
    for ((path, _), verdict) in batch.iter().zip(&verdicts) {
        // A rejection carries no verdict; its kind says why (a depth or
        // size limit rejects valid JavaScript too).
        let Some(v) = &verdict.level1 else {
            println!("{}: rejected ({}: {})", path, verdict.error_kind, verdict.error_msg);
            continue;
        };
        // A degraded verdict comes from the lexical fallback; say which
        // failure put it there.
        let degraded = match verdict.outcome {
            OutcomeKind::Degraded => format!(" [degraded: {}]", verdict.error_kind),
            _ => String::new(),
        };
        if verdict.is_transformed() {
            println!(
                "{}: TRANSFORMED (minified {:.2}, obfuscated {:.2}) — {}{}",
                path,
                v.minified,
                v.obfuscated,
                verdict.techniques.iter().map(|t| t.as_str()).collect::<Vec<_>>().join(", "),
                degraded
            );
        } else {
            println!("{}: regular (confidence {:.2}){}", path, v.regular, degraded);
        }
    }
}

/// One diagnostic flattened into owned, serializable fields.
#[derive(serde::Serialize)]
struct DiagnosticRow {
    file: String,
    rule: String,
    severity: String,
    line: u32,
    col: u32,
    start: u32,
    end: u32,
    message: String,
    data: Vec<String>,
}

fn cmd_lint(argv: &[String]) {
    let emit = arg_value(argv, "--emit-diagnostics");
    let json = match emit.as_deref() {
        Some("json") => true,
        None => false,
        Some(other) => {
            eprintln!("unsupported --emit-diagnostics format: {}", other);
            usage()
        }
    };
    let files: Vec<&String> = argv
        .iter()
        .skip(2)
        .filter(|a| !a.starts_with("--"))
        .filter(|a| emit.as_deref() != Some(a.as_str()))
        .collect();
    if files.is_empty() {
        usage();
    }
    let mut rows: Vec<DiagnosticRow> = Vec::new();
    let mut had_error = false;
    for path in files {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{}: unreadable ({})", path, e);
                had_error = true;
                continue;
            }
        };
        let program = match jsdetect_suite::parser::parse(&src) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{}: not valid JavaScript ({})", path, e);
                had_error = true;
                continue;
            }
        };
        let graph = jsdetect_suite::flow::analyze(&program);
        for d in jsdetect_suite::lint::lint(&src, &program, &graph).0 {
            let (line, col) = jsdetect_suite::ast::line_col(&src, d.span.start);
            if json {
                rows.push(DiagnosticRow {
                    file: path.to_string(),
                    rule: d.rule.to_string(),
                    severity: d.severity.as_str().to_string(),
                    line,
                    col,
                    start: d.span.start,
                    end: d.span.end,
                    message: d.message,
                    data: d.data.iter().map(|(k, v)| format!("{}={}", k, v)).collect(),
                });
            } else {
                let extra = if d.data.is_empty() {
                    String::new()
                } else {
                    format!(
                        " ({})",
                        d.data
                            .iter()
                            .map(|(k, v)| format!("{}={}", k, v))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                println!(
                    "{}:{}:{}: {} [{}] {}{}",
                    path,
                    line,
                    col,
                    d.severity.as_str(),
                    d.rule,
                    d.message,
                    extra
                );
            }
        }
    }
    if json {
        match serde_json::to_string_pretty(&rows) {
            Ok(s) => println!("{}", s),
            Err(e) => {
                eprintln!("cannot serialize diagnostics: {}", e);
                std::process::exit(1);
            }
        }
    }
    if had_error {
        std::process::exit(1);
    }
}

/// Collects `.js` files from file and directory arguments (directories are
/// walked recursively, entries visited in sorted order for determinism).
fn collect_js_files(paths: &[&String]) -> Vec<std::path::PathBuf> {
    fn walk(path: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        if path.is_dir() {
            let mut entries: Vec<_> = match std::fs::read_dir(path) {
                Ok(rd) => rd.filter_map(Result::ok).map(|e| e.path()).collect(),
                Err(e) => {
                    eprintln!("cannot read directory {}: {}", path.display(), e);
                    return;
                }
            };
            entries.sort();
            for entry in entries {
                walk(&entry, out);
            }
        } else if path.extension().is_some_and(|e| e == "js") {
            out.push(path.to_path_buf());
        }
    }
    let mut out = Vec::new();
    for p in paths {
        let path = std::path::Path::new(p.as_str());
        if !path.exists() {
            eprintln!("no such file or directory: {}", p);
            std::process::exit(2);
        }
        if path.is_file() {
            // Explicitly named files are analyzed regardless of extension.
            out.push(path.to_path_buf());
        } else {
            walk(path, &mut out);
        }
    }
    out
}

/// Runs the hardened per-script analysis front-end over the given files,
/// prints a per-file outcome summary (ok/degraded/rejected), and reports
/// the collected telemetry.
///
/// `--keep-going` (default) quarantines failures and continues;
/// `--fail-fast` exits non-zero at the first non-ok outcome. `--strict`
/// exits non-zero only when *rejects* occur (resource exhaustion, panics,
/// unreadable files) — degraded parse failures are tolerated.
///
/// With `--cache-dir`, verdicts are replayed from (and published to) a
/// content-addressed cache keyed by source bytes × feature-space version ×
/// limits preset; `--cache-readonly` consults the store without writing.
fn cmd_analyze(argv: &[String]) {
    use jsdetect_suite::cache::{AnalysisCache, CacheConfig};
    use jsdetect_suite::detector::{analyze_many, AnalysisConfig};
    use jsdetect_suite::guard::{AnalysisError, Limits, OutcomeKind, QuarantineReport};

    let format = arg_value(argv, "--telemetry").unwrap_or_else(|| "summary".to_string());
    if format != "summary" && format != "jsonl" && format != "prometheus" {
        eprintln!(
            "unsupported --telemetry format: {} (expected summary, jsonl, or prometheus)",
            format
        );
        usage();
    }
    let out_path = arg_value(argv, "--telemetry-out");
    let trace_out = arg_value(argv, "--trace-out");
    let quarantine_out = arg_value(argv, "--quarantine-out");
    let strict = argv.iter().any(|a| a == "--strict");
    let fail_fast = argv.iter().any(|a| a == "--fail-fast");
    if fail_fast && argv.iter().any(|a| a == "--keep-going") {
        eprintln!("--fail-fast and --keep-going are mutually exclusive");
        usage();
    }
    let limits_name = arg_value(argv, "--limits").unwrap_or_else(|| "wild".to_string());
    let limits = Limits::from_name(&limits_name).unwrap_or_else(|| {
        eprintln!(
            "unknown --limits preset: {} (expected wild, trusted, or interactive)",
            limits_name
        );
        usage()
    });
    let cache_dir = arg_value(argv, "--cache-dir");
    let cache_readonly = argv.iter().any(|a| a == "--cache-readonly");
    let flag_values = [
        arg_value(argv, "--telemetry"),
        out_path.clone(),
        trace_out.clone(),
        quarantine_out.clone(),
        arg_value(argv, "--limits"),
        cache_dir.clone(),
    ];
    let inputs: Vec<&String> = argv
        .iter()
        .skip(2)
        .filter(|a| !a.starts_with("--"))
        .filter(|a| !flag_values.iter().any(|v| v.as_deref() == Some(a.as_str())))
        .collect();
    if inputs.is_empty() {
        usage();
    }
    let files = collect_js_files(&inputs);
    if files.is_empty() {
        eprintln!("no .js files found under the given paths");
        std::process::exit(2);
    }

    jsdetect_suite::obs::set_enabled(true);

    // Read as bytes so unreadable or non-UTF8 files become quarantined
    // `Io` records instead of aborting the whole batch.
    let mut sources: Vec<Result<String, AnalysisError>> = Vec::with_capacity(files.len());
    for f in &files {
        let read = match std::fs::read(f) {
            Ok(bytes) => String::from_utf8(bytes).map_err(|e| AnalysisError::Io {
                path: f.display().to_string(),
                msg: format!("not valid UTF-8: {}", e.utf8_error()),
            }),
            Err(e) => Err(AnalysisError::Io { path: f.display().to_string(), msg: e.to_string() }),
        };
        sources.push(read);
    }

    let refs: Vec<&str> =
        sources.iter().filter_map(|s| s.as_ref().ok()).map(String::as_str).collect();
    let config = AnalysisConfig { limits };
    let cache = cache_dir.as_ref().map(|dir| {
        let mut ccfg = CacheConfig::new(dir, &config.limits);
        ccfg.readonly = cache_readonly;
        AnalysisCache::open(ccfg).unwrap_or_else(|e| {
            eprintln!("cannot open cache directory {}: {}", dir, e);
            std::process::exit(1);
        })
    });
    let results = analyze_many(&refs, &config, cache.as_ref());
    if let Some(dir) = &cache_dir {
        let n_replayed = results.iter().filter(|r| r.from_cache).count();
        eprintln!("cache: {} of {} verdicts replayed from {}", n_replayed, results.len(), dir);
    }

    // Reassemble per-file outcomes in input order (read failures never
    // reached the batch).
    let mut quarantine = QuarantineReport::new();
    let mut results_iter = results.into_iter();
    for (f, src) in files.iter().zip(&sources) {
        match src {
            Err(e) => {
                jsdetect_suite::obs::counter_add(e.counter_name(), 1);
                quarantine.push(f.display().to_string(), OutcomeKind::Rejected, Some(e));
            }
            Ok(_) => {
                let r = results_iter.next().expect("one result per readable file");
                quarantine.push_replayed(
                    f.display().to_string(),
                    r.outcome,
                    &r.error_kind,
                    &r.error_msg,
                );
            }
        }
    }
    for r in quarantine.records() {
        if r.outcome != OutcomeKind::Ok {
            let detail = r.error.as_deref().unwrap_or("unknown error");
            eprintln!("{}: {} ({})", r.file, r.outcome.as_str(), detail);
        }
    }
    let (n_ok, n_degraded, n_rejected) = quarantine.counts();
    eprintln!(
        "analyzed {} scripts: {} ok, {} degraded, {} rejected",
        files.len(),
        n_ok,
        n_degraded,
        n_rejected
    );

    if let Some(p) = quarantine_out {
        if let Err(e) = std::fs::write(&p, quarantine.to_jsonl()) {
            eprintln!("cannot write {}: {}", p, e);
            std::process::exit(1);
        }
        eprintln!("quarantine report written to {}", p);
    }

    let snap = jsdetect_suite::obs::snapshot();
    if let Some(p) = &trace_out {
        if let Err(e) = std::fs::write(p, jsdetect_suite::obs::render_chrome_trace(&snap)) {
            eprintln!("cannot write {}: {}", p, e);
            std::process::exit(1);
        }
        eprintln!(
            "trace written to {} ({} events; load in Perfetto or chrome://tracing)",
            p,
            snap.events.len()
        );
    }
    let report = match format.as_str() {
        "jsonl" => jsdetect_suite::obs::to_jsonl(&snap),
        "prometheus" => jsdetect_suite::obs::render_prometheus(&snap),
        _ => jsdetect_suite::obs::render_summary(&snap),
    };
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, report) {
                eprintln!("cannot write {}: {}", p, e);
                std::process::exit(1);
            }
            eprintln!("telemetry written to {}", p);
        }
        None => print!("{}", report),
    }

    if fail_fast && (n_degraded > 0 || n_rejected > 0) {
        if let Some(r) = quarantine.records().iter().find(|r| r.outcome != OutcomeKind::Ok) {
            eprintln!("--fail-fast: first failure was {} ({})", r.file, r.outcome.as_str());
        }
        std::process::exit(1);
    }
    if strict && n_rejected > 0 {
        eprintln!("--strict: {} rejected script(s)", n_rejected);
        std::process::exit(1);
    }
}

/// Reads a Chrome trace-event JSON file (as written by `analyze
/// --trace-out`) and prints a per-span-path table of call count, total
/// time, and self time — total minus the time spent in direct child
/// spans — hottest self-time first. `--top N` bounds the table (default
/// 20, 0 = unlimited).
fn cmd_trace(argv: &[String]) {
    let top: usize = arg_value(argv, "--top").and_then(|v| v.parse().ok()).unwrap_or(20);
    let flag_values = [arg_value(argv, "--top")];
    let files: Vec<&String> = argv
        .iter()
        .skip(2)
        .filter(|a| !a.starts_with("--"))
        .filter(|a| !flag_values.iter().any(|v| v.as_deref() == Some(a.as_str())))
        .collect();
    let [path] = files.as_slice() else { usage() };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {}", path, e);
        std::process::exit(1);
    });
    let value: serde_json::JsonValue = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("{}: not valid trace JSON ({})", path, e);
        std::process::exit(1);
    });
    let events = value.get("traceEvents").and_then(|v| v.as_arr()).unwrap_or_else(|| {
        eprintln!("{}: no traceEvents array (is this a Chrome trace-event file?)", path);
        std::process::exit(1);
    });

    fn as_f64(v: &serde_json::JsonValue) -> Option<f64> {
        use serde::Value;
        match v {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    // Aggregate complete ("X") events per span path across all threads;
    // `dur` is in microseconds.
    use jsdetect_suite::obs;
    use std::collections::BTreeMap;
    let mut latency: BTreeMap<String, obs::Histogram> = BTreeMap::new();
    for ev in events {
        if !matches!(ev.get("ph"), Some(serde_json::JsonValue::Str(ph)) if ph == "X") {
            continue;
        }
        let (Some(serde_json::JsonValue::Str(name)), Some(dur)) =
            (ev.get("name"), ev.get("dur").and_then(as_f64))
        else {
            continue;
        };
        latency.entry(name.clone()).or_default().record((dur * 1000.0).round() as u64);
    }
    if latency.is_empty() {
        eprintln!("{}: no complete (ph=X) span events", path);
        return;
    }
    let snap = obs::Snapshot {
        spans: latency.into_iter().map(|(path, h)| obs::SpanStat::of(path, h)).collect(),
        ..obs::Snapshot::default()
    };
    let mut rows = obs::self_times(&snap);
    if top > 0 {
        rows.truncate(top);
    }

    let name_w = rows.iter().map(|r| r.path.len()).max().unwrap_or(4).max("span".len());
    println!("{:<name_w$}  {:>8}  {:>12}  {:>12}", "span", "count", "total ms", "self ms");
    for r in &rows {
        println!(
            "{:<name_w$}  {:>8}  {:>12.3}  {:>12.3}",
            r.path,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        );
    }
}

/// Runs the deobfuscation pass suite over files and reports, per file,
/// the outcome (`ok` / `degraded`), fixpoint rounds, and rewrite count.
/// With `--emit` the cleaned source is printed to stdout via codegen
/// (unparseable inputs, and inputs on which a pass panicked, pass through
/// unchanged, flagged `degraded`).
/// Exits non-zero only for failures outside {ok, degraded} — unreadable
/// files, in practice, since the normalizer itself never rejects.
fn cmd_normalize(argv: &[String]) {
    use jsdetect_suite::guard::{Budget, Limits, OutcomeKind};
    use jsdetect_suite::normalize::{normalize_program, NormalizeOptions, PassKind};

    let emit = argv.iter().any(|a| a == "--emit");
    let limits_name = arg_value(argv, "--limits").unwrap_or_else(|| "wild".to_string());
    let limits = Limits::from_name(&limits_name).unwrap_or_else(|| {
        eprintln!(
            "unknown --limits preset: {} (expected wild, trusted, or interactive)",
            limits_name
        );
        usage()
    });
    let max_rounds: u32 = arg_value(argv, "--max-rounds").and_then(|v| v.parse().ok()).unwrap_or(8);
    let passes: Vec<PassKind> = match arg_value(argv, "--passes") {
        None => PassKind::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|name| {
                PassKind::from_name(name).unwrap_or_else(|| {
                    eprintln!("unknown normalize pass: {}", name);
                    usage()
                })
            })
            .collect(),
    };
    let flag_values =
        [arg_value(argv, "--passes"), arg_value(argv, "--limits"), arg_value(argv, "--max-rounds")];
    let inputs: Vec<&String> = argv
        .iter()
        .skip(2)
        .filter(|a| !a.starts_with("--"))
        .filter(|a| !flag_values.iter().any(|v| v.as_deref() == Some(a.as_str())))
        .collect();
    if inputs.is_empty() {
        usage();
    }
    let files = collect_js_files(&inputs);
    if files.is_empty() {
        eprintln!("no .js files found under the given paths");
        std::process::exit(2);
    }

    jsdetect_suite::obs::set_enabled(true);
    let opts = NormalizeOptions { passes, max_rounds };
    let (mut n_ok, mut n_degraded, mut n_failed) = (0usize, 0usize, 0usize);
    for f in &files {
        let path = f.display();
        let src = match std::fs::read_to_string(f) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{}: failed (unreadable: {})", path, e);
                n_failed += 1;
                continue;
            }
        };
        let program = match jsdetect_suite::parser::parse(&src) {
            Ok(p) => p,
            Err(e) => {
                // Not valid JavaScript: nothing to normalize, but the
                // pipeline stays total — pass the bytes through.
                eprintln!("{}: degraded (parse error: {})", path, e);
                n_degraded += 1;
                if emit {
                    print!("{}", src);
                }
                continue;
            }
        };
        let (normalized, report) = normalize_program(program, None, &opts, &Budget::new(&limits));
        match report.outcome {
            OutcomeKind::Ok => n_ok += 1,
            _ => n_degraded += 1,
        }
        let detail = report.error.as_ref().map(|e| format!(", {}", e)).unwrap_or_default();
        eprintln!(
            "{}: {} ({} rounds, {} rewrites{})",
            path,
            report.outcome.as_str(),
            report.rounds,
            report.total_rewrites(),
            detail
        );
        if emit {
            match normalized {
                Some(n) => println!("{}", jsdetect_suite::codegen::to_source(&n.program)),
                // A pass panicked and the tree was dropped: emit the input
                // as it came, like an unparseable file.
                None => print!("{}", src),
            }
        }
    }
    eprintln!(
        "normalized {} scripts: {} ok, {} degraded, {} failed",
        files.len(),
        n_ok,
        n_degraded,
        n_failed
    );
    if n_failed > 0 {
        std::process::exit(1);
    }
}

fn cmd_transform(argv: &[String]) {
    let name = arg_value(argv, "--technique").unwrap_or_else(|| usage());
    let seed: u64 = arg_value(argv, "--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let technique =
        Technique::ALL.iter().find(|t| t.as_str() == name).copied().unwrap_or_else(|| {
            eprintln!("unknown technique: {}", name);
            usage()
        });
    let file = argv
        .iter()
        .skip(2)
        .filter(|a| !a.starts_with("--"))
        .find(|a| {
            arg_value(argv, "--technique").as_deref() != Some(a.as_str())
                && arg_value(argv, "--seed").as_deref() != Some(a.as_str())
        })
        .unwrap_or_else(|| usage());
    let src = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {}", file, e);
        std::process::exit(1);
    });
    match jsdetect_suite::transform::apply(&src, &[technique], seed) {
        Ok(out) => println!("{}", out),
        Err(e) => {
            eprintln!("transformation failed: {}", e);
            std::process::exit(1);
        }
    }
}
