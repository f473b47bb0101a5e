//! Persisted perf trajectory for the ML hot paths.
//!
//! Measures forest fit (legacy row-major vs columnar presorted), forest
//! inference (serial row-major vs flattened batch), front-end tokenization
//! (zero-copy byte-level scanner vs the preserved char-level reference),
//! and parallel script analysis at a fixed synthetic scale mirroring the
//! default pipeline
//! (level-2 training is ~1300 rows × ~317 features × 32 trees), then
//! appends the numbers to `BENCH_ml.json` so the speedups are tracked
//! across PRs instead of living in commit messages.
//!
//! Flags: `--smoke` (tiny scale, standalone output file for CI),
//! `--out-file <path>` (default `BENCH_ml.json`), `--label <name>`
//! (trajectory entry label; an existing entry with the same label is
//! replaced), `--seed <u64>` (synthetic-data seed, default 42),
//! `--scale <f64>` (multiplier on row/script counts, default 1.0).
//!
//! Each entry also records provenance (seed, scale, git SHA, feature-space
//! version) and a per-stage telemetry breakdown of `analyze_many` captured
//! through `jsdetect-obs`, so trajectory points are attributable and the
//! analysis wall time can be decomposed without a profiler.

use jsdetect::{analyze_many, analyze_many_cached, AnalysisConfig};
use jsdetect_cache::{preset_tag, AnalysisCache, CacheConfig};
use jsdetect_experiments::{or_exit, IoError};
use jsdetect_ml::reference::RowMajorForest;
use jsdetect_ml::{Dataset, ForestParams, RandomForest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

#[derive(Serialize, Deserialize, Clone)]
struct StageStat {
    name: String,
    median_ms: f64,
    rows_per_sec: f64,
    repeats: usize,
}

/// One span path's share of the telemetry capture run.
#[derive(Serialize, Deserialize, Clone)]
struct TelemetryStage {
    path: String,
    count: u64,
    total_ms: f64,
    /// Interpolated per-call latency median, from the span's log2
    /// histogram (absent in entries written by older tool versions).
    p50_ms: Option<f64>,
    /// Interpolated per-call 99th-percentile latency.
    p99_ms: Option<f64>,
}

/// Cost of the always-on streaming telemetry: the same `analyze_many`
/// batch with recording disabled vs enabled. CI gates `overhead_pct`.
#[derive(Serialize, Deserialize, Clone)]
struct ObsBench {
    n_scripts: usize,
    /// Median batch analysis with telemetry disabled.
    analyze_disabled_ms: f64,
    /// Median batch analysis with streaming telemetry enabled.
    analyze_enabled_ms: f64,
    /// `(enabled − disabled) / disabled × 100` (may be negative: noise).
    overhead_pct: f64,
    /// Trace-ring events retained by the last enabled rep's snapshot.
    trace_events: usize,
    /// Events overwritten before export in that rep (ring overflow).
    trace_dropped: u64,
}

/// Warm-vs-cold comparison of the content-addressed analysis cache over
/// the same synthetic script set: cold scans analyze and publish, warm
/// scans replay verdicts off disk through a fresh handle (the
/// incremental-rescan scenario).
#[derive(Serialize, Deserialize, Clone)]
struct CacheBench {
    n_scripts: usize,
    /// Limits preset the records were keyed under.
    preset: String,
    /// Feature-space version embedded in the records.
    feature_version: u32,
    /// Median cold scan: empty store, full analysis + record publish.
    scan_cold_ms: f64,
    /// Median warm scan: populated store, cold in-memory LRU, disk replay.
    scan_warm_ms: f64,
    /// scan_cold_ms / scan_warm_ms (higher = rescans are cheaper).
    warm_speedup: f64,
}

/// Throughput and effect of the deobfuscation pass suite over an
/// obfuscated copy of the synthetic script set: each rep parses and
/// drives every script to its normalization fixpoint.
#[derive(Serialize, Deserialize, Clone)]
struct NormalizeBench {
    n_scripts: usize,
    /// Median full-suite run (parse + fixpoint) over all scripts.
    normalize_ms: f64,
    /// Total rewrites the suite performed across the script set.
    rewrites_total: u64,
    /// Total fixpoint rounds across the script set.
    rounds_total: u64,
    /// Scripts that ended `ok` (vs degraded) out of `n_scripts`.
    n_ok: usize,
}

/// Syntax-coverage provenance: the guarded wild-preset pipeline over a
/// module-flavoured population (ES-module bundles with import/export
/// declarations, dynamic `import()`, `import.meta`, BigInt literals and
/// private class members). The conformance gate requires `degraded_rate`
/// to be exactly zero — a degraded module-bearing script means the
/// front-end lost syntax coverage.
#[derive(Serialize, Deserialize, Clone)]
struct SyntaxBench {
    n_scripts: usize,
    /// Scripts whose parse carries the module goal (import/export
    /// declarations present) — expected to equal `n_scripts`.
    n_module_goal: usize,
    n_ok: usize,
    n_degraded: usize,
    n_rejected: usize,
    /// `n_degraded / n_scripts`; gated at 0 in CI.
    degraded_rate: f64,
}

/// Front-end tokenization throughput: the zero-copy byte-level scanner
/// against the preserved char-level reference lexer, over a realistic
/// mixed corpus (regular scripts plus one variant per transformation
/// technique).
#[derive(Serialize, Deserialize, Clone)]
struct LexBench {
    n_scripts: usize,
    /// Total source bytes lexed per rep.
    bytes_total: usize,
    /// Total tokens produced per rep.
    tokens_total: u64,
    /// Median full-corpus pass with the current scanner.
    lex_ms: f64,
    /// Source megabytes per second through the current scanner.
    mb_per_sec: f64,
    /// Tokens per second through the current scanner.
    tokens_per_sec: f64,
    /// Median full-corpus pass with the pre-refactor reference scanner.
    reference_ms: f64,
    /// reference_ms / lex_ms (higher = the rewrite is faster).
    speedup_vs_reference: f64,
}

/// Per-stage decomposition of one instrumented `analyze_many` run. The
/// child-span sum is expected to land within ~10% of the parent `analyze`
/// total (the front-end stages cover nearly all of the per-script work).
#[derive(Serialize, Deserialize, Clone)]
struct TelemetryBreakdown {
    stages: Vec<TelemetryStage>,
    /// Total wall time inside `analyze` spans (all scripts, all threads).
    analyze_total_ms: f64,
    /// Sum over the direct `analyze/...` child spans.
    stage_sum_ms: f64,
    /// `stage_sum_ms / analyze_total_ms`.
    stage_sum_ratio: f64,
}

// Provenance and telemetry fields are Options so entries written by older
// versions of this tool still deserialize from the committed trajectory.
#[derive(Serialize, Deserialize, Clone)]
struct BenchEntry {
    label: String,
    smoke: bool,
    n_rows: usize,
    n_features: usize,
    n_trees: usize,
    stages: Vec<StageStat>,
    /// forest_fit_row_major / forest_fit_columnar (higher = faster now).
    fit_speedup: f64,
    /// forest_predict_serial / forest_predict_batch.
    predict_speedup: f64,
    peak_rss_kb: Option<u64>,
    seed: Option<u64>,
    scale: Option<f64>,
    git_sha: Option<String>,
    feature_space_version: Option<u32>,
    telemetry: Option<TelemetryBreakdown>,
    obs: Option<ObsBench>,
    cache: Option<CacheBench>,
    normalize: Option<NormalizeBench>,
    lex: Option<LexBench>,
    syntax: Option<SyntaxBench>,
}

#[derive(Serialize, Deserialize)]
struct BenchFile {
    description: String,
    trajectory: Vec<BenchEntry>,
    /// Headline numbers merged in by `normalization_study`; carried as
    /// an opaque value so bench_report rewrites preserve it.
    normalize: Option<serde_json::JsonValue>,
    /// Daemon load-study numbers merged in by `load_study`; also opaque.
    serve: Option<serde_json::JsonValue>,
}

/// Synthetic matrix shaped like the default pipeline's level-2 training
/// set: a mix of quantized (tie-heavy) and continuous columns.
fn synthetic(n: usize, d: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f32> = (0..d)
            .map(|j| {
                if j % 4 == 0 {
                    rng.gen_range(0..12) as f32
                } else {
                    (rng.gen_range(0..100_000) as f32) / 12_500.0 - 4.0
                }
            })
            .collect();
        let label = (row[0] > 5.0) ^ (row[1] > 0.0) ^ (rng.gen_range(0..10) == 0);
        x.push(row);
        y.push(label);
    }
    (x, y)
}

/// Median wall time of `repeats` runs of `f`, in milliseconds.
fn median_ms<F: FnMut()>(repeats: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn stage(name: &str, rows: usize, repeats: usize, f: impl FnMut()) -> StageStat {
    let ms = median_ms(repeats, f);
    let stat = StageStat {
        name: name.to_string(),
        median_ms: ms,
        rows_per_sec: rows as f64 / (ms / 1e3),
        repeats,
    };
    println!("  {:28} {:>10.1} ms   {:>12.0} rows/s", stat.name, stat.median_ms, stat.rows_per_sec);
    stat
}

/// Peak resident set size in kB from /proc/self/status (Linux only).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Short git commit SHA of the working tree, if available.
fn git_sha() -> Option<String> {
    let out = std::process::Command::new("git").args(["rev-parse", "--short", "HEAD"]).output();
    match out {
        Ok(o) if o.status.success() => {
            Some(String::from_utf8_lossy(&o.stdout).trim().to_string()).filter(|s| !s.is_empty())
        }
        _ => None,
    }
}

/// Runs one instrumented `analyze_many` pass and decomposes the `analyze`
/// span into its per-stage children.
fn capture_telemetry(refs: &[&str]) -> TelemetryBreakdown {
    jsdetect_obs::set_enabled(true);
    jsdetect_obs::reset();
    std::hint::black_box(analyze_many(refs));
    let snap = jsdetect_obs::snapshot();
    jsdetect_obs::set_enabled(false);

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut stages = Vec::new();
    let mut analyze_total_ms = 0.0;
    let mut stage_sum_ms = 0.0;
    for s in &snap.spans {
        if s.path == "analyze" {
            analyze_total_ms = ms(s.total_ns);
        }
        if let Some(rest) = s.path.strip_prefix("analyze/") {
            if !rest.contains('/') {
                stage_sum_ms += ms(s.total_ns);
            }
        }
        stages.push(TelemetryStage {
            path: s.path.clone(),
            count: s.count,
            total_ms: ms(s.total_ns),
            p50_ms: Some(s.latency.quantile_interp(0.5) / 1e6),
            p99_ms: Some(s.latency.quantile_interp(0.99) / 1e6),
        });
    }
    let ratio = if analyze_total_ms > 0.0 { stage_sum_ms / analyze_total_ms } else { 0.0 };
    TelemetryBreakdown { stages, analyze_total_ms, stage_sum_ms, stage_sum_ratio: ratio }
}

/// Measures the streaming-telemetry overhead on `analyze_many`. Disabled
/// and enabled reps interleave (ABAB…) so drift — thermal, allocator
/// state, page cache — hits both modes equally, and medians keep a single
/// outlier rep from deciding the CI gate at smoke scale.
fn obs_overhead(refs: &[&str], reps: usize) -> ObsBench {
    let mut disabled = Vec::with_capacity(reps);
    let mut enabled = Vec::with_capacity(reps);
    let (mut trace_events, mut trace_dropped) = (0usize, 0u64);
    for _ in 0..reps {
        jsdetect_obs::set_enabled(false);
        let t0 = Instant::now();
        std::hint::black_box(analyze_many(refs));
        disabled.push(t0.elapsed().as_secs_f64() * 1e3);

        jsdetect_obs::set_enabled(true);
        jsdetect_obs::reset();
        let t0 = Instant::now();
        std::hint::black_box(analyze_many(refs));
        enabled.push(t0.elapsed().as_secs_f64() * 1e3);
        let snap = jsdetect_obs::snapshot();
        trace_events = snap.events.len();
        trace_dropped = snap.dropped_events;
    }
    jsdetect_obs::set_enabled(false);
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let (d, e) = (median(&mut disabled), median(&mut enabled));
    ObsBench {
        n_scripts: refs.len(),
        analyze_disabled_ms: d,
        analyze_enabled_ms: e,
        overhead_pct: (e - d) / d * 100.0,
        trace_events,
        trace_dropped,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let flag = |name: &str| -> Option<String> {
        argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1).cloned())
    };
    let out_file = flag("--out-file").unwrap_or_else(|| {
        if smoke {
            "target/BENCH_ml_smoke.json".to_string()
        } else {
            "BENCH_ml.json".to_string()
        }
    });
    let label = flag("--label").unwrap_or_else(|| {
        if smoke {
            "smoke".to_string()
        } else {
            "current".to_string()
        }
    });

    let seed: u64 = flag("--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let scale: f64 = flag("--scale").and_then(|v| v.parse().ok()).unwrap_or(1.0);
    assert!(scale > 0.0, "--scale must be positive");

    // Default pipeline scale: level-2 training is ~1300 samples × ~317
    // features with 32-tree forests.
    let (base_n, d, n_trees, fit_reps, pred_reps) =
        if smoke { (160, 40, 8, 1, 2) } else { (1300, 317, 32, 3, 5) };
    let n = ((base_n as f64 * scale) as usize).max(8);
    let (x, y) = synthetic(n, d, seed);
    let data = Dataset::from_rows(&x).expect("synthetic matrix");
    let params = ForestParams { n_trees, seed, ..Default::default() };

    println!("bench_report: {} rows × {} features, {} trees ({})", n, d, n_trees, label);
    println!("  seed {} scale {} sha {}", seed, scale, git_sha().as_deref().unwrap_or("unknown"));
    let mut stages = Vec::new();

    stages.push(stage("forest_fit_row_major", n, fit_reps, || {
        std::hint::black_box(RowMajorForest::fit(&x, &y, &params));
    }));
    stages.push(stage("forest_fit_columnar", n, fit_reps, || {
        std::hint::black_box(RandomForest::fit_dataset(&data, &y, &params));
    }));

    let legacy = RowMajorForest::fit(&x, &y, &params);
    let forest = RandomForest::fit_dataset(&data, &y, &params);
    stages.push(stage("forest_predict_serial", n, pred_reps, || {
        for row in &x {
            std::hint::black_box(legacy.predict_proba(row));
        }
    }));
    stages.push(stage("forest_predict_batch", n, pred_reps, || {
        std::hint::black_box(forest.predict_proba_batch(&data));
    }));

    // Analysis throughput (work-stealing over uneven script sizes).
    let n_scripts = (((if smoke { 24 } else { 150 }) as f64 * scale) as usize).max(4);
    let scripts: Vec<String> = (0..n_scripts)
        .map(|i| {
            let stmts = 5 + (i * 37) % 120;
            (0..stmts).map(|s| format!("var v{}_{} = {} + f({});", i, s, s, s)).collect::<String>()
        })
        .collect();
    let refs: Vec<&str> = scripts.iter().map(String::as_str).collect();
    stages.push(stage("analyze_many", n_scripts, fit_reps, || {
        std::hint::black_box(analyze_many(&refs));
    }));

    // Incremental-rescan cost: the same scripts through the content-
    // addressed cache. Cold reps each get a fresh empty store (so every
    // rep pays full analysis + publish); the warm stage replays a
    // populated store through a fresh handle per rep, so the in-memory
    // LRU starts cold and the replay comes off disk.
    let config = AnalysisConfig::default();
    let cache_base =
        std::env::temp_dir().join(format!("jsdetect-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_base);
    let open_cache = |dir: &std::path::Path| {
        AnalysisCache::open(CacheConfig::new(dir, &config.limits)).expect("open bench cache")
    };
    let mut cold_rep = 0u32;
    stages.push(stage("scan_cold", n_scripts, fit_reps, || {
        cold_rep += 1;
        let cache = open_cache(&cache_base.join(format!("cold-{}", cold_rep)));
        std::hint::black_box(analyze_many_cached(&refs, &config, &cache));
    }));
    let warm_dir = cache_base.join("warm");
    analyze_many_cached(&refs, &config, &open_cache(&warm_dir)); // populate, untimed
    stages.push(stage("scan_warm", n_scripts, pred_reps, || {
        let cache = open_cache(&warm_dir);
        std::hint::black_box(analyze_many_cached(&refs, &config, &cache));
    }));
    let _ = std::fs::remove_dir_all(&cache_base);

    // Deobfuscation throughput: each rep parses an obfuscated script set
    // and drives every script to its fixpoint. The analyze-stage scripts
    // above carry no string literals or adjacent expression statements,
    // so the transforms would no-op on them; this set is built to give
    // the string-pool and sequence transforms something to chew on.
    let obfuscated: Vec<String> = (0..n_scripts)
        .map(|i| {
            let stmts = 5 + (i * 37) % 120;
            let decls: String =
                (0..stmts).map(|s| format!("var a{}_{} = 'payload {} {}';", i, s, i, s)).collect();
            let calls: String =
                (0..stmts).map(|s| format!("use(a{}_{}, 'key {}');", i, s, s)).collect();
            let src = decls + &calls;
            let t = if i % 2 == 0 {
                jsdetect::Technique::GlobalArray
            } else {
                jsdetect::Technique::MinificationAdvanced
            };
            jsdetect_transform::apply(&src, &[t], seed + i as u64).unwrap_or_else(|_| src)
        })
        .collect();
    let norm_opts = jsdetect_normalize::NormalizeOptions::wild();
    let (mut rewrites_total, mut rounds_total, mut norm_ok) = (0u64, 0u64, 0usize);
    stages.push(stage("normalize", n_scripts, fit_reps, || {
        rewrites_total = 0;
        rounds_total = 0;
        norm_ok = 0;
        for src in &obfuscated {
            if let Ok(program) = jsdetect_parser::parse(src) {
                let (normalized, report) =
                    jsdetect_normalize::normalize_program(&program, &norm_opts);
                rewrites_total += report.total_rewrites();
                rounds_total += u64::from(report.rounds);
                if report.outcome == jsdetect_guard::OutcomeKind::Ok {
                    norm_ok += 1;
                }
                std::hint::black_box(&normalized);
            }
        }
    }));

    // Tokenization throughput, current scanner vs the preserved reference.
    // The corpus mixes plain generated scripts with one variant per
    // transformation technique so literal-heavy and minified shapes are
    // both represented.
    let lex_corpus: Vec<String> = {
        let mut v = jsdetect_corpus::regular_corpus(if smoke { 6 } else { 48 }, seed);
        let base_len = v.len();
        for (i, t) in jsdetect::Technique::ALL.iter().enumerate() {
            let base = v[i % base_len].clone();
            if let Ok(obf) = jsdetect_transform::apply(&base, &[*t], seed + i as u64) {
                v.push(obf);
            }
        }
        v
    };
    let lex_bytes: usize = lex_corpus.iter().map(String::len).sum();
    let mut lex_tokens = 0u64;
    stages.push(stage("lex_throughput", lex_corpus.len(), pred_reps, || {
        lex_tokens = 0;
        for src in &lex_corpus {
            let toks = jsdetect_lexer::tokenize(src).expect("lex corpus tokenizes");
            lex_tokens += toks.len() as u64;
            std::hint::black_box(&toks);
        }
    }));
    stages.push(stage("lex_reference", lex_corpus.len(), pred_reps, || {
        for src in &lex_corpus {
            let toks = jsdetect_lexer::reference::tokenize_reference(src)
                .expect("lex corpus tokenizes (reference)");
            std::hint::black_box(&toks);
        }
    }));

    // Syntax coverage: a module-flavoured wild population through the
    // guarded wild-preset pipeline. Any degraded module script means the
    // front-end lost ES-module coverage; CI gates the rate at zero.
    let module_pop = jsdetect_corpus::module_population(if smoke { 12 } else { 60 }, seed);
    let module_refs: Vec<&str> = module_pop.iter().map(|s| s.src.as_str()).collect();
    let module_results = jsdetect::analyze_many_guarded(&module_refs, &AnalysisConfig::wild());
    let n_module_goal = module_pop
        .iter()
        .filter(|s| jsdetect_parser::parse(&s.src).map(|p| p.module_goal()).unwrap_or(false))
        .count();
    let count_outcome =
        |k: jsdetect::OutcomeKind| module_results.iter().filter(|r| r.outcome == k).count();
    let syntax_bench = SyntaxBench {
        n_scripts: module_pop.len(),
        n_module_goal,
        n_ok: count_outcome(jsdetect::OutcomeKind::Ok),
        n_degraded: count_outcome(jsdetect::OutcomeKind::Degraded),
        n_rejected: count_outcome(jsdetect::OutcomeKind::Rejected),
        degraded_rate: count_outcome(jsdetect::OutcomeKind::Degraded) as f64
            / module_pop.len().max(1) as f64,
    };

    // One extra instrumented pass decomposes the analysis wall time into
    // per-stage spans (the timed stage above ran with telemetry off).
    let telemetry = capture_telemetry(&refs);

    // Streaming-telemetry cost on the same batch; CI gates the result.
    let obs_bench = obs_overhead(&refs, 7);

    let ms_of = |name: &str| stages.iter().find(|s| s.name == name).map(|s| s.median_ms).unwrap();
    let cache_bench = CacheBench {
        n_scripts,
        preset: preset_tag(&config.limits),
        feature_version: jsdetect_features::FEATURE_SPACE_VERSION,
        scan_cold_ms: ms_of("scan_cold"),
        scan_warm_ms: ms_of("scan_warm"),
        warm_speedup: ms_of("scan_cold") / ms_of("scan_warm"),
    };
    let normalize_bench = NormalizeBench {
        n_scripts,
        normalize_ms: ms_of("normalize"),
        rewrites_total,
        rounds_total,
        n_ok: norm_ok,
    };
    let lex_ms = ms_of("lex_throughput");
    let lex_bench = LexBench {
        n_scripts: lex_corpus.len(),
        bytes_total: lex_bytes,
        tokens_total: lex_tokens,
        lex_ms,
        mb_per_sec: lex_bytes as f64 / 1e6 / (lex_ms / 1e3),
        tokens_per_sec: lex_tokens as f64 / (lex_ms / 1e3),
        reference_ms: ms_of("lex_reference"),
        speedup_vs_reference: ms_of("lex_reference") / lex_ms,
    };
    let entry = BenchEntry {
        label,
        smoke,
        n_rows: n,
        n_features: d,
        n_trees,
        fit_speedup: ms_of("forest_fit_row_major") / ms_of("forest_fit_columnar"),
        predict_speedup: ms_of("forest_predict_serial") / ms_of("forest_predict_batch"),
        stages,
        peak_rss_kb: peak_rss_kb(),
        seed: Some(seed),
        scale: Some(scale),
        git_sha: git_sha(),
        feature_space_version: Some(jsdetect_features::FEATURE_SPACE_VERSION),
        telemetry: Some(telemetry),
        obs: Some(obs_bench),
        cache: Some(cache_bench),
        normalize: Some(normalize_bench),
        lex: Some(lex_bench),
        syntax: Some(syntax_bench),
    };
    println!(
        "\n  fit speedup    {:.2}x (row-major → columnar)\n  predict speedup {:.2}x (serial → batch)",
        entry.fit_speedup, entry.predict_speedup
    );
    if let Some(o) = &entry.obs {
        println!(
            "  obs overhead   {:+.1}% (disabled {:.2} ms → enabled {:.2} ms; {} trace events, {} dropped)",
            o.overhead_pct, o.analyze_disabled_ms, o.analyze_enabled_ms, o.trace_events, o.trace_dropped
        );
    }
    if let Some(c) = &entry.cache {
        println!(
            "  warm rescan    {:.2}x (cold {:.1} ms → warm {:.1} ms, preset {}, fv {})",
            c.warm_speedup, c.scan_cold_ms, c.scan_warm_ms, c.preset, c.feature_version
        );
    }
    if let Some(nb) = &entry.normalize {
        println!(
            "  normalize      {:.1} ms for {} scripts ({} rewrites, {} rounds, {} ok)",
            nb.normalize_ms, nb.n_scripts, nb.rewrites_total, nb.rounds_total, nb.n_ok
        );
    }
    if let Some(l) = &entry.lex {
        println!(
            "  lex throughput {:.1} MB/s, {:.2}M tokens/s ({:.2}x vs reference: {:.1} ms → {:.1} ms over {:.2} MB)",
            l.mb_per_sec,
            l.tokens_per_sec / 1e6,
            l.speedup_vs_reference,
            l.reference_ms,
            l.lex_ms,
            l.bytes_total as f64 / 1e6
        );
    }
    if let Some(s) = &entry.syntax {
        println!(
            "  module syntax  {} scripts ({} module-goal): {} ok, {} degraded, {} rejected (degraded rate {:.4})",
            s.n_scripts, s.n_module_goal, s.n_ok, s.n_degraded, s.n_rejected, s.degraded_rate
        );
    }
    if let Some(t) = &entry.telemetry {
        println!("\n  analyze stage breakdown (one instrumented pass):");
        for s in &t.stages {
            if s.path.starts_with("analyze/") {
                println!(
                    "    {:24} {:>9.2} ms  ({} spans, p50 {:.3} ms, p99 {:.3} ms)",
                    s.path,
                    s.total_ms,
                    s.count,
                    s.p50_ms.unwrap_or(0.0),
                    s.p99_ms.unwrap_or(0.0)
                );
            }
        }
        println!(
            "    stage sum {:.2} ms / analyze total {:.2} ms = {:.1}%",
            t.stage_sum_ms,
            t.analyze_total_ms,
            t.stage_sum_ratio * 100.0
        );
    }

    // Append to (or start) the persisted trajectory; same-label entries
    // are replaced so re-runs stay idempotent. Smoke runs write a
    // standalone file and never touch the committed trajectory.
    let mut file = if smoke {
        BenchFile {
            description: smoke_description(),
            trajectory: Vec::new(),
            normalize: None,
            serve: None,
        }
    } else {
        std::fs::read_to_string(&out_file)
            .ok()
            .and_then(|s| serde_json::from_str(&s).ok())
            .unwrap_or_else(|| BenchFile {
                description: description(),
                trajectory: Vec::new(),
                normalize: None,
                serve: None,
            })
    };
    file.trajectory.retain(|e| e.label != entry.label);
    file.trajectory.push(entry);
    if let Some(dir) = std::path::Path::new(&out_file).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).ok();
        }
    }
    let json = or_exit(serde_json::to_string_pretty(&file).map_err(|e| IoError {
        op: "serialize",
        path: out_file.clone().into(),
        msg: e.to_string(),
    }));
    or_exit(std::fs::write(&out_file, json).map_err(|e| IoError {
        op: "write",
        path: out_file.clone().into(),
        msg: e.to_string(),
    }));
    println!("\nwrote {}", out_file);
}

fn description() -> String {
    "ML hot-path perf trajectory: forest fit/predict and parallel analysis, \
     measured by crates/experiments/src/bin/bench_report.rs at the default \
     pipeline scale. One entry per tracked change; medians in milliseconds."
        .to_string()
}

fn smoke_description() -> String {
    "Smoke-scale bench_report output (CI bitrot check only — numbers are not \
     meaningful at this scale)."
        .to_string()
}
