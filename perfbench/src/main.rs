//! `perfbench`: the jsdetect benchmark.
//!
//! ```text
//! perfbench train-model <model.json>
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir> [--model <model.json>]
//! ```
//!
//! `train-model` trains the deployed model (`jsdetect-cli train`'s
//! defaults) and writes its JSON. A workload run builds its inputs from
//! `--seed`, sets the workload up several times (the median is `setup_s`),
//! then runs it back to back for `--seconds` and checks every output
//! against a reference computed through the uncached pipeline. The last
//! line of standard output is one JSON object: `{"correct", "attempted",
//! "failed", "metrics"}`. With `--trace 0` the metrics are the end-to-end
//! numbers a user sees; with `--trace 1` the same loop runs with the
//! pipeline's telemetry recording and the metrics are per-layer times,
//! ratios and counts.
//!
//! Workloads:
//!
//! - `cold_scan`: a crawl of generated scripts in the Alexa simulator's
//!   calibrated mix of regular, minified and obfuscated code, classified
//!   with no verdict cache, so every script is lexed, parsed, analyzed and
//!   predicted. It bypasses the cache that `rescan` exercises: publishing
//!   a whole crawl is small-file disk I/O, which would drown the analysis
//!   layers this workload exists to show.
//! - `rescan`: the same crawl rescanned through a fresh handle on a
//!   populated cache, with one script in ten edited since the last scan:
//!   most verdicts replay from disk, the edits are analyzed afresh.
//! - `serve`: the resident daemon behind its framed TCP transport, in full
//!   mode (no fault injection), driven by closed-loop clients that keep
//!   one request each in flight and never outnumber the workers.
//! - `train`: the paper's two-level training protocol on a small
//!   generated corpus (transforms, analysis, feature-space and forest
//!   fitting), retraining the model set-up trained and checking it comes
//!   out byte-identical.
//!
//! `cold_scan`, `rescan` and `serve` classify with the deployed model,
//! read from `--model`. Their set-up generates the crawl, loads the model
//! from its JSON, and for `serve` starts the daemon; `rescan`'s cache
//! store is populated once before set-up, as a previous scan left it.
//!
//! Every reported time is scaled to a reference host by a calibration
//! kernel run between stretches of measured work (see `HostSpeed`).

use jsdetect::{
    classify_many_cached, train_pipeline, AnalysisConfig, DetectorConfig, OutcomeKind,
    PipelineOutput, ScriptVerdict, Technique, TrainedDetectors, DEFAULT_THRESHOLD,
};
use jsdetect_cache::{AnalysisCache, CacheConfig};
use jsdetect_corpus::wild::alexa_model;
use jsdetect_corpus::{transform_sample, GenOptions, RegularJsGenerator, N_MONTHS};
use jsdetect_obs::{names, Snapshot};
use jsdetect_serve::{
    read_frame, serve, write_frame, AnalyzeRequest, AnalyzeResponse, BreakerState, Daemon,
    ServeConfig, ShutdownReport, TransportConfig,
};
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's level-2 Top-k rule.
const TOP_K: usize = 4;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Source scripts and seed of the deployed model: the defaults of
/// `jsdetect-cli train`, which also trains with the default detector
/// configuration.
const MODEL_SCRIPTS: usize = 240;
const MODEL_SEED: u64 = 42;
/// Source scripts behind each run of the `train` workload, which trains
/// with the fast detector configuration: the deployed model takes close
/// to a minute to train, too long to repeat within a measured window.
const TRAIN_SCRIPTS: usize = 8;
/// Seed of the `train` workload's labelled corpus. The corpus is fixed, as
/// a deployment's training set is; `--seed` seeds the forests. Training
/// cost is dominated by analyzing a few large transformed variants, so a
/// corpus drawn per seed would make its cost vary several-fold.
const TRAIN_CORPUS_SEED: u64 = 42;
/// Scripts per crawl.
const CRAWL_SCRIPTS: usize = 760;
/// Month and site rank whose Alexa model sets the crawl's mix: the last
/// month of the longitudinal window (2020-09), at the middle of the
/// Top-10k, where the model's rank factor is 1.
const CRAWL_MONTH: usize = N_MONTHS - 1;
const CRAWL_RANK: usize = 5_000;
/// Share of library-plus-page files in the Alexa simulator
/// (`alexa_population`); half are simply, half advanced minified.
const PARTIAL_SHARE: f64 = 0.07;
/// One script in this many is edited between two rescans. A choice, not a
/// calibrated rate: neither the paper nor the simulators give how often a
/// crawled script changes between two scans.
const EDIT_EVERY: usize = 10;
/// Daemon worker pool.
const SERVE_WORKERS: usize = 2;
/// Closed-loop clients, one request in flight each. No more clients than
/// workers, so the queue never builds and the breaker never opens.
const SERVE_CLIENTS: usize = 2;
/// Largest response frame a client accepts.
const MAX_FRAME: usize = 1 << 20;

// Spans the benchmark records around its client's calls into the protocol.
const SPAN_ENCODE: &str = "bench_encode";
const SPAN_DECODE: &str = "bench_decode";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdScan,
    Rescan,
    Serve,
    Train,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    /// The deployed model's JSON, as `train-model` writes it.
    model: Option<PathBuf>,
}

impl Args {
    /// The deployed model's JSON text.
    fn model_json(&self) -> Result<String, String> {
        let path = self.model.as_ref().ok_or("this workload needs --model")?;
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir, mut model) =
        (None, None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "cold_scan" => Workload::ColdScan,
                    "rescan" => Workload::Rescan,
                    "serve" => Workload::Serve,
                    "train" => Workload::Train,
                    _ => return Err(format!("unknown workload `{value}`")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (want 0 or 1)")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--model" => model = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        model,
    })
}

/// Trains the deployed model and writes its JSON to `path`, through a
/// temporary file so that no reader sees half a model.
fn train_model(path: &Path) -> Result<(), String> {
    let cfg = DetectorConfig::default().with_seed(MODEL_SEED);
    let json = to_json(&train_pipeline(MODEL_SCRIPTS, MODEL_SEED, &cfg))?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, json).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("train-model") {
        let Some(path) = argv.get(1).filter(|_| argv.len() == 2) else {
            eprintln!("perfbench: usage: perfbench train-model <model.json>");
            std::process::exit(2);
        };
        if let Err(e) = train_model(Path::new(path)) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("create {}: {e}", args.work_dir.display()))
        .and_then(|()| match args.workload {
            Workload::ColdScan => cold_scan(&args),
            Workload::Rescan => rescan(&args),
            Workload::Serve => serve_workload(&args),
            Workload::Train => train(&args),
        });
    let _ = std::fs::remove_dir_all(&args.work_dir);
    match result {
        Ok(run) => println!("{}", run.into_json(args.trace)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------- results

type Metric = (&'static str, f64, &'static str);

/// The measured window: one entry per operation.
#[derive(Default)]
struct Window {
    /// Wall time of each operation, in milliseconds on the reference host.
    op_ms: Vec<f64>,
    /// Outputs checked: scripts, requests or training runs.
    attempted: u64,
    /// Outputs that failed their check.
    failed: u64,
}

/// Daemon-side numbers the serve workload adds to its trace, as measured.
struct ServeTimes {
    /// Mean admission-to-response time the daemon reports.
    daemon_us: f64,
    /// Mean client round trip minus that: framing, socket and both sides'
    /// JSON (de)serialization.
    wire_us: f64,
}

/// Everything a workload measured.
struct Run {
    setup_s: f64,
    window: Window,
    /// Items per second of measured time on the reference host.
    items_per_s: f64,
    /// Whole-run checks beyond the per-output ones (e.g. the daemon's
    /// breaker stayed closed).
    run_ok: bool,
    trace: Option<Snapshot>,
    serve: Option<ServeTimes>,
    host: HostSpeed,
}

impl Run {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    fn into_json(mut self, traced: bool) -> String {
        let w = &mut self.window;
        let correct = self.run_ok && w.attempted > 0 && w.failed == 0;
        let metrics = if traced {
            let snap = self.trace.take().unwrap_or_default();
            per_layer(&snap, w.attempted, self.serve.as_ref(), &self.host)
        } else {
            w.op_ms.sort_by(f64::total_cmp);
            vec![
                ("items_per_s", self.items_per_s, "1/s"),
                ("op_p50_ms", nearest_rank(&w.op_ms, 0.50), "ms"),
                ("op_p90_ms", nearest_rank(&w.op_ms, 0.90), "ms"),
                ("setup_s", self.setup_s, "s"),
            ]
        };
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            w.attempted.max(1),
            w.failed,
            metrics.join(", ")
        )
    }
}

fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Per-layer metrics from one traced window. Times are microseconds per
/// work item, scaled to the reference host by the run's median
/// calibration; a layer's time is summed over every span path it ends, so
/// a stage counts the same whether it ran on a worker's own span stack or
/// nested under a batch span.
fn per_layer(
    snap: &Snapshot,
    items: u64,
    serve: Option<&ServeTimes>,
    host: &HostSpeed,
) -> Vec<Metric> {
    let scale = CALIBRATION_REF_MS / host.median_ms();
    let selfs = jsdetect_obs::self_times(snap);
    let leaf = |path: &str| path.rsplit('/').next().unwrap_or(path).to_string();
    let per_item = |ns: u64| ns as f64 / 1e3 / items.max(1) as f64 * scale;
    let self_us = |name: &str| {
        per_item(selfs.iter().filter(|s| leaf(&s.path) == name).map(|s| s.self_ns).sum())
    };
    let total_us = |name: &str| {
        per_item(snap.spans.iter().filter(|s| leaf(&s.path) == name).map(|s| s.total_ns).sum())
    };
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    // Scripts actually analyzed (cache hits never open an analyze span).
    let analyzed: u64 =
        snap.spans.iter().filter(|s| leaf(&s.path) == names::SPAN_ANALYZE).map(|s| s.count).sum();
    let (hits, misses) = (snap.counter(names::CTR_CACHE_HIT), snap.counter(names::CTR_CACHE_MISS));
    // Direct children of the analyze span should account for all of it.
    let (mut analyze_ns, mut stage_ns) = (0u64, 0u64);
    for s in &snap.spans {
        let mut parts = s.path.rsplitn(2, '/');
        let (last, parent) = (parts.next().unwrap_or(""), parts.next());
        if last == names::SPAN_ANALYZE {
            analyze_ns += s.total_ns;
        } else if parent.map(leaf).as_deref() == Some(names::SPAN_ANALYZE) {
            stage_ns += s.total_ns;
        }
    }
    let predict = [
        names::SPAN_LEVEL1_PREDICT,
        names::SPAN_LEVEL2_PREDICT,
        names::SPAN_LEVEL1_PREDICT_BATCH,
        names::SPAN_LEVEL2_PREDICT_BATCH,
    ];
    let predict_us: f64 = predict.iter().map(|s| total_us(s)).sum();
    let worker_us = total_us(names::SPAN_ANALYZE) + predict_us;
    vec![
        ("lex_us", self_us(names::SPAN_LEX), "us"),
        ("parse_us", self_us(names::SPAN_PARSE), "us"),
        ("flow_us", self_us(names::SPAN_FLOW), "us"),
        ("metrics_us", self_us(names::SPAN_METRICS), "us"),
        ("lint_us", self_us(names::SPAN_LINT), "us"),
        ("normalize_deltas_us", self_us(names::SPAN_NORMALIZE_DELTAS), "us"),
        ("analyze_self_us", self_us(names::SPAN_ANALYZE), "us"),
        ("analyze_stage_sum_ratio", ratio(stage_ns, analyze_ns), "ratio"),
        ("vectorize_us", total_us(names::SPAN_VECTORIZE), "us"),
        ("predict_us", predict_us, "us"),
        ("cache_get_us", total_us(names::SPAN_CACHE_GET), "us"),
        ("cache_put_us", total_us(names::SPAN_CACHE_PUT), "us"),
        ("corpus_generate_us", self_us(names::SPAN_CORPUS_GENERATE), "us"),
        ("transform_apply_us", total_us(names::SPAN_TRANSFORM_APPLY), "us"),
        ("fit_space_us", total_us(names::SPAN_FIT_SPACE), "us"),
        ("forest_fit_us", total_us(names::SPAN_FOREST_FIT), "us"),
        ("client_serde_us", total_us(SPAN_ENCODE) + total_us(SPAN_DECODE), "us"),
        ("daemon_latency_us", serve.map_or(0.0, |s| s.daemon_us * scale), "us"),
        ("queue_wait_us", serve.map_or(0.0, |s| s.daemon_us * scale - worker_us), "us"),
        ("wire_us", serve.map_or(0.0, |s| s.wire_us * scale), "us"),
        ("cache_hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("analyzed_per_item", ratio(analyzed, items), "ratio"),
        ("degraded_rate", ratio(snap.counter(names::CTR_GUARD_DEGRADED), analyzed), "ratio"),
        (
            "trees_traversed_per_item",
            ratio(snap.counter(names::CTR_TREES_TRAVERSED), items),
            "ratio",
        ),
        ("calibration_ms", host.median_ms(), "ms"),
    ]
}

// ------------------------------------------------------------ harness

/// Runs `build` [`SETUP_REPS`] times, calibrating after each, and returns
/// the median time in seconds, scaled to the reference host by the median
/// calibration (the repetitions run within seconds, and one calibration
/// alone is noisy), with the last result. Each earlier result is dropped
/// (and so torn down) before the next build starts, outside the timed
/// region, and every build starts with telemetry off, as in a fresh
/// process (a daemon turns it on when it starts).
fn set_up<T>(
    host: &mut HostSpeed,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        jsdetect_obs::set_enabled(false);
        let t0 = Instant::now();
        last = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
        host.calibrate();
    }
    let setup_s = median(&times) * CALIBRATION_REF_MS / host.median_ms();
    Ok((setup_s, last.expect("SETUP_REPS is positive")))
}

// --------------------------------------------------------- host speed
//
// The benchmark runs on shared virtual machines whose speed drifts by
// 15-45% over minutes, with no CPU steal reported: a neighbour's load
// changes how fast the same code runs. Every time the benchmark reports is
// therefore scaled to a reference host: a fixed calibration kernel runs
// between stretches of measured work, and a stretch's times are multiplied
// by the kernel's reference time over its time right after the stretch.
// The kernel is self-contained (it calls nothing of the program), so no
// change to the program can move it.

/// The calibration kernel's median time on the host the bounds were set
/// on (two threads on a 2-vCPU Xeon virtual machine).
const CALIBRATION_REF_MS: f64 = 18.0;
/// Longest stretch of measured work between two calibrations.
const CALIBRATE_EVERY_S: f64 = 0.25;
/// Calibrations whose median scales a stretch: the last one and the two
/// before it, about a second of measured work.
const CALIBRATION_WINDOW: usize = 3;

/// Tokenizes a fixed pseudo-random byte buffer and counts its words in a
/// hash map: branchy byte scanning plus cache-missing table updates, the
/// mix the analysis pipeline spends its time on.
fn calibration_kernel(seed: u64) -> u64 {
    const ALPHABET: &[u8; 36] = b"abcdefghij  ;(){}=+\"0123456789xyz.,\n";
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut x = seed | 1;
    let buf: Vec<u8> = (0..1 << 18)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ALPHABET[(x % 36) as usize]
        })
        .collect();
    let mut words: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let mut acc = 0u64;
    for _ in 0..4 {
        let mut h = FNV_OFFSET;
        for &c in &buf {
            if c.is_ascii_alphanumeric() {
                h = (h ^ u64::from(c)).wrapping_mul(0x100_0000_01b3);
            } else if h != FNV_OFFSET {
                *words.entry(h & 0xffff_ffff).or_insert(0) += 1;
                acc = acc.wrapping_add(h);
                h = FNV_OFFSET;
            }
        }
    }
    acc ^ words.len() as u64
}

/// Runs the calibration kernel once on each of the threads the pipeline's
/// pools use and returns the wall time in milliseconds.
fn calibrate() -> f64 {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..threads as u64).map(|i| scope.spawn(move || calibration_kernel(i + 1))).collect();
        for h in handles {
            std::hint::black_box(h.join().expect("calibration kernel panicked"));
        }
    });
    t0.elapsed().as_secs_f64() * 1e3
}

/// Calibration times of one run, in milliseconds.
#[derive(Default)]
struct HostSpeed {
    calibration_ms: Vec<f64>,
}

impl HostSpeed {
    fn calibrate(&mut self) {
        self.calibration_ms.push(calibrate());
    }

    /// Calibrates and returns the factor that scales the times measured
    /// since the last calibration to the reference host. One calibration
    /// alone is noisy, and the host's speed drifts over seconds, so the
    /// factor uses the median of the last [`CALIBRATION_WINDOW`].
    fn factor(&mut self) -> f64 {
        self.calibrate();
        let recent = self.calibration_ms.len().saturating_sub(CALIBRATION_WINDOW);
        CALIBRATION_REF_MS / median(&self.calibration_ms[recent..])
    }

    fn median_ms(&self) -> f64 {
        median(&self.calibration_ms)
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

/// Switches telemetry on and clears it when the run is traced, right
/// before the measured window.
fn start_trace(trace: bool) {
    if trace {
        jsdetect_obs::set_enabled(true);
        jsdetect_obs::reset();
    }
}

fn end_trace(trace: bool) -> Option<Snapshot> {
    trace.then(jsdetect_obs::snapshot)
}

/// Runs `op(k)` for k = 0, 1, … until `seconds` have passed, calibrating
/// after every [`CALIBRATE_EVERY_S`] of operations. Each call times its own
/// measured section, so per-operation cleanup stays out, and returns
/// `(elapsed, outputs checked, outputs failed)`.
fn measure(
    seconds: f64,
    host: &mut HostSpeed,
    mut op: impl FnMut(usize) -> Result<(Duration, u64, u64), String>,
) -> Result<Window, String> {
    let start = Instant::now();
    let mut w = Window::default();
    let mut stretch_ms: Vec<f64> = Vec::new();
    let mut k = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let (dt, attempted, failed) = op(k)?;
        stretch_ms.push(dt.as_secs_f64() * 1e3);
        w.attempted += attempted;
        w.failed += failed;
        k += 1;
        if stretch_ms.iter().sum::<f64>() >= CALIBRATE_EVERY_S * 1e3 {
            let f = host.factor();
            w.op_ms.extend(stretch_ms.drain(..).map(|ms| ms * f));
        }
    }
    if !stretch_ms.is_empty() {
        let f = host.factor();
        w.op_ms.extend(stretch_ms.drain(..).map(|ms| ms * f));
    }
    Ok(w)
}

/// Throughput over the summed operation times.
fn busy_rate(w: &Window) -> f64 {
    let busy_s: f64 = w.op_ms.iter().sum::<f64>() / 1e3;
    if busy_s > 0.0 {
        w.attempted as f64 / busy_s
    } else {
        0.0
    }
}

// ------------------------------------------------------------- inputs

/// What one crawl script is.
#[derive(Clone, Copy)]
enum Kind {
    /// Generated code, untransformed.
    Regular,
    /// Generated code transformed by one technique.
    Transformed(Technique),
    /// A library minified by the technique with regular page code after
    /// it, as the Alexa simulator's library-plus-page files are.
    Partial(Technique),
}

/// The crawl's script kinds, in order. The Alexa model's expected shares
/// (`alexa_model` at [`CRAWL_MONTH`] and [`CRAWL_RANK`], plus
/// [`PARTIAL_SHARE`]) are apportioned over [`CRAWL_SCRIPTS`] by largest
/// remainder, and each kind is spread evenly through the crawl. A script
/// gets the model's primary technique only: the extra techniques the model
/// adds (each with a tenth of its weight share) are left out. The counts
/// are fixed rather than drawn per seed because a few costly obfuscated
/// scripts dominate a pass, and a drawn mix made its cost swing with the
/// seed.
fn crawl_mix() -> Vec<Kind> {
    use Technique::{MinificationAdvanced, MinificationSimple};
    let model = alexa_model(CRAWL_MONTH, CRAWL_RANK);
    let weight_sum: f64 = model.weights.iter().sum();
    let whole = 1.0 - PARTIAL_SHARE;
    let mut shares = vec![
        (Kind::Partial(MinificationSimple), PARTIAL_SHARE / 2.0),
        (Kind::Partial(MinificationAdvanced), PARTIAL_SHARE / 2.0),
        (Kind::Regular, whole * (1.0 - model.transform_rate)),
    ];
    for (&t, &w) in Technique::ALL.iter().zip(&model.weights) {
        if w > 0.0 {
            shares.push((Kind::Transformed(t), whole * model.transform_rate * w / weight_sum));
        }
    }
    let exact: Vec<f64> = shares.iter().map(|(_, s)| s * CRAWL_SCRIPTS as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let remainder = |i: usize| exact[i] - exact[i].floor();
    let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
    by_remainder.sort_by(|&a, &b| remainder(b).total_cmp(&remainder(a)));
    let short = CRAWL_SCRIPTS - counts.iter().sum::<usize>();
    for &i in &by_remainder[..short] {
        counts[i] += 1;
    }
    let mut slots: Vec<(f64, Kind)> = shares
        .iter()
        .zip(&counts)
        .flat_map(|(&(kind, _), &c)| (0..c).map(move |j| ((j as f64 + 0.5) / c as f64, kind)))
        .collect();
    slots.sort_by(|a, b| a.0.total_cmp(&b.0));
    slots.into_iter().map(|(_, kind)| kind).collect()
}

/// Generator seed of the `index`-th draw (SplitMix64), so neighbouring
/// `--seed` values share no scripts.
fn draw_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One script of `kind` from generator seed `draw`, or `None` when its
/// transform fails or changes nothing.
fn make_script(kind: Kind, draw: u64) -> Option<String> {
    match kind {
        Kind::Regular => Some(RegularJsGenerator::new(draw).generate()),
        Kind::Transformed(t) => {
            transform_sample(&RegularJsGenerator::new(draw).generate(), &[t], draw).map(|s| s.src)
        }
        Kind::Partial(minifier) => {
            // Sizes as in the Alexa simulator: a 2-6 KiB library, a short page.
            let lib = GenOptions { min_bytes: 2048, max_bytes: 6 * 1024 };
            let page = GenOptions { min_bytes: 512, max_bytes: 900 };
            let lib = RegularJsGenerator::with_options(draw, lib).generate();
            let page = RegularJsGenerator::with_options(draw ^ 0x9a6e, page).generate();
            transform_sample(&lib, &[minifier], draw).map(|s| format!("{}\n{page}", s.src))
        }
    }
}

/// One crawl: [`CRAWL_SCRIPTS`] distinct scripts in the mix of
/// [`crawl_mix`], from the regular generator and transforms the
/// wild-population simulators use. A script whose transform fails, or a
/// duplicate, is drawn again, so the mix stays exact and a rescan's edits
/// never collide.
fn build_crawl(seed: u64) -> Result<Vec<String>, String> {
    let mut seen = HashSet::new();
    let mut crawl = Vec::with_capacity(CRAWL_SCRIPTS);
    let mut draws = 0u64;
    for kind in crawl_mix() {
        loop {
            if draws > 4 * CRAWL_SCRIPTS as u64 {
                return Err(format!(
                    "crawl stalled at {} scripts after {draws} draws",
                    crawl.len()
                ));
            }
            let draw = draw_seed(seed, draws);
            draws += 1;
            if let Some(src) = make_script(kind, draw).filter(|s| seen.insert(s.clone())) {
                crawl.push(src);
                break;
            }
        }
    }
    Ok(crawl)
}

/// The inputs and model the scanning and serving workloads share.
struct Fixture {
    crawl: Vec<String>,
    detectors: Arc<TrainedDetectors>,
}

impl Fixture {
    /// Generates the crawl and loads the deployed model from its JSON.
    fn build(seed: u64, model_json: &str) -> Result<Fixture, String> {
        let crawl = build_crawl(seed)?;
        let detectors =
            TrainedDetectors::from_json(model_json).map_err(|e| format!("load model: {e}"))?;
        Ok(Fixture { crawl, detectors: Arc::new(detectors) })
    }

    fn srcs(&self) -> Vec<&str> {
        self.crawl.iter().map(String::as_str).collect()
    }

    fn classify(&self, srcs: &[&str], cache: Option<&AnalysisCache>) -> Vec<ScriptVerdict> {
        classify_many_cached(
            srcs,
            &AnalysisConfig::default(),
            cache,
            &self.detectors,
            TOP_K,
            DEFAULT_THRESHOLD,
        )
    }

    /// The uncached verdicts outputs are checked against, computed with
    /// telemetry off so that no trace records them.
    fn reference(&self) -> Vec<ScriptVerdict> {
        let was_on = jsdetect_obs::enabled();
        jsdetect_obs::set_enabled(false);
        let verdicts = self.classify(&self.srcs(), None);
        jsdetect_obs::set_enabled(was_on);
        verdicts
    }
}

fn open_cache(dir: &Path) -> Result<AnalysisCache, String> {
    AnalysisCache::open(CacheConfig::new(dir, &AnalysisConfig::default().limits))
        .map_err(|e| format!("open cache {}: {e}", dir.display()))
}

/// Whether `got` is the full-analysis verdict `want` (the uncached
/// reference for the same bytes): same outcome, bit-identical level-1 and
/// level-2 probabilities, same reported techniques.
fn same_verdict(got: &ScriptVerdict, want: &ScriptVerdict) -> bool {
    got.outcome == OutcomeKind::Ok
        && got.outcome == want.outcome
        && got.level1 == want.level1
        && got.level2 == want.level2
        && got.techniques == want.techniques
}

// ---------------------------------------------------------- workloads

fn cold_scan(args: &Args) -> Result<Run, String> {
    let mut host = HostSpeed::default();
    let (setup_s, fixture) = set_up(&mut host, || Fixture::build(args.seed, &args.model_json()?))?;
    let srcs = fixture.srcs();
    let reference = fixture.reference();
    start_trace(args.trace);
    let window = measure(args.seconds, &mut host, |_| {
        let t0 = Instant::now();
        let verdicts = fixture.classify(&srcs, None);
        let dt = t0.elapsed();
        let failed = verdicts.iter().zip(&reference).filter(|(v, r)| !same_verdict(v, r)).count();
        Ok((dt, srcs.len() as u64, failed as u64))
    })?;
    let trace = end_trace(args.trace);
    let items_per_s = busy_rate(&window);
    Ok(Run { setup_s, items_per_s, window, run_ok: true, trace, serve: None, host })
}

/// Whether script `i` is edited before rescan pass `pass`.
fn is_edited(i: usize, pass: usize) -> bool {
    i % EDIT_EVERY == pass % EDIT_EVERY
}

fn rescan(args: &Args) -> Result<Run, String> {
    // The previous scan's store, which a rescanning process finds on disk:
    // populated once, outside set-up, whose time would otherwise be the
    // host's small-file disk writes. The work directory goes when the run
    // ends.
    let store = args.work_dir.join("store");
    let previous = Fixture::build(args.seed, &args.model_json()?)?;
    previous.classify(&previous.srcs(), Some(&open_cache(&store)?));
    drop(previous);
    let mut host = HostSpeed::default();
    let (setup_s, fixture) = set_up(&mut host, || Fixture::build(args.seed, &args.model_json()?))?;
    let srcs = fixture.srcs();
    let reference = fixture.reference();
    start_trace(args.trace);
    let window = measure(args.seconds, &mut host, |k| {
        // A fresh edit every pass, so edited scripts always miss.
        let edited: Vec<Option<String>> = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| is_edited(i, k).then(|| format!("{s}\n// crawl {k}\n")))
            .collect();
        let batch: Vec<&str> =
            srcs.iter().zip(&edited).map(|(s, e)| e.as_deref().unwrap_or(s)).collect();
        let t0 = Instant::now();
        let verdicts = fixture.classify(&batch, Some(&open_cache(&store)?));
        let dt = t0.elapsed();
        let failed = verdicts
            .iter()
            .zip(&reference)
            .enumerate()
            .filter(|(i, (v, r))| {
                if is_edited(*i, k) {
                    v.from_cache || v.outcome != OutcomeKind::Ok
                } else {
                    !v.from_cache || !same_verdict(v, r)
                }
            })
            .count();
        Ok((dt, batch.len() as u64, failed as u64))
    })?;
    let trace = end_trace(args.trace);
    let items_per_s = busy_rate(&window);
    Ok(Run { setup_s, items_per_s, window, run_ok: true, trace, serve: None, host })
}

/// A daemon behind its TCP transport on a loopback port.
struct Server {
    addr: SocketAddr,
    shutdown: &'static AtomicBool,
    thread: Option<std::thread::JoinHandle<std::io::Result<ShutdownReport>>>,
}

impl Server {
    fn start(detectors: Arc<TrainedDetectors>) -> Result<Server, String> {
        let cfg = ServeConfig { workers: SERVE_WORKERS, ..ServeConfig::default() };
        let daemon = Arc::new(Daemon::start(cfg, detectors, None));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("local address: {e}"))?;
        // `serve` polls a flag that must outlive it; one small leak per
        // set-up.
        let shutdown: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let thread = std::thread::Builder::new()
            .name("bench-serve".into())
            .spawn(move || serve(daemon, listener, TransportConfig::default(), shutdown))
            .map_err(|e| format!("spawn server: {e}"))?;
        Ok(Server { addr, shutdown, thread: Some(thread) })
    }

    /// Stops accepting, drains the daemon and returns its final accounting.
    fn stop(&mut self) -> Result<ShutdownReport, String> {
        self.shutdown.store(true, Ordering::Release);
        let thread = self.thread.take().ok_or("server already stopped")?;
        thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.stop();
        }
    }
}

/// What one closed-loop client saw.
#[derive(Default)]
struct ClientLog {
    /// Round trip per request, milliseconds.
    rtt_ms: Vec<f64>,
    /// Summed daemon-reported admission-to-response times, µs.
    daemon_us: u64,
    failed: u64,
}

/// Whether a daemon answer is the full-mode verdict the offline pipeline
/// gives for the same bytes.
fn response_matches(r: &AnalyzeResponse, want: &ScriptVerdict) -> bool {
    let Some(l1) = want.level1 else { return false };
    r.status == "ok"
        && !r.degraded_mode
        && !r.from_cache
        && r.outcome == want.outcome.as_str()
        && r.transformed == want.is_transformed()
        && (r.regular, r.minified, r.obfuscated) == (l1.regular, l1.minified, l1.obfuscated)
        && r.techniques.iter().map(String::as_str).eq(want.techniques.iter().map(|t| t.as_str()))
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    Ok(stream)
}

/// One closed-loop client: walks the crawl from script `*next`, one framed
/// request in flight on `stream`, until `stop_at`, and leaves `*next` at
/// the script it would have sent next.
fn client(
    stream: &mut TcpStream,
    crawl: &[String],
    reference: &[ScriptVerdict],
    next: &mut usize,
    stop_at: Instant,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    let i = next;
    while Instant::now() < stop_at {
        let t0 = Instant::now();
        let body = {
            let _e = jsdetect_obs::span(SPAN_ENCODE);
            serde_json::to_string(&AnalyzeRequest::new(crawl[*i].as_str()))
                .map_err(|e| format!("encode: {e}"))?
        };
        write_frame(stream, body.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let frame = read_frame(stream, MAX_FRAME)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("daemon closed the connection")?;
        let resp = {
            let _d = jsdetect_obs::span(SPAN_DECODE);
            let text = std::str::from_utf8(&frame).map_err(|_| "response is not UTF-8")?;
            serde_json::from_str::<AnalyzeResponse>(text).map_err(|e| format!("decode: {e}"))?
        };
        log.rtt_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        log.daemon_us += resp.latency_us;
        if !response_matches(&resp, &reference[*i]) {
            log.failed += 1;
        }
        *i = (*i + 1) % crawl.len();
    }
    Ok(log)
}

fn serve_workload(args: &Args) -> Result<Run, String> {
    let mut host = HostSpeed::default();
    let (setup_s, (fixture, mut server)) = set_up(&mut host, || {
        let fixture = Fixture::build(args.seed, &args.model_json()?)?;
        let server = Server::start(Arc::clone(&fixture.detectors))?;
        Ok((fixture, server))
    })?;
    let reference = fixture.reference();
    let mut streams =
        (0..SERVE_CLIENTS).map(|_| connect(server.addr)).collect::<Result<Vec<_>, _>>()?;
    let mut next: Vec<usize> =
        (0..SERVE_CLIENTS).map(|c| c * fixture.crawl.len() / SERVE_CLIENTS).collect();
    let mut window = Window::default();
    // Raw sums for the trace; `busy_s` is scaled to the reference host.
    let (mut rtt_sum_ms, mut daemon_sum_us, mut busy_s) = (0.0, 0u64, 0.0);
    start_trace(args.trace);
    let start = Instant::now();
    // Rounds of closed-loop traffic, with the clients idle while the host
    // is calibrated between them; connections stay open across rounds.
    while start.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let stop_at = t0 + Duration::from_secs_f64(CALIBRATE_EVERY_S);
        let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter_mut()
                .zip(next.iter_mut())
                .map(|(stream, next)| {
                    let (crawl, reference) = (&fixture.crawl, &reference);
                    scope.spawn(move || client(stream, crawl, reference, next, stop_at))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
                .collect()
        });
        let round_s = t0.elapsed().as_secs_f64();
        let f = host.factor();
        busy_s += round_s * f;
        for log in logs {
            let log = log?;
            rtt_sum_ms += log.rtt_ms.iter().sum::<f64>();
            daemon_sum_us += log.daemon_us;
            window.failed += log.failed;
            window.op_ms.extend(log.rtt_ms.iter().map(|ms| ms * f));
        }
    }
    let trace = end_trace(args.trace);
    drop(streams);
    let shutdown = server.stop()?;

    let n = window.op_ms.len() as u64;
    window.attempted = n;
    let daemon_us = daemon_sum_us as f64 / n.max(1) as f64;
    let stats = shutdown.stats;
    // Full mode at a sustainable load: nothing refused, nothing served
    // degraded, the breaker never left closed, every request answered.
    let run_ok = stats.rejected == 0
        && stats.degraded == 0
        && stats.quarantined == 0
        && stats.accepted == stats.responses
        && shutdown.breaker_state == BreakerState::Closed;
    Ok(Run {
        setup_s,
        items_per_s: n as f64 / busy_s,
        window,
        run_ok,
        trace,
        serve: Some(ServeTimes {
            daemon_us,
            wire_us: rtt_sum_ms * 1e3 / n.max(1) as f64 - daemon_us,
        }),
        host,
    })
}

/// The `train` workload's model: the two-level protocol on the fixed
/// corpus, forests seeded from `seed`.
fn train_detectors(seed: u64) -> PipelineOutput {
    train_pipeline(TRAIN_SCRIPTS, TRAIN_CORPUS_SEED, &DetectorConfig::fast().with_seed(seed))
}

fn to_json(out: &PipelineOutput) -> Result<String, String> {
    out.detectors.to_json().map_err(|e| format!("serialize model: {e}"))
}

fn train(args: &Args) -> Result<Run, String> {
    let mut host = HostSpeed::default();
    let (setup_s, model) = set_up(&mut host, || to_json(&train_detectors(args.seed)))?;
    start_trace(args.trace);
    let window = measure(args.seconds, &mut host, |_| {
        let t0 = Instant::now();
        let out = train_detectors(args.seed);
        let dt = t0.elapsed();
        // Retraining on the same seed must reproduce the set-up's model
        // byte for byte.
        Ok((dt, 1, u64::from(to_json(&out)? != model)))
    })?;
    let trace = end_trace(args.trace);
    Ok(Run {
        setup_s,
        // Source scripts per second; trace metrics stay per training run.
        items_per_s: busy_rate(&window) * TRAIN_SCRIPTS as f64,
        window,
        run_ok: true,
        trace,
        serve: None,
        host,
    })
}
