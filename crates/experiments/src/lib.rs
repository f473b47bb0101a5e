//! Shared harness for the per-table / per-figure experiment binaries.
//!
//! Every table/figure binary accepts `--scale <f64>` (dataset size
//! multiplier, default 1.0) and `--seed <u64>` (default 42), prints the
//! paper-shaped rows to stdout, and writes a JSON record under `results/`.

use jsdetect::{
    classify_many_cached, held_out_pools, train_pipeline, AnalysisConfig, DetectorConfig,
    HeldOutPools, Level1Prediction, OutcomeKind, ScriptVerdict, Technique, TrainedDetectors,
    DEFAULT_THRESHOLD,
};
use jsdetect_corpus::{GroundTruth, LabeledSample};
use jsdetect_ml::metrics;
use serde::Serialize;
use serde_json::JsonValue;
use std::path::{Path, PathBuf};

/// A file-IO failure with enough context to act on: the operation that was
/// attempted, the path it was attempted on, and the OS rendering.
///
/// The experiment binaries historically printed IO failures to stderr and
/// exited 0, which made a full result sweep impossible to trust — a
/// missing `results/` directory silently produced no files. Every file
/// operation in this crate now surfaces one of these, and the bins exit
/// non-zero through [`or_exit`].
#[derive(Debug)]
pub struct IoError {
    /// What was being attempted (`"write"`, `"create directory"`, ...).
    pub op: &'static str,
    /// The path the operation failed on.
    pub path: PathBuf,
    /// The underlying error rendering.
    pub msg: String,
}

impl IoError {
    fn new(op: &'static str, path: impl Into<PathBuf>, e: impl std::fmt::Display) -> IoError {
        IoError { op, path: path.into(), msg: e.to_string() }
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot {} {}: {}", self.op, self.path.display(), self.msg)
    }
}

impl std::error::Error for IoError {}

/// Unwraps an experiment result, exiting non-zero with the path-rich
/// rendering on failure — the shared error boundary of every experiment
/// binary.
pub fn or_exit<T>(r: Result<T, IoError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("[experiments] {}", e);
        std::process::exit(1);
    })
}

/// Base number of regular source scripts at `--scale 1.0`. The paper uses
/// 21,000; experiments here default to laptop scale.
pub const BASE_TRAIN_SCRIPTS: usize = 240;

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Dataset size multiplier.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Output directory for JSON results.
    pub out_dir: PathBuf,
}

impl Args {
    /// Parses `--scale`, `--seed`, and `--out` from `std::env::args`.
    pub fn parse() -> Args {
        let mut args = Args { scale: 1.0, seed: 42, out_dir: PathBuf::from("results") };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--scale" => {
                    i += 1;
                    args.scale = argv.get(i).and_then(|v| v.parse().ok()).unwrap_or(1.0);
                }
                "--seed" => {
                    i += 1;
                    args.seed = argv.get(i).and_then(|v| v.parse().ok()).unwrap_or(42);
                }
                "--out" => {
                    i += 1;
                    if let Some(v) = argv.get(i) {
                        args.out_dir = PathBuf::from(v);
                    }
                }
                _ => {}
            }
            i += 1;
        }
        args
    }

    /// Scales a base count.
    pub fn scaled(&self, base: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(4)
    }

    /// Number of training source scripts.
    pub fn n_train(&self) -> usize {
        self.scaled(BASE_TRAIN_SCRIPTS)
    }
}

/// Trains the detectors, reusing a JSON cache under `results/` so the
/// experiment binaries share one training run per (seed, n). Returns the
/// detectors along with the held-out pools of their training corpus.
///
/// # Errors
///
/// Returns a path-contextualized [`IoError`] when the output directory
/// cannot be created or the freshly trained model cannot be persisted
/// (a *read* failure on the model cache just falls through to retraining —
/// a missing cache is the normal first run).
pub fn train_cached(args: &Args) -> Result<(TrainedDetectors, HeldOutPools), IoError> {
    let n = args.n_train();
    let cfg = DetectorConfig::default().with_seed(args.seed);
    let cache = args.out_dir.join(format!("model_n{}_s{}.json", n, args.seed));
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| IoError::new("create directory", &args.out_dir, e))?;
    if let Ok(json) = std::fs::read_to_string(&cache) {
        if let Ok(detectors) = TrainedDetectors::from_json(&json) {
            eprintln!("[experiments] loaded cached detectors from {}", cache.display());
            return Ok((detectors, held_out_pools(&GroundTruth::generate(n, args.seed))));
        }
    }
    eprintln!("[experiments] training detectors (n={}, seed={})...", n, args.seed);
    let t0 = std::time::Instant::now();
    let out = train_pipeline(n, args.seed, &cfg);
    eprintln!("[experiments] trained in {:.1?}", t0.elapsed());
    match out.detectors.to_json() {
        Ok(json) => {
            std::fs::write(&cache, json).map_err(|e| IoError::new("write", &cache, e))?;
        }
        Err(e) => eprintln!("[experiments] could not serialize model: {}", e),
    }
    Ok((out.detectors, out.pools))
}

/// Writes a JSON result record, returning the path it landed on.
///
/// # Errors
///
/// Returns a path-contextualized [`IoError`] when the output directory
/// cannot be created or the record cannot be written or serialized.
pub fn write_json<T: Serialize>(args: &Args, name: &str, value: &T) -> Result<PathBuf, IoError> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| IoError::new("create directory", &args.out_dir, e))?;
    let path = args.out_dir.join(format!("{}.json", name));
    let json =
        serde_json::to_string_pretty(value).map_err(|e| IoError::new("serialize", &path, e))?;
    std::fs::write(&path, json).map_err(|e| IoError::new("write", &path, e))?;
    eprintln!("[experiments] wrote {}", path.display());
    Ok(path)
}

/// The persisted perf record, relative to the repository root: the
/// perfbench trajectory `bench_report` ingests plus the headline blocks
/// the studies write.
pub const BENCH_FILE: &str = "BENCH_ml.json";

/// Reads [`BENCH_FILE`]'s top-level object (empty when the file does not
/// exist yet).
///
/// # Errors
///
/// Returns an [`IoError`] when the file cannot be read, does not parse,
/// or is not a JSON object.
pub fn read_bench_file() -> Result<JsonValue, IoError> {
    read_bench_at(Path::new(BENCH_FILE)).map(JsonValue::Obj)
}

/// Replaces the top-level `key` of [`BENCH_FILE`] with `value` (appending
/// it when absent), keeping every other block as it was, and pretty-writes
/// the file. The one writer of the file.
///
/// # Errors
///
/// Returns an [`IoError`] when the file cannot be read, parsed or written.
pub fn merge_bench_block(key: &str, value: JsonValue) -> Result<(), IoError> {
    merge_bench_block_at(Path::new(BENCH_FILE), key, value)
}

/// The top-level entries of the object at `path`.
fn read_bench_at(path: &Path) -> Result<Vec<(String, JsonValue)>, IoError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(IoError::new("read", path, e)),
    };
    match serde_json::from_str(&text).map_err(|e| IoError::new("parse", path, e))? {
        JsonValue::Obj(entries) => Ok(entries),
        other => {
            Err(IoError::new("parse", path, format!("expected an object, found {}", other.kind())))
        }
    }
}

fn merge_bench_block_at(path: &Path, key: &str, value: JsonValue) -> Result<(), IoError> {
    let mut entries = read_bench_at(path)?;
    match entries.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => *slot = value,
        None => entries.push((key.to_string(), value)),
    }
    let json = serde_json::to_string_pretty(&JsonValue::Obj(entries))
        .map_err(|e| IoError::new("serialize", path, e))?;
    std::fs::write(path, json).map_err(|e| IoError::new("write", path, e))?;
    eprintln!("[experiments] merged `{}` into {}", key, path.display());
    Ok(())
}

/// Classifies `srcs` once under trusted limits, without a verdict cache,
/// with the paper's Top-4 rule at [`DEFAULT_THRESHOLD`]. Keeps the verdict
/// of every script whose analysis is `Ok` and yields `None` for degraded
/// or rejected ones, as the paper skips files that do not parse. Every
/// number the experiments report is read from these verdicts.
pub fn classify_ok(detectors: &TrainedDetectors, srcs: &[&str]) -> Vec<Option<ScriptVerdict>> {
    classify_many_cached(srcs, &AnalysisConfig::trusted(), None, detectors, 4, DEFAULT_THRESHOLD)
        .into_iter()
        .map(|v| (v.outcome == OutcomeKind::Ok).then_some(v))
        .collect()
}

/// `100 * hits / n`, reading an empty set as 0%.
pub fn pct(hits: usize, n: usize) -> f64 {
    100.0 * hits as f64 / n.max(1) as f64
}

/// `(flagged transformed, kept)` level-1 counts over a classification's
/// kept verdicts.
pub fn transformed_hits(verdicts: &[Option<ScriptVerdict>]) -> (usize, usize) {
    let kept = verdicts.iter().flatten();
    (kept.clone().filter(|v| v.is_transformed()).count(), kept.count())
}

/// Level-1 `(correct, scored)` counts per held-out class (Test Set 1,
/// §III-E1), over the kept verdicts of each class's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Level1Score {
    /// Regular scripts are correct when not flagged transformed.
    pub regular: (usize, usize),
    /// Minified scripts are correct when the minified flag fires.
    pub minified: (usize, usize),
    /// Obfuscated scripts are correct when the obfuscated flag fires.
    pub obfuscated: (usize, usize),
}

impl Level1Score {
    /// Scores the verdicts of the regular, minified and obfuscated pools.
    pub fn of(
        regular: &[Option<ScriptVerdict>],
        minified: &[Option<ScriptVerdict>],
        obfuscated: &[Option<ScriptVerdict>],
    ) -> Level1Score {
        let hits = |verdicts: &[Option<ScriptVerdict>], correct: fn(&Level1Prediction) -> bool| {
            let preds: Vec<Level1Prediction> =
                verdicts.iter().flatten().filter_map(|v| v.level1).collect();
            (preds.iter().filter(|p| correct(p)).count(), preds.len())
        };
        Level1Score {
            regular: hits(regular, |p| !p.is_transformed()),
            minified: hits(minified, |p| p.minified >= 0.5),
            obfuscated: hits(obfuscated, |p| p.obfuscated >= 0.5),
        }
    }

    /// Accuracy (%) over all three classes.
    pub fn overall_pct(&self) -> f64 {
        let [r, m, o] = [self.regular, self.minified, self.obfuscated];
        pct(r.0 + m.0 + o.0, r.1 + m.1 + o.1)
    }
}

/// The level-2 probabilities of the kept verdicts, paired with the label
/// vectors of their `samples` (verdicts in sample order).
pub fn level2_kept(
    verdicts: &[Option<ScriptVerdict>],
    samples: &[LabeledSample],
) -> (Vec<Vec<f32>>, Vec<Vec<bool>>) {
    verdicts
        .iter()
        .zip(samples)
        .filter_map(|(v, s)| Some((v.as_ref()?.level2.clone()?, s.label_vector())))
        .unzip()
}

/// Level-2 exact-set accuracy (%) of `probs` thresholded at 0.5 against
/// `truth` (§III-E1).
pub fn exact_match_pct(probs: &[Vec<f32>], truth: &[Vec<bool>]) -> f64 {
    let hard: Vec<Vec<bool>> =
        probs.iter().map(|p| p.iter().map(|v| *v >= 0.5).collect()).collect();
    100.0 * metrics::exact_match(&hard, truth)
}

/// Mean per-technique probability over the verdicts flagged transformed —
/// the quantity plotted in the paper's Figures 2/3/5/7/8 ("average
/// probability of a given technique being used, based on our detector
/// confidence score") — and the number of such verdicts.
pub fn technique_usage_probability(verdicts: &[Option<ScriptVerdict>]) -> ([f64; 10], usize) {
    let mut sums = [0f64; 10];
    let mut n = 0usize;
    let transformed = verdicts.iter().flatten().filter(|v| v.is_transformed());
    for p in transformed.filter_map(|v| v.level2.as_ref()) {
        for (i, v) in p.iter().enumerate() {
            sums[i] += *v as f64;
        }
        n += 1;
    }
    if n > 0 {
        for s in &mut sums {
            *s /= n as f64;
        }
    }
    (sums, n)
}

/// Prints a technique-probability table row set.
pub fn print_technique_table(title: &str, probs: &[f64; 10]) {
    println!("\n{}", title);
    println!("{:-<58}", "");
    let mut rows: Vec<(usize, f64)> = probs.iter().copied().enumerate().collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (i, p) in rows {
        println!("  {:26} {:6.2}%", Technique::ALL[i].as_str(), p * 100.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_rounds_and_floors() {
        let args = Args { scale: 0.5, seed: 1, out_dir: PathBuf::from("/tmp") };
        assert_eq!(args.scaled(100), 50);
        assert_eq!(args.scaled(1), 4, "minimum floor");
        assert_eq!(args.n_train(), BASE_TRAIN_SCRIPTS / 2);
    }

    #[test]
    fn classify_ok_keeps_ok_outcomes_only() {
        let detectors = train_pipeline(24, 11, &DetectorConfig::fast()).detectors;
        let valid = "function add(a, b) { return a + b; } add(1, 2);";
        let bomb = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
        let v = classify_ok(&detectors, &[valid, "var ;;; broken", bomb.as_str()]);
        let ok = v[0].as_ref().expect("a valid script is kept");
        let payload = jsdetect_features::analyze(valid, &jsdetect::Limits::trusted())
            .into_ok()
            .expect("a valid script analyzes fully");
        let level1 = Level1Prediction::from_probs(&detectors.level1.predict(&payload));
        assert_eq!(ok.level1, Some(level1));
        assert_eq!(ok.level2, Some(detectors.level2.predict(&payload)));
        assert!(v[1].is_none(), "a script that degrades under trusted limits is skipped");
        assert!(v[2].is_none(), "a rejected script is skipped");
    }

    #[test]
    fn merging_one_block_keeps_every_other_block() {
        let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(BENCH_FILE);
        let before = read_bench_at(&committed).expect("committed BENCH_ml.json reads");
        let dir = std::env::temp_dir().join(format!("jsdetect-merge-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(BENCH_FILE);
        std::fs::copy(&committed, &path).unwrap();

        let block = JsonValue::Obj(vec![("n".to_string(), JsonValue::Int(7))]);
        merge_bench_block_at(&path, "normalize", block.clone()).unwrap();
        merge_bench_block_at(&path, "fresh", JsonValue::Bool(true)).unwrap();
        let after = read_bench_at(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(after.len(), before.len() + 1);
        for ((key, old), (new_key, new)) in before.iter().zip(&after) {
            assert_eq!(key, new_key, "blocks keep their order");
            let expected = if key == "normalize" { &block } else { old };
            assert_eq!(new, expected, "block `{}`", key);
        }
        assert_eq!(after.last(), Some(&("fresh".to_string(), JsonValue::Bool(true))));
        assert!(before
            .iter()
            .any(|(k, v)| k == "trajectory" && v.as_arr().is_some_and(|t| !t.is_empty())));
    }

    #[test]
    fn a_missing_bench_file_reads_as_empty() {
        let path = std::env::temp_dir().join("jsdetect-no-such-dir").join(BENCH_FILE);
        assert!(read_bench_at(&path).unwrap().is_empty());
    }
}
