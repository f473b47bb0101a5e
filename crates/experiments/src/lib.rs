//! Shared harness for the per-table / per-figure experiment binaries.
//!
//! Every table/figure binary accepts `--scale <f64>` (dataset size
//! multiplier, default 1.0) and `--seed <u64>` (default 42), prints the
//! paper-shaped rows to stdout, and writes a JSON record under `results/`.

use jsdetect::{train_pipeline, DetectorConfig, Technique};
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

/// The held-out evaluation pools the experiments share.
#[derive(Debug)]
pub struct Pools {
    /// Held-out regular samples.
    pub test_regular: Vec<jsdetect_corpus::LabeledSample>,
    /// Held-out minified samples.
    pub test_minified: Vec<jsdetect_corpus::LabeledSample>,
    /// Held-out obfuscated samples.
    pub test_obfuscated: Vec<jsdetect_corpus::LabeledSample>,
    /// Held-out per-technique samples.
    pub test_level2: Vec<jsdetect_corpus::LabeledSample>,
    /// Validation regular samples.
    pub validation_regular: Vec<jsdetect_corpus::LabeledSample>,
}

/// Rebuilds the deterministic held-out pools for `(n, seed)`.
pub fn make_pools(n: usize, seed: u64) -> Pools {
    let gt = jsdetect_corpus::GroundTruth::generate(n, seed);
    let train_end = n / 2;
    let test_end = n / 2 + n / 4;
    let slice = |t: Technique| {
        let pool = gt.pool(t);
        pool[train_end.min(pool.len())..test_end.min(pool.len())].to_vec()
    };
    let mut test_minified = Vec::new();
    for t in [Technique::MinificationSimple, Technique::MinificationAdvanced] {
        test_minified.extend(slice(t));
    }
    let mut test_obfuscated = Vec::new();
    for t in Technique::ALL.iter().filter(|t| !t.is_minification()) {
        test_obfuscated.extend(slice(*t));
    }
    let mut test_level2 = Vec::new();
    for t in Technique::ALL {
        test_level2.extend(slice(t));
    }
    Pools {
        test_regular: gt.regular[train_end..test_end].to_vec(),
        test_minified,
        test_obfuscated,
        test_level2,
        validation_regular: gt.regular[test_end..].to_vec(),
    }
}

/// Trains the detectors, reusing a JSON cache under `results/` so the
/// experiment binaries share one training run per (seed, n). Returns the
/// detectors along with the deterministic held-out pools.
///
/// # Errors
///
/// Returns a path-contextualized [`IoError`] when the output directory
/// cannot be created or the freshly trained model cannot be persisted
/// (a *read* failure on the model cache just falls through to retraining —
/// a missing cache is the normal first run).
pub fn train_cached(args: &Args) -> Result<(jsdetect::TrainedDetectors, Pools), IoError> {
    let n = args.n_train();
    let cfg = DetectorConfig::default().with_seed(args.seed);
    let cache = args.out_dir.join(format!("model_n{}_s{}.json", n, args.seed));
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| IoError::new("create directory", &args.out_dir, e))?;
    if let Ok(json) = std::fs::read_to_string(&cache) {
        if let Ok(detectors) = jsdetect::TrainedDetectors::from_json(&json) {
            eprintln!("[experiments] loaded cached detectors from {}", cache.display());
            return Ok((detectors, make_pools(n, args.seed)));
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
    let pools = Pools {
        test_regular: out.test_regular,
        test_minified: out.test_minified,
        test_obfuscated: out.test_obfuscated,
        test_level2: out.test_level2,
        validation_regular: out.validation_regular,
    };
    Ok((out.detectors, pools))
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

/// Mean per-technique probability over scripts flagged transformed —
/// the quantity plotted in the paper's Figures 2/3/5/7/8 ("average
/// probability of a given technique being used, based on our detector
/// confidence score").
pub fn technique_usage_probability(
    detectors: &jsdetect::TrainedDetectors,
    srcs: &[&str],
) -> ([f64; 10], usize) {
    let l1 = detectors.level1.predict_many(srcs);
    let transformed: Vec<&str> = srcs
        .iter()
        .zip(&l1)
        .filter(|(_, p)| p.map(|p| p.is_transformed()).unwrap_or(false))
        .map(|(s, _)| *s)
        .collect();
    let probs = detectors.level2.predict_proba_many(&transformed);
    let mut sums = [0f64; 10];
    let mut n = 0usize;
    for p in probs.into_iter().flatten() {
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
    fn pools_are_deterministic_and_disjoint_sized() {
        let a = make_pools(16, 3);
        let b = make_pools(16, 3);
        assert_eq!(a.test_regular.len(), b.test_regular.len());
        assert_eq!(a.test_regular.len(), 4); // n/4
        assert_eq!(a.validation_regular.len(), 4);
        assert!(a.test_regular.iter().zip(&b.test_regular).all(|(x, y)| x.src == y.src));
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
