//! Ingests perfbench results into the perf trajectory in `BENCH_ml.json`.
//!
//! ```text
//! bench_report --label <name> --run-seconds <s> <workload>=<file>...
//! ```
//!
//! Each file holds perfbench result lines: the last line of standard
//! output of `python3 perfbench/run.py`, one per run. `--trace 0` lines
//! (end-to-end metrics) and `--trace 1` lines (per-layer metrics) may be
//! mixed, since metrics are keyed by name. For each workload the entry
//! keeps the min, median and median absolute deviation of every metric
//! over the lines that carry it, plus the commit, feature-space version,
//! core count and run length it was measured at. An existing entry with
//! the same label is replaced; every other entry and top-level block is
//! kept as it is. Nothing is timed here: perfbench is the only harness.
//!
//! Refused, with nothing written: a line that is not a perfbench result,
//! a run that was not `correct` or had failed operations, a workload
//! `BENCHMARK.json` does not declare, and a workload with fewer than
//! [`MIN_END_TO_END_RUNS`] end-to-end lines (a noise band needs repeats).

use jsdetect_experiments::{merge_bench_block, or_exit, read_bench_file};
use serde::{Deserialize, Serialize};
use serde_json::JsonValue;
use std::collections::BTreeMap;

/// End-to-end lines a workload needs before its spread means anything.
const MIN_END_TO_END_RUNS: usize = 3;

/// The benchmark declaration: which workloads exist and which metrics are
/// end-to-end.
#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Named>,
    end_to_end: Vec<Named>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

/// One perfbench result line.
#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, Measured>,
}

#[derive(Deserialize)]
struct Measured {
    value: f64,
    unit: String,
}

/// One metric over the lines that carry it.
#[derive(Serialize, Debug, PartialEq)]
struct Stat {
    unit: String,
    min: f64,
    median: f64,
    mad: f64,
}

#[derive(Serialize, Debug)]
struct Workload {
    /// Result lines ingested, end-to-end and traced.
    runs: usize,
    metrics: BTreeMap<String, Stat>,
}

#[derive(Serialize)]
struct Entry {
    label: String,
    git_sha: Option<String>,
    feature_space_version: u32,
    cores: usize,
    run_seconds: u64,
    source: String,
    workloads: BTreeMap<String, Workload>,
}

/// Median of a non-empty slice (mean of the middle two for even lengths).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Min, median and median absolute deviation of a non-empty slice.
fn stat(unit: &str, values: &[f64]) -> Stat {
    let med = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    Stat {
        unit: unit.to_string(),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        median: med,
        mad: median(&deviations),
    }
}

/// Summarizes one workload's result lines, refusing bad runs.
fn workload(bench: &Benchmark, name: &str, text: &str) -> Result<Workload, String> {
    if !bench.workloads.iter().any(|w| w.name == name) {
        return Err(format!("workload `{}` is not declared in BENCHMARK.json", name));
    }
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let (mut runs, mut end_to_end_runs) = (0, 0);
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = format!("line {}", i + 1);
        let run: ResultLine = serde_json::from_str(line)
            .map_err(|e| format!("{}: not a perfbench result ({})", at, e))?;
        if !run.correct || run.failed != 0 {
            return Err(format!(
                "{}: refused a run with correct={} failed={}",
                at, run.correct, run.failed
            ));
        }
        runs += 1;
        if run.metrics.keys().any(|m| bench.end_to_end.iter().any(|e| e.name == *m)) {
            end_to_end_runs += 1;
        }
        for (metric, m) in run.metrics {
            let (unit, vs) =
                values.entry(metric.clone()).or_insert_with(|| (m.unit.clone(), vec![]));
            if *unit != m.unit {
                return Err(format!("{}: `{}` in {} after {}", at, metric, m.unit, unit));
            }
            vs.push(m.value);
        }
    }
    if end_to_end_runs < MIN_END_TO_END_RUNS {
        return Err(format!(
            "workload `{}` has {} end-to-end lines, needs at least {}",
            name, end_to_end_runs, MIN_END_TO_END_RUNS
        ));
    }
    let metrics = values.into_iter().map(|(k, (unit, vs))| (k, stat(&unit, &vs))).collect();
    Ok(Workload { runs, metrics })
}

/// `trajectory` with `entry` appended, replacing any entry of the same label.
fn with_entry(trajectory: &[JsonValue], entry: JsonValue) -> Vec<JsonValue> {
    let label = entry.get("label").cloned();
    let mut out: Vec<JsonValue> =
        trajectory.iter().filter(|e| e.get("label") != label.as_ref()).cloned().collect();
    out.push(entry);
    out
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

fn usage(msg: &str) -> ! {
    eprintln!(
        "bench_report: {}\nusage: bench_report --label <name> --run-seconds <s> <workload>=<file>...",
        msg
    );
    std::process::exit(2);
}

fn refuse(msg: &str) -> ! {
    eprintln!("bench_report: {}", msg);
    std::process::exit(1);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut label, mut run_seconds, mut inputs) = (None, None, Vec::new());
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--label" => label = it.next().cloned(),
            "--run-seconds" => run_seconds = it.next().and_then(|v| v.parse::<u64>().ok()),
            _ => match arg.split_once('=') {
                Some((w, file)) if !arg.starts_with('-') => inputs.push((w, file)),
                _ => usage(&format!("unknown argument `{}`", arg)),
            },
        }
    }
    let label = label.unwrap_or_else(|| usage("--label is required"));
    let run_seconds = run_seconds.unwrap_or_else(|| usage("--run-seconds <integer> is required"));
    if inputs.is_empty() {
        usage("no <workload>=<file> inputs");
    }

    let bench: Benchmark = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
        .unwrap_or_else(|e| refuse(&format!("cannot read BENCHMARK.json: {}", e)));
    let mut workloads = BTreeMap::new();
    for (w, file) in inputs {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| refuse(&format!("cannot read {}: {}", file, e)));
        let summary =
            workload(&bench, w, &text).unwrap_or_else(|e| refuse(&format!("{}: {}", file, e)));
        if workloads.insert(w.to_string(), summary).is_some() {
            usage(&format!("workload `{}` given twice", w));
        }
    }

    for (w, s) in &workloads {
        println!("{} ({} runs)", w, s.runs);
        for (name, m) in &s.metrics {
            println!(
                "  {:26} {:>12.4} {:6} min {:.4} mad {:.4}",
                name, m.median, m.unit, m.min, m.mad
            );
        }
    }
    let entry = Entry {
        label,
        git_sha: git_sha(),
        feature_space_version: jsdetect_features::FEATURE_SPACE_VERSION,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        run_seconds,
        source: "perfbench".to_string(),
        workloads,
    };
    let root = or_exit(read_bench_file());
    let trajectory = root.get("trajectory").and_then(JsonValue::as_arr).unwrap_or(&[]);
    or_exit(merge_bench_block(
        "trajectory",
        JsonValue::Arr(with_entry(trajectory, entry.to_value())),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> Benchmark {
        let spec = include_str!("../../../../BENCHMARK.json");
        serde_json::from_str(spec).expect("BENCHMARK.json parses")
    }

    fn line(correct: bool, failed: u64, metrics: &[(&str, f64)]) -> String {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{}\": {{\"value\": {}, \"unit\": \"ms\"}}", n, v))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": 10, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            failed,
            metrics.join(", ")
        )
    }

    fn e2e(p50: f64) -> String {
        line(true, 0, &[("op_p50_ms", p50)])
    }

    #[test]
    fn min_median_mad_on_known_inputs() {
        let s = stat("ms", &[3.0, 1.0, 100.0, 2.0, 4.0]);
        assert_eq!(s, Stat { unit: "ms".into(), min: 1.0, median: 3.0, mad: 1.0 });
        let even = stat("ms", &[4.0, 1.0, 2.0, 10.0]);
        assert_eq!((even.min, even.median, even.mad), (1.0, 3.0, 1.5));
        let one = stat("us", &[7.5]);
        assert_eq!((one.min, one.median, one.mad), (7.5, 7.5, 0.0));
    }

    #[test]
    fn end_to_end_and_traced_lines_mix_by_metric_name() {
        let traced = line(true, 0, &[("parse_us", 98.0)]);
        let text = [e2e(10.0), traced, e2e(12.0), e2e(11.0)].join("\n");
        let w = workload(&bench(), "cold_scan", &text).unwrap();
        assert_eq!(w.runs, 4);
        assert_eq!(w.metrics["op_p50_ms"].median, 11.0);
        assert_eq!(w.metrics["op_p50_ms"].mad, 1.0);
        assert_eq!(w.metrics["parse_us"].median, 98.0);
    }

    #[test]
    fn refuses_bad_runs_unknown_workloads_and_short_series() {
        let ok = [e2e(1.0), e2e(2.0), e2e(3.0)].join("\n");
        assert!(workload(&bench(), "serve", &ok).is_ok());
        let incorrect = format!("{}\n{}", ok, line(false, 0, &[("op_p50_ms", 1.0)]));
        assert!(workload(&bench(), "serve", &incorrect).unwrap_err().contains("correct=false"));
        let failed = format!("{}\n{}", ok, line(true, 2, &[("op_p50_ms", 1.0)]));
        assert!(workload(&bench(), "serve", &failed).unwrap_err().contains("failed=2"));
        assert!(workload(&bench(), "crawl", &ok).unwrap_err().contains("not declared"));
        // Traced lines do not count toward the end-to-end repeats.
        let short = [e2e(1.0), e2e(2.0), line(true, 0, &[("parse_us", 9.0)])].join("\n");
        assert!(workload(&bench(), "train", &short).unwrap_err().contains("2 end-to-end lines"));
        assert!(workload(&bench(), "train", "not json").unwrap_err().contains("not a perfbench"));
        let seconds = format!("{}\n{}", ok, e2e(1.0).replace("\"ms\"", "\"s\""));
        assert!(workload(&bench(), "serve", &seconds).unwrap_err().contains("in s after ms"));
    }

    #[test]
    fn same_label_replaces_and_legacy_entries_survive() {
        let committed: JsonValue = serde_json::from_str(include_str!("../../../../BENCH_ml.json"))
            .expect("committed BENCH_ml.json parses");
        let legacy = committed.get("trajectory").and_then(JsonValue::as_arr).unwrap().to_vec();
        assert!(legacy.iter().any(|e| e.get("stages").is_some()), "a legacy bench_report entry");

        let text = [e2e(1.0), e2e(2.0), e2e(3.0)].join("\n");
        let entry = |label: &str| Entry {
            label: label.to_string(),
            git_sha: None,
            feature_space_version: 3,
            cores: 2,
            run_seconds: 20,
            source: "perfbench".to_string(),
            workloads: [("rescan".to_string(), workload(&bench(), "rescan", &text).unwrap())]
                .into_iter()
                .collect(),
        };
        let once = with_entry(&legacy, entry("ingest-test").to_value());
        assert_eq!(once.len(), legacy.len() + 1);
        assert_eq!(&once[..legacy.len()], &legacy[..], "every older entry is unchanged");
        let twice = with_entry(&once, entry("ingest-test").to_value());
        assert_eq!(twice, once, "an entry with the same label is replaced, not duplicated");
        let Some(JsonValue::Str(first)) = legacy[0].get("label") else {
            panic!("unlabelled entry")
        };
        let relabel = with_entry(&legacy, entry(first).to_value());
        assert_eq!(relabel.len(), legacy.len());
        assert_eq!(&relabel[..legacy.len() - 1], &legacy[1..]);
    }
}
