//! Streaming-core guarantees: quantile-estimate accuracy (property-tested
//! against exact quantiles over contrasting distributions) and live
//! snapshot consistency while writers are mid-record.

use jsdetect_obs::{bucket_index, Histogram};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Records the writers must have made, as seen by a live snapshot, before
/// the concurrent-snapshot test stops them.
const MIN_WRITTEN: u64 = 20_000;

/// Deterministic SplitMix64 — no RNG dependency, stable across runs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The exact `q`-quantile by the same rank convention the histogram uses
/// (`ceil(q·n)`-th smallest, 1-based).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
    sorted[rank - 1]
}

/// The one-bucket contract: with ~2× bucket resolution, the interpolated
/// estimate must land in the same log2 bucket as the exact quantile.
fn assert_within_one_bucket(samples: &[u64], label: &str) {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    for q in [0.5, 0.9, 0.99] {
        let exact = exact_quantile(&sorted, q);
        let est = h.quantile_interp(q);
        assert!(est.is_finite(), "{label} q={q}: non-finite estimate");
        assert_eq!(
            bucket_index(est as u64),
            bucket_index(exact),
            "{label} q={q}: estimate {est} not in exact quantile {exact}'s bucket"
        );
        assert!(
            est as u64 >= h.min() && est as u64 <= h.max(),
            "{label} q={q}: estimate {est} outside observed [{}, {}]",
            h.min(),
            h.max()
        );
    }
}

#[test]
fn quantiles_within_one_bucket_uniform() {
    let mut rng = SplitMix64(0xC0FFEE);
    for trial in 0..50 {
        let n = 100 + (trial * 37) % 900;
        let samples: Vec<u64> = (0..n).map(|_| 1 + (rng.f64() * 1e6) as u64).collect();
        assert_within_one_bucket(&samples, &format!("uniform[{trial}]"));
    }
}

#[test]
fn quantiles_within_one_bucket_exponential() {
    let mut rng = SplitMix64(0xDECAF);
    for trial in 0..50 {
        let n = 100 + (trial * 53) % 900;
        let samples: Vec<u64> = (0..n)
            .map(|_| {
                // Inverse-CDF exponential with mean 50µs, in ns.
                let u = rng.f64().max(1e-12);
                1 + (-u.ln() * 50_000.0) as u64
            })
            .collect();
        assert_within_one_bucket(&samples, &format!("exponential[{trial}]"));
    }
}

#[test]
fn quantiles_within_one_bucket_adversarial_spike() {
    let mut rng = SplitMix64(0xBAD5EED);
    for trial in 0..50 {
        // A tight body with a far-tail spike sized to straddle the p99
        // boundary — the case a bucket-upper-bound estimator gets a whole
        // bucket wrong.
        let body = 500 + (trial * 13) % 400;
        let spikes = 1 + (trial % 7);
        let mut samples: Vec<u64> = (0..body).map(|_| 900 + (rng.f64() * 200.0) as u64).collect();
        for _ in 0..spikes {
            samples.push(1 << (20 + trial % 8));
        }
        assert_within_one_bucket(&samples, &format!("spike[{trial}]"));
    }
}

/// Snapshots taken while writer threads are mid-record must never show
/// torn state: counters are monotone across snapshots, and every
/// histogram's bucket sum is at least its count (`count` is published
/// last with Release, read first with Acquire).
///
/// Snapshots of a near-empty registry take microseconds, so a fixed
/// snapshot count can finish before a freshly spawned writer runs its
/// first iteration, and the test would then check nothing. The writers
/// therefore meet the snapshotter at a barrier, and snapshotting continues
/// until the live counter has passed [`MIN_WRITTEN`].
#[test]
fn concurrent_snapshot_while_writing_is_consistent() {
    // Serialized against other obs integration tests via the registry
    // being process-global: use a dedicated counter namespace instead of
    // reset() so parallel test binaries can't interfere mid-run.
    jsdetect_obs::set_enabled(true);
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(4));
    let writers: Vec<_> = (0..3)
        .map(|w| {
            let stop = stop.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let _obs = jsdetect_obs::ScopedCollector::new();
                start.wait();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let _s = jsdetect_obs::span("stream_concurrent");
                    jsdetect_obs::counter_add("stream_concurrent_ctr", 1);
                    jsdetect_obs::observe("stream_concurrent_hist", 1 + (w * 1000 + i % 100));
                    i += 1;
                }
                i
            })
        })
        .collect();

    let mut last_ctr = 0u64;
    let mut last_span = 0u64;
    let mut snaps = 0u64;
    let errors = Arc::new(Mutex::new(Vec::<String>::new()));
    start.wait();
    let deadline = Instant::now() + Duration::from_secs(30);
    while (snaps < 200 || last_ctr < MIN_WRITTEN) && Instant::now() < deadline {
        let snap = jsdetect_obs::snapshot();
        let ctr = snap.counter("stream_concurrent_ctr");
        if ctr < last_ctr {
            errors.lock().unwrap().push(format!("counter went backwards: {last_ctr} -> {ctr}"));
        }
        last_ctr = ctr;
        if let Some(s) = snap.span("stream_concurrent") {
            if s.count < last_span {
                errors
                    .lock()
                    .unwrap()
                    .push(format!("span count went backwards: {last_span} -> {}", s.count));
            }
            last_span = s.count;
            let bucket_sum: u64 = s.latency.bucket_counts().iter().sum();
            if bucket_sum < s.latency.count() {
                errors.lock().unwrap().push(format!(
                    "torn span hist: bucket sum {bucket_sum} < count {}",
                    s.latency.count()
                ));
            }
        }
        if let Some(h) = snap.hist("stream_concurrent_hist") {
            let bucket_sum: u64 = h.bucket_counts().iter().sum();
            if bucket_sum < h.count() {
                errors.lock().unwrap().push(format!(
                    "torn value hist: bucket sum {bucket_sum} < count {}",
                    h.count()
                ));
            }
            if h.count() > 0 && (h.min() > h.max()) {
                errors.lock().unwrap().push(format!("min {} > max {}", h.min(), h.max()));
            }
        }
        snaps += 1;
    }
    stop.store(true, Ordering::Relaxed);
    let written: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    let errors = errors.lock().unwrap();
    assert!(
        last_ctr >= MIN_WRITTEN,
        "snapshots saw only {last_ctr} of {MIN_WRITTEN} records before the deadline"
    );
    assert!(errors.is_empty(), "live-snapshot violations: {:?}", &errors[..errors.len().min(5)]);

    // Quiescent: the final snapshot accounts for every record exactly.
    let snap = jsdetect_obs::snapshot();
    assert_eq!(snap.counter("stream_concurrent_ctr"), written);
    assert_eq!(snap.span("stream_concurrent").map(|s| s.count), Some(written));
    assert_eq!(snap.hist("stream_concurrent_hist").map(Histogram::count), Some(written));
    jsdetect_obs::set_enabled(false);
}
