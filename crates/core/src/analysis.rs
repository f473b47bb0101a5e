//! The batch driver and the cache-aware analysis path: every analysis in
//! the crate — training, the CLI, the verdict cache, the daemon and the
//! experiment binaries — goes through [`run_batch`] and one panic fence
//! around [`jsdetect_features::analyze`].
//!
//! A batch runs one job per script on the workspace's work-stealing pool
//! ([`jsdetect_obs::run_stealing`]), with the script's byte length as its
//! cost: workers claim the longest unclaimed script first. Analysis time
//! grows with length and obfuscated samples run 10–100× longer than
//! regular ones, so the longest script starts while the other workers
//! still have short ones to take, instead of starting last and running
//! alone. Results come back in input order whatever the claim order.
//!
//! A cache hit replays the *distilled* verdict — the three-way outcome,
//! the typed failure for quarantined scripts, and the space-independent
//! [`FeaturePayload`] — not the full AST. Everything downstream of a batch
//! scan (vectorization, quarantine reporting, outcome accounting) runs off
//! exactly those fields, so a second scan over unchanged bytes touches
//! neither the lexer nor the parser.

use crate::config::AnalysisConfig;
use jsdetect_cache::{AnalysisCache, CacheRecord, ContentHash};
use jsdetect_features::{analyze, Analyzed, FeaturePayload, VectorSpace};
use jsdetect_guard::{isolate, AnalysisError, Limits, OutcomeKind};
use jsdetect_obs::names;

/// One script's verdict: either replayed from the store or freshly
/// computed (and published).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedScript {
    /// BLAKE2s-256 of the source bytes — the cache key this verdict lives
    /// under.
    pub hash: ContentHash,
    /// Three-way guard verdict.
    pub outcome: OutcomeKind,
    /// Stable failure kind tag (`AnalysisError::kind()`), empty when ok.
    pub error_kind: String,
    /// Human-readable failure rendering, empty when ok.
    pub error_msg: String,
    /// Feature payload; present for ok and degraded outcomes.
    pub payload: Option<FeaturePayload>,
    /// Whether this verdict came out of the store (`true`) or was computed
    /// this scan (`false`).
    pub from_cache: bool,
}

impl CachedScript {
    /// Projects the payload into a fitted space. `None` for rejected
    /// scripts (no payload survives rejection).
    pub fn vectorize(&self, space: &VectorSpace) -> Option<Vec<f32>> {
        self.payload.as_ref().map(|p| space.vectorize_payload(p))
    }

    /// A freshly computed verdict for the script hashing to `hash`.
    pub fn computed(hash: ContentHash, analyzed: Analyzed) -> CachedScript {
        CachedScript::from_record(hash, record_of(analyzed), false)
    }

    /// The verdict `cache` holds for `hash`, if any.
    pub fn replayed(cache: Option<&AnalysisCache>, hash: ContentHash) -> Option<CachedScript> {
        Some(CachedScript::from_record(hash, cache?.get(&hash)?, true))
    }

    fn from_record(hash: ContentHash, record: CacheRecord, from_cache: bool) -> CachedScript {
        let CacheRecord { outcome, error_kind, error_msg, payload } = record;
        CachedScript { hash, outcome, error_kind, error_msg, payload, from_cache }
    }
}

/// The distilled, storable verdict of one analysis.
fn record_of(analyzed: Analyzed) -> CacheRecord {
    let error = analyzed.error.as_ref();
    CacheRecord {
        outcome: analyzed.outcome,
        error_kind: error.map(|e| e.kind().to_string()).unwrap_or_default(),
        error_msg: error.map(|e| e.to_string()).unwrap_or_default(),
        payload: analyzed.payload,
    }
}

/// The panic fence around one script's analysis: a residual panic in any
/// stage becomes a `stage_panicked` reject for that script instead of
/// unwinding into the thread pool and tearing the whole batch down.
fn fenced(f: impl FnOnce() -> Analyzed) -> Analyzed {
    isolate("analyze", f).unwrap_or_else(Analyzed::rejected)
}

/// Runs `work` on every script of `srcs` on the work-stealing pool, the
/// longest script first, and returns the results in input order.
pub(crate) fn run_batch<T: Send>(srcs: &[&str], work: impl Fn(&str) -> T + Sync) -> Vec<T> {
    let _t = jsdetect_obs::span(names::SPAN_ANALYZE_MANY);
    let n = srcs.len();
    jsdetect_obs::counter_add(names::CTR_SCRIPTS_ANALYZED, n as u64);
    jsdetect_obs::gauge_set(names::GAUGE_ANALYZE_THREADS, jsdetect_obs::pool_threads(n) as f64);
    jsdetect_obs::run_stealing(n, |i| srcs[i].len(), |i| work(srcs[i]))
}

/// Analyzes one script under `config.limits`, consulting `cache` before
/// any lexing or parsing and publishing the fresh verdict on a miss. The
/// cache's own preset must match `config.limits` (callers normally build
/// it with `CacheConfig::new(dir, &config.limits)`); a mismatched store
/// simply never hits, it cannot replay a wrong verdict.
pub fn analyze_one(
    src: &str,
    config: &AnalysisConfig,
    cache: Option<&AnalysisCache>,
) -> CachedScript {
    let hash = ContentHash::of(src.as_bytes());
    if let Some(replayed) = CachedScript::replayed(cache, hash) {
        return replayed;
    }
    let record = record_of(fenced(|| analyze(src, &config.limits)));
    if let Some(cache) = cache {
        cache.put(&hash, &record);
    }
    CachedScript::from_record(hash, record, false)
}

/// [`analyze_one`] over many scripts in parallel: one hostile file costs
/// one rejected record, never the batch. Outcomes are the same with or
/// without `cache`, and payloads vectorize bit-identically whether
/// replayed or freshly computed.
pub fn analyze_many(
    srcs: &[&str],
    config: &AnalysisConfig,
    cache: Option<&AnalysisCache>,
) -> Vec<CachedScript> {
    run_batch(srcs, |src| analyze_one(src, config, cache))
}

/// Trusted-limits analysis for training: the payload of every script that
/// analyzes fully, the failure otherwise (the paper skips files that do not
/// parse).
pub(crate) fn analyze_trusted(srcs: &[&str]) -> Vec<Result<FeaturePayload, AnalysisError>> {
    let limits = Limits::trusted();
    run_batch(srcs, |src| fenced(|| analyze(src, &limits)).into_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_cache::CacheConfig;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn scratch() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "jsdetect-core-cached-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn the_fence_rejects_a_panicking_analysis_and_counts_it_once() {
        // Counters are process-wide and other tests run concurrently, so
        // count only the increments recorded on this thread, found through
        // a span opened around the fenced call.
        let _lock = crate::TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        jsdetect_obs::set_enabled(true);
        let r = {
            let _probe = jsdetect_obs::span("fence_probe");
            fenced(|| panic!("injected stage panic"))
        };
        let snap = jsdetect_obs::snapshot();
        jsdetect_obs::set_enabled(false);
        assert_eq!(r.outcome, OutcomeKind::Rejected);
        assert_eq!(r.error.as_ref().unwrap().kind(), "stage_panicked");
        assert!(r.payload.is_none());
        let thread = snap.events.iter().find(|e| e.path == "fence_probe").unwrap().thread;
        let on_this_thread = |name: &str| -> u64 {
            let events = snap.counter_events.iter();
            events.filter(|e| e.thread == thread && e.name == name).map(|e| e.delta).sum()
        };
        assert_eq!(on_this_thread("guard/stage_panicked"), 1);
        assert_eq!(on_this_thread(names::CTR_GUARD_REJECTED), 1);
    }

    #[test]
    fn batch_quarantines_hostile_files_and_keeps_input_order() {
        let bomb = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
        let srcs = ["var x = 1;", "var ;;; broken", bomb.as_str()];
        let out = analyze_many(&srcs, &AnalysisConfig::default(), None);
        assert_eq!(out[0].outcome, OutcomeKind::Ok);
        assert_eq!(out[1].outcome, OutcomeKind::Degraded);
        assert!(out[1].payload.as_ref().unwrap().degraded);
        assert_eq!(out[2].outcome, OutcomeKind::Rejected);
        assert_eq!(out[2].error_kind, "ast_depth_exceeded");
        for (src, c) in srcs.iter().zip(&out) {
            assert_eq!(c.hash, ContentHash::of(src.as_bytes()));
        }
    }

    #[test]
    fn trusted_analysis_keeps_ok_payloads_only() {
        let out = analyze_trusted(&["var x = 1;", "var ;;; broken", "f();"]);
        assert!(out[0].is_ok());
        assert_eq!(out[1].as_ref().unwrap_err().kind(), "parse_error");
        assert!(out[2].is_ok());
    }

    #[test]
    fn warm_scan_replays_identical_verdicts_without_reanalysis() {
        let dir = scratch();
        let config = AnalysisConfig::default();
        let cache = AnalysisCache::open(CacheConfig::new(&dir, &config.limits)).unwrap();
        let bomb = format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000));
        let srcs = ["var x = 1; f(x);", "var ;;; broken", bomb.as_str()];

        let cold = analyze_many(&srcs, &config, Some(&cache));
        assert!(cold.iter().all(|c| !c.from_cache));
        assert_eq!(cold[0].outcome, OutcomeKind::Ok);
        assert_eq!(cold[1].outcome, OutcomeKind::Degraded);
        assert_eq!(cold[2].outcome, OutcomeKind::Rejected);
        assert_eq!(cold[2].error_kind, "ast_depth_exceeded");
        assert!(cold[2].payload.is_none());

        // A fresh handle replays from disk.
        let cache2 = AnalysisCache::open(CacheConfig::new(&dir, &config.limits)).unwrap();
        let warm = analyze_many(&srcs, &config, Some(&cache2));
        assert!(warm.iter().all(|c| c.from_cache));
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.outcome, w.outcome);
            assert_eq!(c.error_kind, w.error_kind);
            assert_eq!(c.error_msg, w.error_msg);
            assert_eq!(c.payload, w.payload);
        }

        // Without a store the same path computes the same verdicts.
        let uncached = analyze_many(&srcs, &config, None);
        for (c, u) in cold.iter().zip(uncached) {
            assert_eq!(*c, u);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
