//! Integration tests pinning the analysis cache's contract: a warm rescan
//! replays verdicts and vectors *bit-identically*, version changes
//! invalidate observably, and on-disk damage degrades to recomputation —
//! never to a failed batch or a wrong answer.

use jsdetect_suite::cache::{AnalysisCache, CacheConfig};
use jsdetect_suite::detector::{analyze_many, AnalysisConfig};
use jsdetect_suite::features::{analyze, FeatureConfig, Limits, VectorSpace};
use jsdetect_suite::guard::OutcomeKind;
use jsdetect_suite::obs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// The telemetry registry is process-global; tests that enable/reset it
/// must not interleave.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn scratch() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "jsdetect-cache-it-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The committed fixture corpus (the same files CI scans).
fn fixture_sources() -> Vec<(String, String)> {
    let dir = std::path::Path::new("examples/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/corpus fixture directory")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "js"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 3, "fixture corpus unexpectedly small: {:?}", entries);
    entries
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("fixture readable");
            (p.display().to_string(), src)
        })
        .collect()
}

fn open(dir: &std::path::Path, config: &AnalysisConfig) -> AnalysisCache {
    AnalysisCache::open(CacheConfig::new(dir, &config.limits)).expect("open cache")
}

/// Scans `srcs` through a fresh registry window and returns the results
/// plus the cache counters observed during the scan.
fn counted_scan(
    srcs: &[&str],
    config: &AnalysisConfig,
    cache: &AnalysisCache,
) -> (Vec<jsdetect_suite::detector::CachedScript>, u64, u64, u64, u64) {
    obs::set_enabled(true);
    obs::reset();
    let results = analyze_many(srcs, config, Some(cache));
    let snap = obs::snapshot();
    obs::set_enabled(false);
    (
        results,
        snap.counter("cache/hit"),
        snap.counter("cache/miss"),
        snap.counter("cache/stale_version"),
        snap.counter("cache/corrupt_evicted"),
    )
}

#[test]
fn warm_rescan_is_bit_identical_to_cold_over_the_fixture_corpus() {
    let _g = locked();
    let fixtures = fixture_sources();
    let srcs: Vec<&str> = fixtures.iter().map(|(_, s)| s.as_str()).collect();
    let config = AnalysisConfig::default();
    let dir = scratch();

    let (cold, hits, misses, stale, corrupt) = counted_scan(&srcs, &config, &open(&dir, &config));
    assert_eq!(hits, 0);
    assert_eq!(misses, srcs.len() as u64);
    assert_eq!(stale, 0);
    assert_eq!(corrupt, 0);
    assert!(cold.iter().all(|c| !c.from_cache));

    // A fresh handle: in-memory LRU cold, everything must come off disk.
    let (warm, hits, misses, stale, corrupt) = counted_scan(&srcs, &config, &open(&dir, &config));
    assert_eq!(hits, srcs.len() as u64, "100% hit rate expected on the second pass");
    assert_eq!(misses, 0);
    assert_eq!(stale, 0);
    assert_eq!(corrupt, 0);
    assert!(warm.iter().all(|c| c.from_cache));

    // Outcomes and payloads replay exactly; vectors are bit-identical in
    // any space fitted over the corpus.
    let payloads: Vec<_> = srcs
        .iter()
        .map(|s| analyze(s, &Limits::trusted()).into_ok().expect("fixture parses"))
        .collect();
    let space = VectorSpace::fit(&payloads, 120, FeatureConfig::default());
    for ((c, w), p) in cold.iter().zip(&warm).zip(&payloads) {
        assert_eq!(c.outcome, OutcomeKind::Ok);
        assert_eq!(c.outcome, w.outcome);
        assert_eq!(c.payload, w.payload);
        let fresh = space.vectorize_payload(p);
        assert_eq!(c.vectorize(&space).as_deref(), Some(fresh.as_slice()));
        assert_eq!(w.vectorize(&space).as_deref(), Some(fresh.as_slice()));
    }

    // The cached path agrees with the uncached guarded path.
    let guarded = analyze_many(&srcs, &config, None);
    for (w, g) in warm.iter().zip(&guarded) {
        assert_eq!(w.outcome, g.outcome);
        assert_eq!(w.payload, g.payload);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn feature_space_version_bump_forces_observable_stale_misses() {
    let _g = locked();
    let fixtures = fixture_sources();
    let srcs: Vec<&str> = fixtures.iter().map(|(_, s)| s.as_str()).collect();
    let config = AnalysisConfig::default();
    let dir = scratch();
    counted_scan(&srcs, &config, &open(&dir, &config));

    // Same store, bumped feature-space version: every lookup must be a
    // stale miss (recorded under cache/stale_version), then republish.
    let mut bumped_cfg = CacheConfig::new(&dir, &config.limits);
    bumped_cfg.feature_version += 1;
    let bumped = AnalysisCache::open(bumped_cfg.clone()).expect("open cache");
    let (results, hits, misses, stale, corrupt) = counted_scan(&srcs, &config, &bumped);
    assert_eq!(hits, 0);
    assert_eq!(misses, srcs.len() as u64);
    assert_eq!(stale, srcs.len() as u64, "each record must be observed as stale");
    assert_eq!(corrupt, 0);
    assert!(results.iter().all(|c| !c.from_cache));

    // The republished records now serve the bumped version...
    let bumped2 = AnalysisCache::open(bumped_cfg).expect("open cache");
    let (_, hits, misses, _, _) = counted_scan(&srcs, &config, &bumped2);
    assert_eq!(hits, srcs.len() as u64);
    assert_eq!(misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
// The constant comparison is the point: pin that the version the cache
// keys by is the one the normalization-delta block shipped in.
#[allow(clippy::assertions_on_constants)]
fn the_current_feature_space_bump_invalidates_previous_era_records() {
    let _g = locked();
    let fixtures = fixture_sources();
    let srcs: Vec<&str> = fixtures.iter().map(|(_, s)| s.as_str()).collect();
    let config = AnalysisConfig::default();
    let dir = scratch();

    // Pin that the bump actually shipped end to end: the default cache
    // keys records under the current feature-space version, and that
    // version covers the normalization-delta block (v3+).
    assert_eq!(
        CacheConfig::new(&dir, &config.limits).feature_version,
        jsdetect_suite::features::FEATURE_SPACE_VERSION,
        "cache must key records under the live feature-space version"
    );
    assert!(
        jsdetect_suite::features::FEATURE_SPACE_VERSION >= 3,
        "normalization deltas shipped in feature-space v3"
    );

    // Populate the store the way a session from the previous feature
    // era would have (one version behind the live constant).
    let mut old_cfg = CacheConfig::new(&dir, &config.limits);
    old_cfg.feature_version -= 1;
    let old = AnalysisCache::open(old_cfg).expect("open cache");
    counted_scan(&srcs, &config, &old);

    // A default-configured session over the same store must observe
    // every previous-era record as a stale miss — never replay it.
    let (results, hits, misses, stale, corrupt) =
        counted_scan(&srcs, &config, &open(&dir, &config));
    assert_eq!(hits, 0, "previous-era records must never replay");
    assert_eq!(misses, srcs.len() as u64);
    assert_eq!(stale, srcs.len() as u64, "each record must surface under cache/stale_version");
    assert_eq!(corrupt, 0);
    assert!(results.iter().all(|c| !c.from_cache));

    // The rescan republished under the live version: warm from here on.
    let (_, hits, misses, _, _) = counted_scan(&srcs, &config, &open(&dir, &config));
    assert_eq!((hits, misses), (srcs.len() as u64, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn preset_change_forces_plain_misses_not_cross_replay() {
    let _g = locked();
    let fixtures = fixture_sources();
    let srcs: Vec<&str> = fixtures.iter().map(|(_, s)| s.as_str()).collect();
    let wild = AnalysisConfig::default();
    let dir = scratch();
    counted_scan(&srcs, &wild, &open(&dir, &wild));

    // Same store, trusted limits: records exist only under the wild
    // preset, so every lookup is a plain miss (no stale, no corrupt).
    let trusted = AnalysisConfig::trusted();
    let (results, hits, misses, stale, corrupt) =
        counted_scan(&srcs, &trusted, &open(&dir, &trusted));
    assert_eq!(hits, 0);
    assert_eq!(misses, srcs.len() as u64);
    assert_eq!(stale, 0);
    assert_eq!(corrupt, 0);
    assert!(results.iter().all(|c| !c.from_cache));

    // Both presets now coexist and each replays its own verdicts.
    let (_, hits, misses, _, _) = counted_scan(&srcs, &wild, &open(&dir, &wild));
    assert_eq!((hits, misses), (srcs.len() as u64, 0));
    let (_, hits, misses, _, _) = counted_scan(&srcs, &trusted, &open(&dir, &trusted));
    assert_eq!((hits, misses), (srcs.len() as u64, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_records_are_evicted_recomputed_and_rewritten() {
    let _g = locked();
    let fixtures = fixture_sources();
    let srcs: Vec<&str> = fixtures.iter().map(|(_, s)| s.as_str()).collect();
    assert!(srcs.len() >= 3, "need three records to damage three ways");
    let config = AnalysisConfig::default();
    let dir = scratch();
    let store = open(&dir, &config);
    let (cold, ..) = counted_scan(&srcs, &config, &store);

    // Damage three records three different ways.
    let paths: Vec<PathBuf> = cold.iter().map(|c| store.record_path(&c.hash)).collect();
    let truncated = std::fs::read(&paths[0]).unwrap();
    std::fs::write(&paths[0], &truncated[..truncated.len() / 2]).unwrap();
    let mut flipped = std::fs::read(&paths[1]).unwrap();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&paths[1], &flipped).unwrap();
    std::fs::write(&paths[2], b"").unwrap();

    // The rescan still succeeds, evicts all three, and recomputes.
    let (warm, hits, misses, stale, corrupt) = counted_scan(&srcs, &config, &open(&dir, &config));
    assert_eq!(corrupt, 3, "each damaged record must count one eviction");
    assert_eq!(stale, 0);
    assert_eq!(misses, 3);
    assert_eq!(hits, srcs.len() as u64 - 3);
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.outcome, w.outcome);
        assert_eq!(c.payload, w.payload, "recomputed payloads must match the originals");
    }

    // The damaged records were rewritten: a third pass is all hits and
    // the store verifies clean.
    let (_, hits, misses, _, corrupt) = counted_scan(&srcs, &config, &open(&dir, &config));
    assert_eq!((hits, misses, corrupt), (srcs.len() as u64, 0, 0));
    let report = jsdetect_suite::cache::verify(&dir).expect("verify walk");
    assert!(report.is_clean(), "corrupt after repair: {:?}", report.corrupt);
    assert_eq!(report.ok, srcs.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_long_error_message_is_cut_on_a_char_boundary() {
    let _g = locked();
    // The parse error quotes the ~80 KB identifier; with this padding the
    // record's 65,535-byte string field ends inside a two-byte `ä`.
    let src = format!("a{}{};", " ".repeat(9), "ä".repeat(40_000));
    let config = AnalysisConfig::default();
    let dir = scratch();
    let (cold, ..) = counted_scan(&[&src], &config, &open(&dir, &config));
    assert_eq!(cold[0].outcome, OutcomeKind::Degraded);
    assert!(cold[0].error_msg.len() > u16::MAX as usize);

    // A second handle reads the record back instead of evicting it.
    let (warm, hits, misses, _, corrupt) = counted_scan(&[&src], &config, &open(&dir, &config));
    assert_eq!((hits, misses, corrupt), (1, 0, 0));
    assert!(cold[0].error_msg.starts_with(&warm[0].error_msg));
    assert_eq!(warm[0].payload, cold[0].payload);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn readonly_mode_replays_hits_but_never_writes() {
    let _g = locked();
    let fixtures = fixture_sources();
    let srcs: Vec<&str> = fixtures.iter().map(|(_, s)| s.as_str()).collect();
    let config = AnalysisConfig::default();
    let dir = scratch();

    // Cold scan in readonly mode: misses compute but publish nothing.
    let mut ro_cfg = CacheConfig::new(&dir, &config.limits);
    ro_cfg.readonly = true;
    let ro = AnalysisCache::open(ro_cfg.clone()).expect("open cache");
    let (results, hits, misses, _, _) = counted_scan(&srcs, &config, &ro);
    assert_eq!((hits, misses), (0, srcs.len() as u64));
    assert!(results.iter().all(|c| !c.from_cache));
    assert_eq!(jsdetect_suite::cache::stats(&dir).expect("stats").records, 0);

    // Seed read-write, then readonly replays every verdict.
    counted_scan(&srcs, &config, &open(&dir, &config));
    let ro = AnalysisCache::open(ro_cfg).expect("open cache");
    let (results, hits, misses, _, _) = counted_scan(&srcs, &config, &ro);
    assert_eq!((hits, misses), (srcs.len() as u64, 0));
    assert!(results.iter().all(|c| c.from_cache));
    let _ = std::fs::remove_dir_all(&dir);
}
