//! The sharded on-disk store with an in-memory LRU front.
//!
//! Layout: `<dir>/<2-hex shard>/<32-hex hash prefix>-<preset>.jdc`, 256
//! shards keyed by the first digest byte. Writers publish with
//! write-to-tmp + atomic rename, so readers (in this process or another)
//! never observe a half-written record; a per-shard mutex serializes this
//! process's IO per shard so two workers that miss on the same script
//! don't interleave tmp files. Cross-process writers are safe without
//! file locks because both sides publish byte-identical content for the
//! same key and rename is atomic — last writer wins with the same bytes.
//!
//! Every failure mode degrades to a recompute, never an abort: a corrupt
//! record (truncated, bit-flipped, zero-length) is evicted from disk and
//! counted under `cache/corrupt_evicted`; a record from another
//! feature-space or schema version is left for `gc` and counted under
//! `cache/stale_version`; both count a `cache/miss` so hit-rate math stays
//! honest.

use crate::blake::ContentHash;
use crate::lru::LruMap;
use crate::record::{decode, encode, CacheRecord};
use jsdetect_guard::Limits;
use jsdetect_obs::names;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of two-hex-prefix shard directories.
pub const N_SHARDS: usize = 256;

/// Capacity of the in-memory LRU front, in records.
const LRU_CAPACITY: usize = 4096;

/// File extension of cache records.
pub const RECORD_EXT: &str = "jdc";

/// Stable tag naming the limits a cached verdict was produced under.
///
/// Named presets map to themselves; any other [`Limits`] value gets a
/// content-derived `custom-<12 hex>` tag, so two different custom budgets
/// can never replay each other's verdicts.
pub fn preset_tag(limits: &Limits) -> String {
    for (name, preset) in [
        ("wild", Limits::wild()),
        ("trusted", Limits::trusted()),
        ("interactive", Limits::interactive()),
        ("unbounded", Limits::unbounded()),
    ] {
        if *limits == preset {
            return name.to_string();
        }
    }
    let json = serde_json::to_string(limits).unwrap_or_default();
    let digest = ContentHash::of(json.as_bytes()).to_hex();
    format!("custom-{}", &digest[..12])
}

/// Configuration for one opened cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Root directory of the store.
    pub dir: PathBuf,
    /// Feature-space version the cached payloads must match
    /// (`jsdetect_features::FEATURE_SPACE_VERSION` in production; tests
    /// inject other values to exercise invalidation).
    pub feature_version: u32,
    /// Limits preset tag (see [`preset_tag`]) baked into every key.
    pub preset: String,
    /// When set, lookups work but misses are never published back.
    pub readonly: bool,
}

impl CacheConfig {
    /// A read-write config for `dir` under the current feature-space
    /// version and the given limits.
    pub fn new(dir: impl Into<PathBuf>, limits: &Limits) -> CacheConfig {
        CacheConfig {
            dir: dir.into(),
            feature_version: jsdetect_features::FEATURE_SPACE_VERSION,
            preset: preset_tag(limits),
            readonly: false,
        }
    }
}

/// Number of *extra* publish attempts after the first failure.
pub const PUBLISH_RETRIES: u32 = 2;

/// A fault hook for publish: called with the attempt index (0-based); a
/// `true` return makes that attempt fail without touching disk. Tests and
/// the serve chaos layer inject these to exercise the retry path.
pub type PublishInjector = Box<dyn Fn(u32) -> bool + Send + Sync>;

/// A content-addressed feature-vector cache:
/// `(content hash, feature-space version, limits preset) → CacheRecord`.
pub struct AnalysisCache {
    config: CacheConfig,
    /// Per-shard IO locks; index = first digest byte.
    shards: Vec<Mutex<()>>,
    lru: Mutex<LruMap<[u8; ContentHash::PREFIX_LEN], Arc<CacheRecord>>>,
    tmp_seq: AtomicU64,
    publish_injector: Mutex<Option<PublishInjector>>,
}

impl std::fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisCache").field("config", &self.config).finish_non_exhaustive()
    }
}

impl AnalysisCache {
    /// Opens (creating if needed) the store rooted at `config.dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error when the root directory cannot be
    /// created (readonly opens tolerate a missing directory: every lookup
    /// just misses).
    pub fn open(config: CacheConfig) -> std::io::Result<AnalysisCache> {
        if !config.readonly {
            std::fs::create_dir_all(&config.dir)?;
        }
        let shards = (0..N_SHARDS).map(|_| Mutex::new(())).collect();
        let lru = Mutex::new(LruMap::new(LRU_CAPACITY));
        Ok(AnalysisCache {
            config,
            shards,
            lru,
            tmp_seq: AtomicU64::new(0),
            publish_injector: Mutex::new(None),
        })
    }

    /// Installs (or clears) a publish fault injector; see
    /// [`PublishInjector`].
    pub fn set_publish_injector(&self, injector: Option<PublishInjector>) {
        *self.publish_injector.lock().unwrap_or_else(|e| e.into_inner()) = injector;
    }

    /// The configuration this cache was opened with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The on-disk path of `hash`'s record.
    pub fn record_path(&self, hash: &ContentHash) -> PathBuf {
        self.config.dir.join(hash.shard()).join(format!(
            "{}-{}.{}",
            hash.prefix_hex(),
            self.config.preset,
            RECORD_EXT
        ))
    }

    fn lru_key(hash: &ContentHash) -> [u8; ContentHash::PREFIX_LEN] {
        hash.0[..ContentHash::PREFIX_LEN].try_into().expect("prefix length")
    }

    fn shard_lock(&self, hash: &ContentHash) -> std::sync::MutexGuard<'_, ()> {
        self.shards[hash.shard_index()].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks one content hash up. `None` is always a recompute signal; the
    /// reason (plain miss, stale version, corrupt record) is reported
    /// through the `cache/*` counters.
    pub fn get(&self, hash: &ContentHash) -> Option<Arc<CacheRecord>> {
        let _t = jsdetect_obs::span(names::SPAN_CACHE_GET);
        if let Some(rec) =
            self.lru.lock().unwrap_or_else(|e| e.into_inner()).get(&Self::lru_key(hash))
        {
            jsdetect_obs::counter_add(names::CTR_CACHE_HIT, 1);
            return Some(rec);
        }
        let path = self.record_path(hash);
        let bytes = {
            let _guard = self.shard_lock(hash);
            match std::fs::read(&path) {
                Ok(b) => b,
                Err(_) => {
                    jsdetect_obs::counter_add(names::CTR_CACHE_MISS, 1);
                    return None;
                }
            }
        };
        match decode(&bytes, hash, self.config.feature_version, &self.config.preset) {
            Ok(rec) => {
                jsdetect_obs::counter_add(names::CTR_CACHE_HIT, 1);
                let rec = Arc::new(rec);
                self.lru
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(Self::lru_key(hash), rec.clone());
                Some(rec)
            }
            Err(e) if e.is_stale() => {
                // Valid record from another version: recompute (and let
                // `put` overwrite / `gc` collect it), but never delete a
                // file another feature-space version could still serve.
                jsdetect_obs::counter_add(names::CTR_CACHE_STALE_VERSION, 1);
                jsdetect_obs::counter_add(names::CTR_CACHE_MISS, 1);
                None
            }
            Err(_) => {
                // Corrupt on disk: evict the file so the next pass
                // rewrites it, and drop any memory copy.
                jsdetect_obs::counter_add(names::CTR_CACHE_CORRUPT_EVICTED, 1);
                jsdetect_obs::counter_add(names::CTR_CACHE_MISS, 1);
                let _guard = self.shard_lock(hash);
                let _ = std::fs::remove_file(&path);
                self.lru.lock().unwrap_or_else(|e| e.into_inner()).remove(&Self::lru_key(hash));
                None
            }
        }
    }

    /// Publishes one record under `hash`. A transient write failure is
    /// retried up to [`PUBLISH_RETRIES`] times with a short jittered
    /// backoff (counted under `cache/publish_retried`); a publish that
    /// still fails is counted (`cache/publish_failed`) and swallowed: a
    /// cache that cannot write degrades to a slower scan, never a failed
    /// one.
    pub fn put(&self, hash: &ContentHash, record: &CacheRecord) {
        if self.config.readonly {
            return;
        }
        let _t = jsdetect_obs::span(names::SPAN_CACHE_PUT);
        let bytes = encode(record, hash, self.config.feature_version, &self.config.preset);
        let path = self.record_path(hash);
        let shard_dir = path.parent().expect("record path has a shard directory");
        for attempt in 0..=PUBLISH_RETRIES {
            if attempt > 0 {
                jsdetect_obs::counter_add(names::CTR_CACHE_PUBLISH_RETRIED, 1);
                // Deterministic jitter: the cache carries no RNG, but the
                // content hash is uniform — derive the stagger from it so
                // two workers retrying the same shard don't collide in
                // lockstep.
                let jitter = u64::from(hash.0[attempt as usize % hash.0.len()]) % 3;
                std::thread::sleep(std::time::Duration::from_millis(
                    (1u64 << (attempt - 1)) + jitter,
                ));
            }
            if self.publish_attempt(hash, shard_dir, &path, &bytes, attempt) {
                jsdetect_obs::counter_add(names::CTR_CACHE_PUT, 1);
                self.lru
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(Self::lru_key(hash), Arc::new(record.clone()));
                return;
            }
        }
        jsdetect_obs::counter_add(names::CTR_CACHE_PUBLISH_FAILED, 1);
    }

    /// One tmp-write + atomic-rename publish attempt; returns success.
    fn publish_attempt(
        &self,
        hash: &ContentHash,
        shard_dir: &Path,
        path: &Path,
        bytes: &[u8],
        attempt: u32,
    ) -> bool {
        if let Some(injector) =
            self.publish_injector.lock().unwrap_or_else(|e| e.into_inner()).as_ref()
        {
            if injector(attempt) {
                return false;
            }
        }
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = shard_dir.join(format!(".tmp-{}-{}", std::process::id(), seq));
        let _guard = self.shard_lock(hash);
        let wrote = std::fs::create_dir_all(shard_dir)
            .and_then(|_| std::fs::write(&tmp, bytes))
            .and_then(|_| std::fs::rename(&tmp, path));
        if wrote.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        wrote.is_ok()
    }

    /// Drops the in-memory front (disk records stay). Tests use this to
    /// force disk reads; long-running services can use it to bound memory.
    pub fn drop_memory(&self) {
        self.lru.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// Root directory of this store.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_features::FeaturePayload;
    use jsdetect_guard::OutcomeKind;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    /// A unique scratch dir per test (no tempfile crate offline).
    fn scratch() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "jsdetect-cache-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample() -> CacheRecord {
        CacheRecord {
            outcome: OutcomeKind::Ok,
            error_kind: String::new(),
            error_msg: String::new(),
            payload: Some(FeaturePayload {
                handpicked: vec![1.0, 2.0],
                lint: vec![0.5],
                normalize: vec![1.0],
                ngrams: vec![([1, 2, 3, 4], 9)],
                degraded: false,
            }),
        }
    }

    fn open(dir: &Path) -> AnalysisCache {
        AnalysisCache::open(CacheConfig::new(dir, &Limits::wild())).unwrap()
    }

    #[test]
    fn put_then_get_roundtrips_via_disk_and_memory() {
        let dir = scratch();
        let cache = open(&dir);
        let h = ContentHash::of(b"var x = 1;");
        assert!(cache.get(&h).is_none());
        cache.put(&h, &sample());
        assert_eq!(*cache.get(&h).unwrap(), sample());
        // Force the disk path.
        cache.drop_memory();
        assert_eq!(*cache.get(&h).unwrap(), sample());
        // A second instance (fresh process, cold memory) sees it too.
        let cache2 = open(&dir);
        assert_eq!(*cache2.get(&h).unwrap(), sample());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_land_in_two_hex_shards() {
        let dir = scratch();
        let cache = open(&dir);
        let h = ContentHash::of(b"f();");
        cache.put(&h, &sample());
        let path = cache.record_path(&h);
        assert!(path.exists());
        let shard = path.parent().unwrap().file_name().unwrap().to_str().unwrap();
        assert_eq!(shard.len(), 2);
        assert_eq!(shard, &h.to_hex()[..2]);
        assert!(path.file_name().unwrap().to_str().unwrap().ends_with("-wild.jdc"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_presets_do_not_share_records() {
        let dir = scratch();
        let wild = open(&dir);
        let trusted = AnalysisCache::open(CacheConfig::new(&dir, &Limits::trusted())).unwrap();
        let h = ContentHash::of(b"g();");
        wild.put(&h, &sample());
        assert!(trusted.get(&h).is_none(), "trusted must not replay a wild verdict");
        assert!(wild.get(&h).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn feature_version_bump_is_a_stale_miss_and_put_overwrites() {
        let dir = scratch();
        let h = ContentHash::of(b"h();");
        open(&dir).put(&h, &sample());
        let mut cfg = CacheConfig::new(&dir, &Limits::wild());
        cfg.feature_version += 1;
        let bumped = AnalysisCache::open(cfg).unwrap();
        assert!(bumped.get(&h).is_none());
        // The stale file survives the miss (gc's job), but a publish under
        // the new version overwrites it in place.
        assert!(bumped.record_path(&h).exists());
        bumped.put(&h, &sample());
        assert!(bumped.get(&h).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_is_evicted_and_recovers_on_next_put() {
        let dir = scratch();
        let cache = open(&dir);
        let h = ContentHash::of(b"k();");
        cache.put(&h, &sample());
        let path = cache.record_path(&h);
        // Bit-flip the stored payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        cache.drop_memory();
        assert!(cache.get(&h).is_none());
        assert!(!path.exists(), "corrupt record must be evicted from disk");
        cache.put(&h, &sample());
        assert_eq!(*cache.get(&h).unwrap(), sample());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_publish_failure_is_retried_then_succeeds() {
        let dir = scratch();
        let cache = open(&dir);
        // First attempt fails, first retry succeeds.
        cache.set_publish_injector(Some(Box::new(|attempt| attempt == 0)));
        let h = ContentHash::of(b"retry();");
        cache.put(&h, &sample());
        cache.drop_memory();
        assert_eq!(*cache.get(&h).unwrap(), sample(), "record must land despite one failure");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_publish_failure_gives_up_after_bounded_retries() {
        let dir = scratch();
        let cache = open(&dir);
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = attempts.clone();
        cache.set_publish_injector(Some(Box::new(move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
            true
        })));
        let h = ContentHash::of(b"never();");
        cache.put(&h, &sample());
        assert_eq!(
            attempts.load(Ordering::Relaxed),
            1 + PUBLISH_RETRIES,
            "put must stop after the bounded retry budget"
        );
        cache.drop_memory();
        assert!(cache.get(&h).is_none(), "nothing may be published");
        // Clearing the injector restores normal publishing.
        cache.set_publish_injector(None);
        cache.put(&h, &sample());
        assert!(cache.get(&h).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readonly_cache_reads_but_never_writes() {
        let dir = scratch();
        let rw = open(&dir);
        let h = ContentHash::of(b"m();");
        rw.put(&h, &sample());
        let mut cfg = CacheConfig::new(&dir, &Limits::wild());
        cfg.readonly = true;
        let ro = AnalysisCache::open(cfg).unwrap();
        assert!(ro.get(&h).is_some());
        let h2 = ContentHash::of(b"n();");
        ro.put(&h2, &sample());
        assert!(!ro.record_path(&h2).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readonly_open_tolerates_missing_directory() {
        let dir = scratch().join("never-created");
        let mut cfg = CacheConfig::new(&dir, &Limits::wild());
        cfg.readonly = true;
        let ro = AnalysisCache::open(cfg).unwrap();
        assert!(ro.get(&ContentHash::of(b"x")).is_none());
        assert!(!dir.exists());
    }

    #[test]
    fn preset_tags_are_stable_and_collision_free() {
        assert_eq!(preset_tag(&Limits::wild()), "wild");
        assert_eq!(preset_tag(&Limits::trusted()), "trusted");
        assert_eq!(preset_tag(&Limits::interactive()), "interactive");
        assert_eq!(preset_tag(&Limits::unbounded()), "unbounded");
        let custom_a = Limits { max_tokens: 123, ..Limits::wild() };
        let custom_b = Limits { max_tokens: 124, ..Limits::wild() };
        let tag_a = preset_tag(&custom_a);
        assert!(tag_a.starts_with("custom-"), "{}", tag_a);
        assert_eq!(tag_a, preset_tag(&custom_a.clone()));
        assert_ne!(tag_a, preset_tag(&custom_b));
    }

    #[test]
    fn concurrent_writers_on_one_key_converge() {
        let dir = scratch();
        let cache = open(&dir);
        let h = ContentHash::of(b"r();");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..16 {
                        cache.put(&h, &sample());
                        if let Some(rec) = cache.get(&h) {
                            assert_eq!(*rec, sample());
                        }
                    }
                });
            }
        });
        assert_eq!(*cache.get(&h).unwrap(), sample());
        // No tmp litter left behind.
        let shard_dir = cache.record_path(&h);
        for entry in std::fs::read_dir(shard_dir.parent().unwrap()).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(!name.to_string_lossy().starts_with(".tmp-"), "leftover tmp file {:?}", name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
