//! Content-addressed analysis cache for incremental rescans.
//!
//! Scanning a corpus twice re-pays the full lex/parse/flow cost for every
//! script, even though most files between two crawls are byte-identical.
//! This crate makes the second scan cheap: each script's analysis verdict
//! is stored under the BLAKE2s-256 hash of its source bytes, qualified by
//! the feature-space version and the limits preset it was computed under —
//! `(content hash, FEATURE_SPACE_VERSION, preset) → CacheRecord`.
//!
//! A [`CacheRecord`] replays the *whole* guarded verdict, not just happy
//! paths: the three-way [`OutcomeKind`](jsdetect_guard::OutcomeKind)
//! (ok / degraded / rejected), the typed failure kind for quarantined
//! scripts, and a space-independent
//! [`FeaturePayload`](jsdetect_features::FeaturePayload) that
//! [`VectorSpace::vectorize_payload`](jsdetect_features::VectorSpace::vectorize_payload)
//! turns into a vector bit-identical to one computed from source.
//!
//! Storage is a 256-way sharded directory tree with atomic tmp+rename
//! publishes and an in-memory LRU front ([`AnalysisCache`]); records are a
//! schema-versioned binary format with a trailing checksum ([`record`]
//! layout docs). Damage never aborts a batch: corrupt records are evicted
//! and recomputed, records from other versions are recomputed and
//! overwritten, and the distinction is observable through the
//! `cache/hit`, `cache/miss`, `cache/stale_version`, and
//! `cache/corrupt_evicted` counters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod blake;
mod lru;
mod maintenance;
mod record;
mod store;

pub use blake::{blake2s256, checksum64, ContentHash};
pub use maintenance::{gc, stats, verify, CacheStats, GcReport, VerifyReport};
pub use record::{
    decode, decode_embedded, encode, peek_header, CacheRecord, DecodeError, MAGIC,
    RECORD_SCHEMA_VERSION,
};
pub use store::{
    preset_tag, AnalysisCache, CacheConfig, PublishInjector, N_SHARDS, PUBLISH_RETRIES, RECORD_EXT,
};
