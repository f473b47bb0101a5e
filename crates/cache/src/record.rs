//! The schema-versioned binary record format.
//!
//! One record holds everything needed to replay one script's analysis
//! verdict without re-lexing or re-parsing: the three-way guard
//! [`OutcomeKind`], the failure kind/message for degraded and rejected
//! scripts, and the space-independent [`FeaturePayload`] (hand-picked and
//! lint f32 blocks verbatim, 4-gram counts exact).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            4  b"JDC1"
//! schema           u16   RECORD_SCHEMA_VERSION
//! feature_version  u32   FEATURE_SPACE_VERSION the payload was computed under
//! preset tag       u16 len + UTF-8 bytes (limits preset the verdict holds for)
//! content hash     32    full BLAKE2s-256 of the source bytes
//! outcome          u8    0 ok / 1 degraded / 2 rejected
//! error kind       u16 len + UTF-8 (empty for ok)
//! error message    u16 len + UTF-8 (empty for ok)
//! has_payload      u8
//!   degraded       u8
//!   handpicked     u16 n + n × f32
//!   lint           u16 n + n × f32
//!   normalize      u16 n + n × f32
//!   ngrams         u32 n + n × (4-byte gram + u32 count)
//! checksum         u64   checksum64 of every preceding byte
//! ```
//!
//! Decoding classifies every failure as either **stale** (a well-formed
//! record from another schema or feature-space version — recompute,
//! overwrite) or **corrupt** (truncated, bit-flipped, wrong magic — evict,
//! recompute). The trailing checksum is what turns silent disk rot into a
//! typed [`DecodeError::BadChecksum`] instead of garbage features.

use crate::blake::{checksum64, ContentHash};
use jsdetect_features::FeaturePayload;
use jsdetect_guard::OutcomeKind;
use std::fmt;

/// Version of the binary record layout. Bump on any layout change;
/// decoders treat other schemas as stale, never as corrupt (v2: the
/// normalization-delta f32 block between the lint and ngram blocks).
pub const RECORD_SCHEMA_VERSION: u16 = 2;

/// File magic: "JsDetect Cache", layout generation 1.
pub const MAGIC: [u8; 4] = *b"JDC1";

/// One script's cached verdict: outcome + optional feature payload.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheRecord {
    /// Three-way guard verdict this record replays.
    pub outcome: OutcomeKind,
    /// Stable error kind tag (`AnalysisError::kind()`), empty for ok.
    pub error_kind: String,
    /// Human-readable error rendering, empty for ok.
    pub error_msg: String,
    /// The feature payload; present for ok and degraded outcomes, absent
    /// for rejected ones (nothing trustworthy was produced).
    pub payload: Option<FeaturePayload>,
}

/// Why a record failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Shorter than the fixed header + checksum trailer.
    Truncated,
    /// Magic bytes are not [`MAGIC`].
    BadMagic,
    /// Trailing checksum does not match the body (bit flip / partial write).
    BadChecksum,
    /// Well-formed, but written under a different record schema.
    StaleSchema {
        /// Schema version found in the record.
        found: u16,
    },
    /// Well-formed, but computed under a different feature-space version.
    StaleFeatureVersion {
        /// Feature-space version found in the record.
        found: u32,
    },
    /// Well-formed, but for a different limits preset than expected.
    StalePreset {
        /// Preset tag found in the record.
        found: String,
    },
    /// Well-formed, but the embedded content hash is not the one the
    /// caller asked for (prefix collision or a renamed file).
    HashMismatch,
    /// Structurally invalid (a length field runs past the buffer, an
    /// unknown outcome tag, non-UTF-8 text, ...).
    Malformed(&'static str),
}

impl DecodeError {
    /// Whether the record is merely from another version (recompute and
    /// overwrite) rather than damaged (evict the file).
    pub fn is_stale(&self) -> bool {
        matches!(
            self,
            DecodeError::StaleSchema { .. }
                | DecodeError::StaleFeatureVersion { .. }
                | DecodeError::StalePreset { .. }
        )
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "record truncated"),
            DecodeError::BadMagic => write!(f, "bad magic bytes"),
            DecodeError::BadChecksum => write!(f, "checksum mismatch"),
            DecodeError::StaleSchema { found } => {
                write!(f, "stale record schema {} (current {})", found, RECORD_SCHEMA_VERSION)
            }
            DecodeError::StaleFeatureVersion { found } => {
                write!(f, "stale feature-space version {}", found)
            }
            DecodeError::StalePreset { found } => write!(f, "record for preset `{}`", found),
            DecodeError::HashMismatch => write!(f, "embedded content hash mismatch"),
            DecodeError::Malformed(what) => write!(f, "malformed record: {}", what),
        }
    }
}

impl std::error::Error for DecodeError {}

fn outcome_tag(o: OutcomeKind) -> u8 {
    match o {
        OutcomeKind::Ok => 0,
        OutcomeKind::Degraded => 1,
        OutcomeKind::Rejected => 2,
    }
}

/// Writes `s` behind a u16 length, cut at the last char boundary that
/// fits, so a long error message stays valid UTF-8.
fn push_str(buf: &mut Vec<u8>, s: &str) {
    let s = &s[..s.floor_char_boundary(u16::MAX as usize)];
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Encodes one record, including the trailing checksum.
pub fn encode(
    record: &CacheRecord,
    hash: &ContentHash,
    feature_version: u32,
    preset: &str,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&RECORD_SCHEMA_VERSION.to_le_bytes());
    buf.extend_from_slice(&feature_version.to_le_bytes());
    push_str(&mut buf, preset);
    buf.extend_from_slice(&hash.0);
    buf.push(outcome_tag(record.outcome));
    push_str(&mut buf, &record.error_kind);
    push_str(&mut buf, &record.error_msg);
    match &record.payload {
        None => buf.push(0),
        Some(p) => {
            buf.push(1);
            buf.push(p.degraded as u8);
            buf.extend_from_slice(&(p.handpicked.len() as u16).to_le_bytes());
            for v in &p.handpicked {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            buf.extend_from_slice(&(p.lint.len() as u16).to_le_bytes());
            for v in &p.lint {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            buf.extend_from_slice(&(p.normalize.len() as u16).to_le_bytes());
            for v in &p.normalize {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            buf.extend_from_slice(&(p.ngrams.len() as u32).to_le_bytes());
            for (g, c) in &p.ngrams {
                buf.extend_from_slice(g);
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    let sum = checksum64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// A bounds-checked little-endian reader over the record body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Malformed("length field past end of record"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f32(&mut self) -> Result<f32, DecodeError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::Malformed("non-UTF-8 string field"))
    }
}

/// Decodes one record against its *own* embedded header: checksum, magic,
/// and schema are verified, and the record's (hash, feature-space version,
/// preset tag) are returned alongside it for the caller to judge. This is
/// what `cache verify` uses — it has no external expectations, only the
/// file itself.
pub fn decode_embedded(
    bytes: &[u8],
) -> Result<(CacheRecord, ContentHash, u32, String), DecodeError> {
    // Fixed prefix (magic + schema + feature version = 10) plus the
    // 8-byte checksum trailer is the minimum credible record.
    if bytes.len() < 18 {
        return Err(DecodeError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte slice"));
    if bytes[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    if checksum64(body) != stored {
        return Err(DecodeError::BadChecksum);
    }

    let mut r = Reader { buf: body, pos: 4 };
    let schema = r.u16()?;
    if schema != RECORD_SCHEMA_VERSION {
        return Err(DecodeError::StaleSchema { found: schema });
    }
    let feature_version = r.u32()?;
    let preset = r.string()?;
    let hash_bytes = r.take(32)?;
    let hash = ContentHash(hash_bytes.try_into().expect("32-byte slice"));

    let outcome = match r.u8()? {
        0 => OutcomeKind::Ok,
        1 => OutcomeKind::Degraded,
        2 => OutcomeKind::Rejected,
        _ => return Err(DecodeError::Malformed("unknown outcome tag")),
    };
    let error_kind = r.string()?;
    let error_msg = r.string()?;
    let payload = match r.u8()? {
        0 => None,
        1 => {
            let degraded = r.u8()? != 0;
            let n_hand = r.u16()? as usize;
            let mut handpicked = Vec::with_capacity(n_hand);
            for _ in 0..n_hand {
                handpicked.push(r.f32()?);
            }
            let n_lint = r.u16()? as usize;
            let mut lint = Vec::with_capacity(n_lint);
            for _ in 0..n_lint {
                lint.push(r.f32()?);
            }
            let n_norm = r.u16()? as usize;
            let mut normalize = Vec::with_capacity(n_norm);
            for _ in 0..n_norm {
                normalize.push(r.f32()?);
            }
            let n_grams = r.u32()? as usize;
            // A length field cannot promise more entries than bytes left.
            if n_grams > (body.len() - r.pos) / 8 {
                return Err(DecodeError::Malformed("ngram count past end of record"));
            }
            let mut ngrams = Vec::with_capacity(n_grams);
            for _ in 0..n_grams {
                let g = r.take(4)?;
                let gram = [g[0], g[1], g[2], g[3]];
                ngrams.push((gram, r.u32()?));
            }
            Some(FeaturePayload { handpicked, lint, normalize, ngrams, degraded })
        }
        _ => return Err(DecodeError::Malformed("unknown payload tag")),
    };
    if r.pos != body.len() {
        return Err(DecodeError::Malformed("trailing bytes after payload"));
    }
    Ok((CacheRecord { outcome, error_kind, error_msg, payload }, hash, feature_version, preset))
}

/// Decodes one record, verifying checksum, schema, feature-space version,
/// preset tag, and the embedded content hash against the caller's
/// expectations.
pub fn decode(
    bytes: &[u8],
    expect_hash: &ContentHash,
    expect_feature_version: u32,
    expect_preset: &str,
) -> Result<CacheRecord, DecodeError> {
    let (record, hash, feature_version, preset) = decode_embedded(bytes)?;
    if feature_version != expect_feature_version {
        return Err(DecodeError::StaleFeatureVersion { found: feature_version });
    }
    if preset != expect_preset {
        return Err(DecodeError::StalePreset { found: preset });
    }
    if hash != *expect_hash {
        return Err(DecodeError::HashMismatch);
    }
    Ok(record)
}

/// Reads only the version header of a record (magic, schema, feature
/// version, preset) after checksum validation — what `cache stats` and
/// `gc` need without materializing payloads.
pub fn peek_header(bytes: &[u8]) -> Result<(u16, u32, String), DecodeError> {
    if bytes.len() < 18 {
        return Err(DecodeError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    if bytes[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    if checksum64(body) != u64::from_le_bytes(trailer.try_into().expect("8-byte slice")) {
        return Err(DecodeError::BadChecksum);
    }
    let mut r = Reader { buf: body, pos: 4 };
    let schema = r.u16()?;
    let feature_version = r.u32()?;
    let preset = r.string()?;
    Ok((schema, feature_version, preset))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> CacheRecord {
        CacheRecord {
            outcome: OutcomeKind::Ok,
            error_kind: String::new(),
            error_msg: String::new(),
            payload: Some(FeaturePayload {
                handpicked: vec![1.5, -0.25, 3.0],
                lint: vec![0.0, 0.125],
                normalize: vec![1.0, -0.5],
                ngrams: vec![([1, 2, 3, 4], 7), ([9, 9, 9, 9], 1)],
                degraded: false,
            }),
        }
    }

    fn hash() -> ContentHash {
        ContentHash::of(b"var x = 1;")
    }

    #[test]
    fn roundtrip_ok_record() {
        let rec = sample_record();
        let bytes = encode(&rec, &hash(), 2, "wild");
        let back = decode(&bytes, &hash(), 2, "wild").unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn roundtrip_rejected_record_without_payload() {
        let rec = CacheRecord {
            outcome: OutcomeKind::Rejected,
            error_kind: "ast_depth_exceeded".to_string(),
            error_msg: "AST depth exceeded: nesting deeper than 150".to_string(),
            payload: None,
        };
        let bytes = encode(&rec, &hash(), 2, "wild");
        assert_eq!(decode(&bytes, &hash(), 2, "wild").unwrap(), rec);
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = encode(&sample_record(), &hash(), 2, "wild");
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut], &hash(), 2, "wild").unwrap_err();
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated | DecodeError::BadChecksum | DecodeError::BadMagic
                ),
                "cut at {} gave {:?}",
                cut,
                err
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode(&sample_record(), &hash(), 2, "wild");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                decode(&bad, &hash(), 2, "wild").is_err(),
                "bit flip at byte {} went undetected",
                i
            );
        }
    }

    #[test]
    fn zero_length_and_garbage_are_corrupt_not_stale() {
        assert_eq!(decode(&[], &hash(), 2, "wild").unwrap_err(), DecodeError::Truncated);
        let err = decode(&[0u8; 64], &hash(), 2, "wild").unwrap_err();
        assert!(!err.is_stale(), "{:?}", err);
    }

    #[test]
    fn version_mismatches_are_stale_not_corrupt() {
        let bytes = encode(&sample_record(), &hash(), 2, "wild");
        let err = decode(&bytes, &hash(), 3, "wild").unwrap_err();
        assert_eq!(err, DecodeError::StaleFeatureVersion { found: 2 });
        assert!(err.is_stale());
        let err = decode(&bytes, &hash(), 2, "trusted").unwrap_err();
        assert_eq!(err, DecodeError::StalePreset { found: "wild".to_string() });
        assert!(err.is_stale());
    }

    #[test]
    fn wrong_hash_is_rejected() {
        let bytes = encode(&sample_record(), &hash(), 2, "wild");
        let other = ContentHash::of(b"var y = 2;");
        assert_eq!(decode(&bytes, &other, 2, "wild").unwrap_err(), DecodeError::HashMismatch);
    }

    #[test]
    fn peek_header_reads_versions() {
        let bytes = encode(&sample_record(), &hash(), 7, "interactive");
        let (schema, fv, preset) = peek_header(&bytes).unwrap();
        assert_eq!(schema, RECORD_SCHEMA_VERSION);
        assert_eq!(fv, 7);
        assert_eq!(preset, "interactive");
    }
}
