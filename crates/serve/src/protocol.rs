//! Wire types and framing for the daemon.
//!
//! One request/response vocabulary serves both transports: the 4-byte
//! big-endian length-prefixed JSON framing (machine clients) and HTTP/1.1
//! bodies (curl and load balancers). The [`Status`] field is the service
//! verdict — *how the daemon handled the request* — and is orthogonal to
//! the analysis `outcome` (*what the guard decided about the script*): an
//! accepted hostile script is `status: ok, outcome: rejected`, while an
//! overloaded daemon answers `status: overloaded` without analyzing at
//! all.

use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// One analysis request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyzeRequest {
    /// The JavaScript source to analyze.
    pub src: String,
    /// Guard limits preset (`wild` | `trusted` | `interactive`); the
    /// daemon default applies when absent.
    pub limits: Option<String>,
    /// End-to-end deadline in milliseconds, counted from admission. Queue
    /// wait is charged against it; the remainder becomes the guard's
    /// fuel-metered analysis deadline.
    pub deadline_ms: Option<u64>,
}

impl AnalyzeRequest {
    /// A request for `src` with every knob at the daemon default.
    pub fn new(src: impl Into<String>) -> AnalyzeRequest {
        AnalyzeRequest { src: src.into(), limits: None, deadline_ms: None }
    }
}

/// How the daemon handled a request (the service-level verdict).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Analyzed (fully or in breaker-degraded mode); see `outcome`.
    Ok,
    /// Refused at admission: the bounded queue is full.
    Overloaded,
    /// Refused at admission: the daemon is draining for shutdown.
    Draining,
    /// Refused at admission: a process-wide resource (atom interner) is
    /// out of headroom.
    Resource,
    /// The worker (or a stage inside it) panicked or got stuck; the
    /// request is answered quarantined and the worker replaced.
    Quarantined,
    /// The request's deadline expired (in queue or mid-analysis).
    Timeout,
    /// The request could not be parsed (malformed JSON, unknown preset,
    /// bad route).
    Invalid,
    /// The request body exceeded the transport size cap.
    Oversized,
}

impl Status {
    /// Stable wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::Draining => "draining",
            Status::Resource => "resource",
            Status::Quarantined => "quarantined",
            Status::Timeout => "timeout",
            Status::Invalid => "invalid",
            Status::Oversized => "oversized",
        }
    }

    /// HTTP status code for this service verdict. Analysis-level rejects
    /// (hostile scripts) are still successful *service* responses: 200.
    pub fn http_code(self) -> u16 {
        match self {
            Status::Ok | Status::Quarantined | Status::Timeout => 200,
            Status::Overloaded => 429,
            Status::Draining | Status::Resource => 503,
            Status::Invalid => 400,
            Status::Oversized => 413,
        }
    }
}

/// One analysis response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyzeResponse {
    /// Service verdict tag ([`Status::as_str`]).
    pub status: String,
    /// Guard outcome (`ok` | `degraded` | `rejected`); empty when the
    /// request never reached analysis.
    pub outcome: String,
    /// Typed failure kind, empty on success.
    pub error_kind: String,
    /// Human-readable failure, empty on success.
    pub error_msg: String,
    /// Level-1 verdict: transformed (minified and/or obfuscated)?
    pub transformed: bool,
    /// Level-1 confidence the script is regular.
    pub regular: f32,
    /// Level-1 confidence the script is minified.
    pub minified: f32,
    /// Level-1 confidence the script is obfuscated.
    pub obfuscated: f32,
    /// Level-2 thresholded Top-k technique names.
    pub techniques: Vec<String>,
    /// Whether the verdict was replayed from the shared cache.
    pub from_cache: bool,
    /// Whether the daemon served this in breaker-degraded lexer-only mode.
    pub degraded_mode: bool,
    /// End-to-end latency (admission to response) in microseconds.
    pub latency_us: u64,
}

impl AnalyzeResponse {
    /// A response that never reached analysis (admission reject, protocol
    /// error, watchdog verdict).
    pub fn refusal(status: Status, error_kind: &str, error_msg: impl Into<String>) -> Self {
        AnalyzeResponse {
            status: status.as_str().to_string(),
            outcome: String::new(),
            error_kind: error_kind.to_string(),
            error_msg: error_msg.into(),
            transformed: false,
            regular: 0.0,
            minified: 0.0,
            obfuscated: 0.0,
            techniques: Vec::new(),
            from_cache: false,
            degraded_mode: false,
            latency_us: 0,
        }
    }

    /// The [`Status`] this response carries (`Invalid` for unknown tags).
    pub fn status_tag(&self) -> Status {
        match self.status.as_str() {
            "ok" => Status::Ok,
            "overloaded" => Status::Overloaded,
            "draining" => Status::Draining,
            "resource" => Status::Resource,
            "quarantined" => Status::Quarantined,
            "timeout" => Status::Timeout,
            "oversized" => Status::Oversized,
            _ => Status::Invalid,
        }
    }
}

/// Hard ceiling on a single frame/body, independent of configuration.
pub const ABSOLUTE_MAX_FRAME: usize = 64 * 1024 * 1024;

/// Writes one `len(u32 BE) + JSON` frame.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` on clean EOF before the
/// prefix; an oversized prefix is an error (the caller answers
/// `oversized` and drops the connection — it cannot resync mid-stream).
///
/// # Errors
///
/// Propagates the underlying read error; oversized frames surface as
/// `InvalidData`.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    match r.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    read_frame_after_prefix(r, prefix, max_bytes)
}

/// Completes a frame read once the caller already consumed the 4-byte
/// prefix (the transport sniffs those bytes to tell HTTP from framing).
///
/// # Errors
///
/// Propagates the underlying read error; oversized frames surface as
/// `InvalidData`.
pub fn read_frame_after_prefix(
    r: &mut impl Read,
    prefix: [u8; 4],
    max_bytes: usize,
) -> std::io::Result<Option<Vec<u8>>> {
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max_bytes.min(ABSOLUTE_MAX_FRAME) {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "frame exceeds size cap"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, br#"{"src":"var x=1;"}"#).unwrap();
        let mut r = std::io::Cursor::new(buf);
        let frame = read_frame(&mut r, 1024).unwrap().unwrap();
        assert_eq!(frame, br#"{"src":"var x=1;"}"#);
        assert!(read_frame(&mut r, 1024).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_is_refused() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 64]).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert!(read_frame(&mut r, 16).is_err());
    }

    #[test]
    fn request_json_roundtrip_with_and_without_options() {
        let full = AnalyzeRequest {
            src: "var x=1;".into(),
            limits: Some("interactive".into()),
            deadline_ms: Some(250),
        };
        let json = serde_json::to_string(&full).unwrap();
        let back: AnalyzeRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.limits.as_deref(), Some("interactive"));
        assert_eq!(back.deadline_ms, Some(250));

        let sparse: AnalyzeRequest = serde_json::from_str(r#"{"src":"f();"}"#).unwrap();
        assert_eq!(sparse.src, "f();");
        assert!(sparse.limits.is_none() && sparse.deadline_ms.is_none());
    }

    #[test]
    fn status_codes_follow_the_overload_contract() {
        assert_eq!(Status::Ok.http_code(), 200);
        assert_eq!(Status::Overloaded.http_code(), 429);
        assert_eq!(Status::Draining.http_code(), 503);
        assert_eq!(Status::Invalid.http_code(), 400);
        assert_eq!(Status::Oversized.http_code(), 413);
        let r = AnalyzeResponse::refusal(Status::Overloaded, "queue_full", "at capacity");
        assert_eq!(r.status_tag(), Status::Overloaded);
    }
}
