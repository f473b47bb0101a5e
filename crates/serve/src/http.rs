//! The std-only transport: one TCP listener, two protocols.
//!
//! Each connection's first four bytes are sniffed: an ASCII HTTP method
//! prefix (`GET `, `POST`, …) routes to a minimal HTTP/1.1 handler; any
//! other prefix is interpreted as the big-endian length of a JSON frame.
//! Both protocols funnel into the same [`Daemon`] admission path, so the
//! overload contract (429/`overloaded`, never unbounded buffering) is
//! identical regardless of how a client connects.
//!
//! Transport-level robustness lives here: read timeouts drop slow-loris
//! connections, a `Content-Length`/frame-length cap refuses oversized
//! bodies with `413`/`oversized`, and a concurrent-connection cap answers
//! `503` instead of accumulating sockets.

use crate::daemon::Daemon;
use crate::protocol::{
    read_frame, read_frame_after_prefix, write_frame, AnalyzeRequest, AnalyzeResponse, Status,
};
use crate::signal;
use jsdetect_obs::names;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Transport sizing and patience knobs.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Per-read socket timeout; a connection that trickles bytes slower
    /// than this is dropped (slow-loris guard).
    pub read_timeout_ms: u64,
    /// Cap on one HTTP body or one frame; beyond it the request is
    /// answered `oversized` (413).
    pub max_request_bytes: usize,
    /// Concurrent connection cap; beyond it new connections get `503`.
    pub max_connections: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            read_timeout_ms: 5_000,
            max_request_bytes: 4 * 1024 * 1024,
            max_connections: 256,
        }
    }
}

/// Cap on the HTTP head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Runs the accept loop until `shutdown` flips, then drains the daemon and
/// returns its final report. The listener is switched to non-blocking so
/// the loop can poll the flag between accepts.
///
/// # Errors
///
/// Returns the error if the listener cannot be switched to non-blocking;
/// per-connection I/O errors are contained per connection.
pub fn serve(
    daemon: Arc<Daemon>,
    listener: TcpListener,
    cfg: TransportConfig,
    shutdown: &'static AtomicBool,
) -> std::io::Result<crate::daemon::ShutdownReport> {
    listener.set_nonblocking(true)?;
    let active = Arc::new(AtomicUsize::new(0));
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if active.load(Ordering::Acquire) >= cfg.max_connections {
                    let _ = refuse_busy(stream);
                    continue;
                }
                active.fetch_add(1, Ordering::AcqRel);
                let daemon = Arc::clone(&daemon);
                let cfg = cfg.clone();
                let active = Arc::clone(&active);
                let _ = std::thread::Builder::new().name("serve-conn".into()).spawn(move || {
                    let _ = handle_connection(&daemon, stream, &cfg);
                    active.fetch_sub(1, Ordering::AcqRel);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Drain: every accepted request is answered; connection threads write
    // those responses out, then we give them a bounded grace period.
    let report = daemon.shutdown();
    let grace = std::time::Instant::now();
    while active.load(Ordering::Acquire) > 0 && grace.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok(report)
}

fn refuse_busy(mut stream: TcpStream) -> std::io::Result<()> {
    let body = br#"{"status":"overloaded","error_kind":"connection_cap","error_msg":"too many connections"}"#;
    write_http(&mut stream, 503, "application/json", body)
}

fn handle_connection(
    daemon: &Arc<Daemon>,
    mut stream: TcpStream,
    cfg: &TransportConfig,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))))?;
    stream.set_write_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))))?;
    let _ = stream.set_nodelay(true);
    let mut prefix = [0u8; 4];
    if let Err(e) = stream.read_exact(&mut prefix) {
        if is_timeout(&e) {
            jsdetect_obs::counter_add(names::CTR_SERVE_SLOW_LORIS_DROPPED, 1);
        }
        return Ok(()); // empty or dribbling connection: just drop it
    }
    if is_http_method_prefix(&prefix) {
        handle_http(daemon, &mut stream, prefix, cfg)
    } else {
        handle_framed(daemon, &mut stream, prefix, cfg)
    }
}

fn is_http_method_prefix(prefix: &[u8; 4]) -> bool {
    matches!(prefix, b"GET " | b"POST" | b"PUT " | b"HEAD" | b"DELE" | b"OPTI" | b"PATC")
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

// ---------------------------------------------------------------- framed

fn handle_framed(
    daemon: &Arc<Daemon>,
    stream: &mut TcpStream,
    first_prefix: [u8; 4],
    cfg: &TransportConfig,
) -> std::io::Result<()> {
    let mut first = Some(first_prefix);
    loop {
        let frame = match first.take() {
            Some(p) => read_frame_after_prefix(stream, p, cfg.max_request_bytes),
            None => read_frame(stream, cfg.max_request_bytes),
        };
        let frame = match frame {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(()), // clean EOF
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Oversized length prefix: answer and drop — there is no
                // way to resync a length-prefixed stream mid-frame.
                jsdetect_obs::counter_add(names::CTR_SERVE_REQUESTS_OVERSIZED, 1);
                let resp = AnalyzeResponse::refusal(
                    Status::Oversized,
                    "frame_too_large",
                    format!("frame exceeds {} byte cap", cfg.max_request_bytes),
                );
                return send_response_frame(stream, &resp);
            }
            Err(e) => {
                if is_timeout(&e) {
                    jsdetect_obs::counter_add(names::CTR_SERVE_SLOW_LORIS_DROPPED, 1);
                }
                return Ok(());
            }
        };
        let resp = match parse_request(&frame) {
            Ok(req) => daemon.call(req),
            Err(msg) => {
                jsdetect_obs::counter_add(names::CTR_SERVE_REQUESTS_INVALID, 1);
                AnalyzeResponse::refusal(Status::Invalid, "malformed_request", msg)
            }
        };
        send_response_frame(stream, &resp)?;
    }
}

fn parse_request(bytes: &[u8]) -> Result<AnalyzeRequest, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "request is not UTF-8".to_string())?;
    serde_json::from_str::<AnalyzeRequest>(text).map_err(|e| format!("malformed request: {e}"))
}

fn send_response_frame(stream: &mut TcpStream, resp: &AnalyzeResponse) -> std::io::Result<()> {
    let json = serde_json::to_string(resp)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame(stream, json.as_bytes())
}

// ------------------------------------------------------------------ http

fn handle_http(
    daemon: &Arc<Daemon>,
    stream: &mut TcpStream,
    prefix: [u8; 4],
    cfg: &TransportConfig,
) -> std::io::Result<()> {
    let mut head = prefix.to_vec();
    let header_end = loop {
        if let Some(pos) = find_header_end(&head) {
            break pos;
        }
        if head.len() > MAX_HEAD_BYTES {
            jsdetect_obs::counter_add(names::CTR_SERVE_REQUESTS_OVERSIZED, 1);
            return respond_refusal(
                stream,
                Status::Oversized,
                "headers_too_large",
                "request head exceeds cap",
            );
        }
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // peer went away mid-head
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                jsdetect_obs::counter_add(names::CTR_SERVE_SLOW_LORIS_DROPPED, 1);
                return respond_refusal(
                    stream,
                    Status::Invalid,
                    "slow_loris",
                    "request head timed out",
                );
            }
            Err(e) => return Err(e),
        }
    };
    let head_text = String::from_utf8_lossy(&head[..header_end]).into_owned();
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or_default().to_string();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    if content_length > cfg.max_request_bytes {
        jsdetect_obs::counter_add(names::CTR_SERVE_REQUESTS_OVERSIZED, 1);
        return respond_refusal(
            stream,
            Status::Oversized,
            "body_too_large",
            format!("body of {content_length} bytes exceeds {} byte cap", cfg.max_request_bytes),
        );
    }
    let mut body = head[header_end + 4..].to_vec();
    while body.len() < content_length {
        let mut chunk = vec![0u8; (content_length - body.len()).min(64 * 1024)];
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                jsdetect_obs::counter_add(names::CTR_SERVE_SLOW_LORIS_DROPPED, 1);
                return respond_refusal(
                    stream,
                    Status::Invalid,
                    "slow_loris",
                    "request body timed out",
                );
            }
            Err(e) => return Err(e),
        }
    }
    body.truncate(content_length);
    route(daemon, stream, &request_line, &body)
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn route(
    daemon: &Arc<Daemon>,
    stream: &mut TcpStream,
    request_line: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default();
    let path = parts.next().unwrap_or_default();
    match (method, path) {
        ("POST", "/analyze") => match parse_request(body) {
            Ok(req) => {
                let resp = daemon.call(req);
                respond_json(stream, resp.status_tag().http_code(), &to_json(&resp)?)
            }
            Err(msg) => {
                jsdetect_obs::counter_add(names::CTR_SERVE_REQUESTS_INVALID, 1);
                respond_refusal(stream, Status::Invalid, "malformed_request", msg)
            }
        },
        ("GET", "/metrics") => {
            let text = jsdetect_obs::render_prometheus(&jsdetect_obs::snapshot());
            write_http(stream, 200, "text/plain; version=0.0.4", text.as_bytes())
        }
        ("GET", "/healthz") => respond_json(stream, 200, &daemon.healthz_json()),
        ("POST", "/shutdown") => {
            signal::request_shutdown();
            respond_json(stream, 200, r#"{"ok":true,"state":"draining"}"#)
        }
        _ => {
            jsdetect_obs::counter_add(names::CTR_SERVE_REQUESTS_INVALID, 1);
            respond_refusal(
                stream,
                Status::Invalid,
                "no_such_route",
                format!("no route for {method} {path}"),
            )
        }
    }
}

fn to_json(resp: &AnalyzeResponse) -> std::io::Result<String> {
    serde_json::to_string(resp)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

fn respond_refusal(
    stream: &mut TcpStream,
    status: Status,
    kind: &str,
    msg: impl Into<String>,
) -> std::io::Result<()> {
    let resp = AnalyzeResponse::refusal(status, kind, msg);
    respond_json(stream, status.http_code(), &to_json(&resp)?)
}

fn respond_json(stream: &mut TcpStream, code: u16, body: &str) -> std::io::Result<()> {
    write_http(stream, code, "application/json", body.as_bytes())
}

fn write_http(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "OK",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}
