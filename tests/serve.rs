//! Integration tests for the resident daemon's robustness contract:
//!
//! - a full queue answers `overloaded`, it does not hang or buffer;
//! - a poisoned (panicked) worker is replaced and its request answered
//!   `quarantined`;
//! - a SIGTERM-equivalent shutdown drains every accepted request;
//! - the daemon's `accepted / rejected / degraded / drained` accounting
//!   reconciles exactly;
//! - interner exhaustion degrades the *request* (`resource` reject), not
//!   the process;
//! - the full transport stack (HTTP + framed protocol over TCP) routes
//!   through the same admission path;
//! - a request's own limits or deadline never reach the shared verdict
//!   cache, which holds verdicts under the daemon's default limits only.

use jsdetect_suite::cache::{AnalysisCache, CacheConfig};
use jsdetect_suite::detector::{train_pipeline, DetectorConfig, TrainedDetectors};
use jsdetect_suite::serve::{
    read_frame, signal, write_frame, AnalyzeRequest, ChaosConfig, Daemon, ServeConfig,
    TransportConfig,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn detectors() -> Arc<TrainedDetectors> {
    static CELL: OnceLock<Arc<TrainedDetectors>> = OnceLock::new();
    Arc::clone(CELL.get_or_init(|| {
        Arc::new(train_pipeline(32, 4242, &DetectorConfig::fast().with_seed(4242)).detectors)
    }))
}

/// A slow-but-bounded config: one worker with an injected stall on every
/// request, so the queue backs up on demand.
fn congested_config(queue_capacity: usize, delay_ms: u64) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity,
        watchdog_interval_ms: 20,
        chaos: ChaosConfig { delay_every: 1, delay_ms, ..Default::default() },
        ..ServeConfig::default()
    }
}

#[test]
fn a_verdict_under_a_request_deadline_is_not_published() {
    let dir = std::env::temp_dir().join(format!("jsdetect-serve-deadline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig::default();
    let cache = AnalysisCache::open(CacheConfig::new(&dir, &cfg.default_limits)).unwrap();
    let daemon = Daemon::start(cfg, detectors(), Some(Arc::new(cache)));
    let src = "var deadline_probe = [1, 2, 3].map(function (x) { return x * 2; });";

    let timed = daemon.call(AnalyzeRequest { deadline_ms: Some(5000), ..AnalyzeRequest::new(src) });
    assert_eq!(timed.status, "ok");
    assert!(!timed.from_cache);
    let first = daemon.call(AnalyzeRequest::new(src));
    assert!(!first.from_cache, "the verdict computed under a deadline was published");
    let second = daemon.call(AnalyzeRequest::new(src));
    assert!(second.from_cache, "a verdict under the default limits is published");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_answers_overloaded_not_hangs() {
    let daemon = Daemon::start(congested_config(2, 200), detectors(), None);
    // One in-flight + two queued fills the system; everything beyond must
    // be refused *immediately*.
    let mut receivers = Vec::new();
    receivers.push(daemon.submit(AnalyzeRequest::new("var a0 = 0;")).expect("within capacity"));
    // Let the lone worker take job 0 off the queue (and hit its injected
    // 200 ms stall) so the next two occupy the whole queue.
    std::thread::sleep(Duration::from_millis(60));
    for i in 1..3 {
        receivers.push(
            daemon
                .submit(AnalyzeRequest::new(format!("var a{i} = {i};")))
                .expect("within capacity"),
        );
    }
    let t0 = std::time::Instant::now();
    let refused = daemon.submit(AnalyzeRequest::new("var late = 1;")).expect_err("queue is full");
    assert!(t0.elapsed() < Duration::from_millis(50), "rejection must not block");
    assert_eq!(refused.status, "overloaded");
    assert_eq!(refused.error_kind, "queue_full");
    // Everything accepted still completes.
    for rx in receivers {
        let resp = rx.recv_timeout(Duration::from_secs(30)).expect("accepted => answered");
        assert_eq!(resp.status, "ok");
    }
    let report = daemon.shutdown();
    assert_eq!(report.stats.accepted, 3);
    assert_eq!(report.stats.responses, 3);
    assert_eq!(report.stats.rejected, 1);
}

#[test]
fn poisoned_worker_is_replaced_and_request_quarantined() {
    let cfg = ServeConfig {
        workers: 2,
        queue_capacity: 16,
        watchdog_interval_ms: 10,
        chaos: ChaosConfig { panic_every: 3, ..Default::default() },
        ..ServeConfig::default()
    };
    let daemon = Daemon::start(cfg, detectors(), None);
    let mut quarantined = 0;
    for i in 0..9 {
        let resp = daemon.call(AnalyzeRequest::new(format!("var q{i} = {i};")));
        assert!(
            resp.status == "ok" || resp.status == "quarantined",
            "every request is answered, got {}",
            resp.status
        );
        if resp.status == "quarantined" {
            quarantined += 1;
        }
        // Give the watchdog room to reseat poisoned workers under this
        // deliberately tiny pool.
        std::thread::sleep(Duration::from_millis(15));
    }
    assert_eq!(quarantined, 3, "every 3rd request hits the injected panic");
    assert_eq!(daemon.chaos().injected_panics(), 3);
    assert_eq!(daemon.workers_alive(), 2, "watchdog reseated every poisoned worker");
    let report = daemon.shutdown();
    assert_eq!(report.stats.accepted, 9);
    assert_eq!(report.stats.responses, 9, "no request lost to a panic");
    assert_eq!(report.stats.quarantined, 3);
    assert!(report.stats.worker_replaced >= 3);
}

#[test]
fn shutdown_drains_every_accepted_request_and_counters_reconcile() {
    let daemon = Arc::new(Daemon::start(congested_config(8, 40), detectors(), None));
    // Fill the queue, then shut down while everything is still pending.
    let mut receivers = Vec::new();
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for i in 0..12 {
        match daemon.submit(AnalyzeRequest::new(format!("var d{i} = {i};"))) {
            Ok(rx) => {
                accepted += 1;
                receivers.push(rx);
            }
            Err(resp) => {
                rejected += 1;
                assert_eq!(resp.status, "overloaded");
            }
        }
    }
    assert!(accepted >= 8, "queue plus in-flight should admit at least capacity");
    // SIGTERM-equivalent: drain (shutdown() is exactly what the signal
    // path invokes after the accept loop observes the flag).
    let report = daemon.shutdown();
    assert_eq!(report.stats.accepted, accepted);
    assert_eq!(report.stats.rejected, rejected);
    assert_eq!(report.stats.responses, accepted, "drain answers every accepted request");
    assert_eq!(
        report.stats.drained,
        report.stats.accepted - report.responded_before_shutdown,
        "drained == accepted − responded-before-shutdown"
    );
    assert!(report.stats.drained > 0, "shutdown raced ahead of a congested queue");
    // Every receiver got its response, even though the daemon is gone.
    for rx in receivers {
        let resp = rx.recv_timeout(Duration::from_secs(5)).expect("drained response");
        assert_eq!(resp.status, "ok");
    }
    // Post-drain admissions are refused, not queued.
    let late = daemon.submit(AnalyzeRequest::new("var z = 0;")).expect_err("draining");
    assert_eq!(late.status, "draining");
    assert!(!report.final_telemetry_jsonl.is_empty(), "final snapshot emitted");
}

#[test]
fn interner_exhaustion_degrades_the_request_not_the_process() {
    // An absurdly large reserve makes the headroom check fail for any
    // real interner state — the admission path must answer `resource`.
    let cfg = ServeConfig { interner_reserve: u32::MAX, ..ServeConfig::default() };
    let daemon = Daemon::start(cfg, detectors(), None);
    let resp = daemon.call(AnalyzeRequest::new("var x = 1;"));
    assert_eq!(resp.status, "resource");
    assert_eq!(resp.error_kind, "interner_exhausted");
    let report = daemon.shutdown();
    assert_eq!(report.stats.accepted, 0);
    assert_eq!(report.stats.rejected, 1);
    // The process (and a sanely-configured daemon) is entirely unharmed.
    let healthy = Daemon::start(ServeConfig::default(), detectors(), None);
    let resp = healthy.call(AnalyzeRequest::new("var y = 2;"));
    assert_eq!(resp.status, "ok");
    healthy.shutdown();
}

fn http_request(addr: &std::net::SocketAddr, req: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(req.as_bytes()).expect("write");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    out
}

#[test]
fn transport_speaks_http_and_frames_on_one_socket() {
    static FLAG: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    let daemon = Arc::new(Daemon::start(ServeConfig::default(), detectors(), None));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || {
            jsdetect_suite::serve::serve(daemon, listener, TransportConfig::default(), &FLAG)
        })
    };

    // HTTP: a clean analyze round-trip...
    let body = r#"{"src":"function f(n){return n+1;} f(1);"}"#;
    let resp = http_request(
        &addr,
        &format!(
            "POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "got: {resp}");
    assert!(resp.contains(r#""status":"ok""#), "got: {resp}");

    // ... malformed JSON is 400/invalid ...
    let resp = http_request(
        &addr,
        "POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\nnot json!",
    );
    assert!(resp.starts_with("HTTP/1.1 400"), "got: {resp}");
    assert!(resp.contains(r#""status":"invalid""#), "got: {resp}");

    // ... an oversized Content-Length is 413/oversized before any read ...
    let resp = http_request(
        &addr,
        "POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 999999999\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 413"), "got: {resp}");

    // ... health and metrics answer.
    let health = http_request(&addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(health.contains(r#""state":"serving""#), "got: {health}");
    let metrics = http_request(&addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(metrics.contains("serve_accepted"), "got: {}", &metrics[..metrics.len().min(400)]);

    // Framed protocol on the same port: two frames on one connection.
    let mut stream = TcpStream::connect(addr).expect("connect framed");
    for src in ["var a = 1;", "var b = 2;"] {
        let req = serde_json_request(src);
        write_frame(&mut stream, req.as_bytes()).expect("write frame");
        let frame = read_frame(&mut stream, 1 << 20).expect("read frame").expect("one response");
        let text = String::from_utf8(frame).expect("utf8");
        assert!(text.contains(r#""status":"ok""#), "got: {text}");
    }
    drop(stream);

    // SIGTERM-equivalent via the transport: flip the flag the signal
    // handler would set; the accept loop drains and returns the report.
    FLAG.store(true, std::sync::atomic::Ordering::Release);
    let report = server.join().expect("server thread").expect("serve result");
    assert_eq!(report.stats.accepted, report.stats.responses, "100% response accounting");
    assert!(report.stats.accepted >= 3, "analyze + 2 framed requests were accepted");
}

/// Hand-rolled request JSON (the vendored serde also works, but this keeps
/// the frame bytes visible in the test).
fn serde_json_request(src: &str) -> String {
    format!(r#"{{"src":"{src}"}}"#)
}

#[test]
fn programmatic_sigterm_flag_is_wired() {
    let flag = signal::install();
    signal::request_shutdown();
    assert!(flag.load(std::sync::atomic::Ordering::Acquire));
    assert!(signal::shutdown_requested());
}
