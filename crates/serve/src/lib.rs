//! `jsdetect-serve`: the resident detection daemon.
//!
//! The ROADMAP's "millions of users" story made concrete: a long-running
//! process that composes the guarded analysis sandbox, the
//! content-addressed verdict cache, the per-script classification path
//! and streaming telemetry into a service that survives sustained hostile
//! traffic. Every verdict reports the paper's Top-4 techniques at
//! `jsdetect::DEFAULT_THRESHOLD`, as the CLI and the experiments do. The
//! robustness core:
//!
//! - **Admission control** ([`queue::BoundedQueue`]): a bounded queue in
//!   front of a bounded worker pool. A full queue rejects with
//!   `overloaded` — never unbounded buffering.
//! - **Deadlines** → fuel: a per-request deadline is decremented by queue
//!   wait and mapped onto the guard's fuel-metered `deadline_ms` budget,
//!   so a request that waited too long is rejected before any lexing.
//! - **Watchdog** ([`daemon::Daemon`]): a panicked worker answers its
//!   request with a quarantined verdict and is replaced by a fresh
//!   thread; a stuck worker is abandoned, its request answered by the
//!   watchdog, and a replacement spawned.
//! - **Circuit breaker** ([`breaker::CircuitBreaker`]): p99-latency or
//!   reject-rate breaches flip the daemon into degraded lexer-only mode;
//!   half-open probes recover it.
//! - **Graceful drain**: shutdown stops admissions, drains every accepted
//!   request, joins the pool, and emits a final telemetry snapshot.
//! - **Fault injection** ([`chaos::Chaos`]): injected worker panics,
//!   artificial stage latency, and cache publish failures let tests
//!   exercise every failure mode above deterministically.
//!
//! Transport is std-only: one TCP listener speaks both a 4-byte
//! length-prefixed JSON framing and HTTP/1.1 (`POST /analyze`,
//! `GET /metrics`, `GET /healthz`, `POST /shutdown`), sniffed from the
//! first bytes of each connection.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod breaker;
pub mod chaos;
pub mod daemon;
pub mod http;
pub mod protocol;
pub mod queue;
pub mod signal;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, Mode};
pub use chaos::{Chaos, ChaosConfig};
pub use daemon::{Daemon, DaemonStats, ServeConfig, ShutdownReport};
pub use http::{serve, TransportConfig};
pub use protocol::{read_frame, write_frame, AnalyzeRequest, AnalyzeResponse, Status};
pub use queue::{BoundedQueue, PushError};
