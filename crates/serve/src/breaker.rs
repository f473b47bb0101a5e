//! The circuit breaker: latency/reject pressure flips the daemon into
//! degraded lexer-only mode; half-open probes recover it.
//!
//! State machine:
//!
//! ```text
//! Closed --(p99 > limit or reject-rate > limit over window)--> Open
//! Open --(cooldown elapsed)--> HalfOpen
//! HalfOpen --(all probes fast)--> Closed
//! HalfOpen --(a probe breaches)--> Open (cooldown restarts)
//! ```
//!
//! In `Open` and for non-probe requests in `HalfOpen`, workers skip the
//! parser and serve lexer-only verdicts
//! ([`jsdetect_features::analyze_lexer_only`]): the daemon sheds
//! the expensive 90% of per-request work while still answering every
//! request, instead of letting the queue's reject rate climb.

use jsdetect_obs::names;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Breaker thresholds and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Completed/rejected request events evaluated per decision window.
    pub window: usize,
    /// Minimum events in the window before evaluating at all.
    pub min_samples: usize,
    /// Open when the window's p99 end-to-end latency exceeds this.
    pub p99_limit_ms: u64,
    /// Open when the window's admission-reject fraction exceeds this.
    pub reject_rate_limit: f64,
    /// Cooldown before an open breaker lets probes through.
    pub open_ms: u64,
    /// Consecutive fast probes required to close again.
    pub probes: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 64,
            min_samples: 16,
            p99_limit_ms: 2_000,
            reject_rate_limit: 0.5,
            open_ms: 1_000,
            probes: 3,
        }
    }
}

/// Breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Full pipeline for everyone.
    Closed,
    /// Degraded lexer-only mode for everyone.
    Open,
    /// Probes run the full pipeline; the rest stay degraded.
    HalfOpen,
}

impl BreakerState {
    /// Stable tag for health endpoints.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// How one request should be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full pipeline.
    Full,
    /// Full pipeline, and its latency decides recovery.
    Probe,
    /// Lexer-only degraded pipeline.
    Degraded,
}

impl Mode {
    /// Whether this request runs lexer-only.
    pub fn is_degraded(self) -> bool {
        matches!(self, Mode::Degraded)
    }
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    /// Completed-request latencies (ms) in the current window.
    latencies: Vec<u64>,
    /// Admission rejects in the current window.
    rejects: usize,
    /// When `Open` may transition to `HalfOpen`.
    reopen_at: Instant,
    /// Probes still to hand out in `HalfOpen`.
    probes_left: usize,
    /// Fast probes observed in `HalfOpen`.
    probe_successes: usize,
}

/// The breaker itself; one per daemon, shared by all workers.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// Builds a closed breaker.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                latencies: Vec::with_capacity(cfg.window),
                rejects: 0,
                reopen_at: Instant::now(),
                probes_left: 0,
                probe_successes: 0,
            }),
            cfg,
        }
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Decides how the next request should be served (and performs the
    /// time-based `Open` → `HalfOpen` transition).
    pub fn admit_mode(&self) -> Mode {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => Mode::Full,
            BreakerState::Open => {
                if Instant::now() >= inner.reopen_at {
                    inner.state = BreakerState::HalfOpen;
                    inner.probes_left = self.cfg.probes;
                    inner.probe_successes = 0;
                    inner.probes_left -= 1;
                    Mode::Probe
                } else {
                    Mode::Degraded
                }
            }
            BreakerState::HalfOpen => {
                if inner.probes_left > 0 {
                    inner.probes_left -= 1;
                    Mode::Probe
                } else {
                    Mode::Degraded
                }
            }
        }
    }

    /// Records a completed request's end-to-end latency.
    pub fn record_latency(&self, latency_ms: u64, mode: Mode) {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => {
                inner.latencies.push(latency_ms);
                self.evaluate(&mut inner);
            }
            BreakerState::HalfOpen if mode == Mode::Probe => {
                if latency_ms <= self.cfg.p99_limit_ms {
                    inner.probe_successes += 1;
                    if inner.probe_successes >= self.cfg.probes {
                        self.close(&mut inner);
                    }
                } else {
                    self.open(&mut inner);
                }
            }
            // Degraded-mode latencies say nothing about full-pipeline
            // health; `Open` ignores everything until the cooldown.
            _ => {}
        }
    }

    /// Records an admission reject (queue full).
    pub fn record_reject(&self) {
        let mut inner = self.lock();
        if inner.state == BreakerState::Closed {
            inner.rejects += 1;
            self.evaluate(&mut inner);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Closed-state evaluation at window boundaries.
    fn evaluate(&self, inner: &mut Inner) {
        let events = inner.latencies.len() + inner.rejects;
        if events < self.cfg.min_samples {
            return;
        }
        let reject_rate = inner.rejects as f64 / events as f64;
        let p99_breach =
            percentile(&inner.latencies, 0.99).map(|p| p > self.cfg.p99_limit_ms).unwrap_or(false);
        if p99_breach || reject_rate > self.cfg.reject_rate_limit {
            self.open(inner);
        } else if events >= self.cfg.window {
            inner.latencies.clear();
            inner.rejects = 0;
        }
    }

    fn open(&self, inner: &mut Inner) {
        inner.state = BreakerState::Open;
        inner.reopen_at = Instant::now() + Duration::from_millis(self.cfg.open_ms);
        inner.latencies.clear();
        inner.rejects = 0;
        jsdetect_obs::counter_add(names::CTR_SERVE_BREAKER_OPENED, 1);
    }

    fn close(&self, inner: &mut Inner) {
        inner.state = BreakerState::Closed;
        inner.latencies.clear();
        inner.rejects = 0;
        jsdetect_obs::counter_add(names::CTR_SERVE_BREAKER_CLOSED, 1);
    }
}

/// Nearest-rank percentile over an unsorted sample.
fn percentile(samples: &[u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_samples: 4,
            p99_limit_ms: 100,
            reject_rate_limit: 0.5,
            open_ms: 10,
            probes: 2,
        }
    }

    #[test]
    fn slow_window_opens_then_probes_recover() {
        let b = CircuitBreaker::new(cfg());
        assert_eq!(b.state(), BreakerState::Closed);
        for _ in 0..4 {
            b.record_latency(500, Mode::Full);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit_mode(), Mode::Degraded, "open means degraded");

        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.admit_mode(), Mode::Probe, "cooldown elapsed: probe");
        assert_eq!(b.admit_mode(), Mode::Probe);
        assert_eq!(b.admit_mode(), Mode::Degraded, "probe budget spent");
        b.record_latency(10, Mode::Probe);
        b.record_latency(10, Mode::Probe);
        assert_eq!(b.state(), BreakerState::Closed, "fast probes close");
    }

    #[test]
    fn slow_probe_reopens() {
        let b = CircuitBreaker::new(cfg());
        for _ in 0..4 {
            b.record_latency(500, Mode::Full);
        }
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.admit_mode(), Mode::Probe);
        b.record_latency(5_000, Mode::Probe);
        assert_eq!(b.state(), BreakerState::Open, "slow probe reopens");
    }

    #[test]
    fn reject_rate_opens_without_any_latency() {
        let b = CircuitBreaker::new(cfg());
        b.record_latency(5, Mode::Full);
        for _ in 0..4 {
            b.record_reject();
        }
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn healthy_window_stays_closed_and_rolls() {
        let b = CircuitBreaker::new(cfg());
        for _ in 0..50 {
            b.record_latency(5, Mode::Full);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
