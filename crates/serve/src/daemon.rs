//! The daemon core: bounded worker pool, watchdog, breaker, drain.
//!
//! Ownership layout: [`Daemon`] holds an `Arc<Shared>`; every worker
//! thread and the watchdog hold clones. Workers pull `Job`s off the
//! bounded queue; each job carries a single-shot `Responder`, so the
//! worker and the watchdog can race to answer it — whoever sends first
//! wins, the loser's response is dropped. That single invariant ("every
//! accepted job is answered exactly once, by somebody") is what the
//! integration tests reconcile: `accepted == responses` after drain.
//!
//! Failure containment is layered:
//!
//! 1. The guard's fuel budgets reject pathological inputs in-band.
//! 2. `isolate("serve_worker", ..)` fences panics that escape the
//!    analysis fences (e.g. injected chaos panics); the worker answers
//!    `quarantined`, marks itself dead, and exits — the watchdog spawns a
//!    replacement thread.
//! 3. The watchdog abandons workers stuck past `stuck_after_ms`
//!    (generation bump), answers their request `quarantined`
//!    (`watchdog_timeout`), and spawns a replacement. The abandoned
//!    thread eventually finishes, notices its generation is stale, drops
//!    its late response, and exits.
//! 4. The circuit breaker sheds parser work entirely when the p99 or the
//!    reject rate breaches.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker, Mode};
use crate::chaos::{Chaos, ChaosConfig};
use crate::protocol::{AnalyzeRequest, AnalyzeResponse, Status};
use crate::queue::{BoundedQueue, PushError};
use jsdetect::{
    classify_analyzed, classify_one_cached, AnalysisConfig, CachedScript, Limits, ScriptVerdict,
    TrainedDetectors, DEFAULT_THRESHOLD,
};
use jsdetect_ast::{global_interner, INTERNER_EXHAUSTED_MSG};
use jsdetect_cache::{AnalysisCache, ContentHash};
use jsdetect_features::analyze_lexer_only;
use jsdetect_guard::{isolate, AnalysisError, OutcomeKind};
use jsdetect_obs::names;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The paper's Top-k technique rule reports at most four techniques
/// (§III-E2), at [`DEFAULT_THRESHOLD`].
const TOP_K: usize = 4;

/// Daemon sizing and robustness knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker pool size.
    pub workers: usize,
    /// Bounded queue capacity (admission control limit).
    pub queue_capacity: usize,
    /// Limits preset applied when a request names none.
    pub default_limits: Limits,
    /// Deadline applied when a request names none (`0` = none).
    pub default_deadline_ms: u64,
    /// Watchdog scan interval.
    pub watchdog_interval_ms: u64,
    /// A worker in-flight longer than this is abandoned and its request
    /// quarantined.
    pub stuck_after_ms: u64,
    /// Interner headroom (atoms) required at admission; below it the
    /// request is refused `resource` instead of risking a mid-parse
    /// capacity panic.
    pub interner_reserve: u32,
    /// Circuit breaker thresholds.
    pub breaker: BreakerConfig,
    /// Fault injection schedule (all zeros = disarmed).
    pub chaos: ChaosConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            default_limits: Limits::wild(),
            default_deadline_ms: 0,
            watchdog_interval_ms: 100,
            stuck_after_ms: 10_000,
            interner_reserve: 1 << 16,
            breaker: BreakerConfig::default(),
            chaos: ChaosConfig::default(),
        }
    }
}

/// Daemon-local accounting. The obs counters carry the same names but are
/// process-global; these atomics are per-daemon so tests (which may run
/// several daemons in one process) can reconcile exactly.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    invalid: AtomicU64,
    responses: AtomicU64,
    degraded: AtomicU64,
    drained: AtomicU64,
    quarantined: AtomicU64,
    watchdog_timeouts: AtomicU64,
    worker_replaced: AtomicU64,
}

/// Point-in-time copy of the daemon's own accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonStats {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests refused at admission (overloaded / draining / resource).
    pub rejected: u64,
    /// Requests refused as malformed (unknown preset etc.).
    pub invalid: u64,
    /// Responses actually delivered for accepted requests.
    pub responses: u64,
    /// Responses served in breaker-degraded lexer-only mode.
    pub degraded: u64,
    /// Responses delivered after the drain began.
    pub drained: u64,
    /// Accepted requests answered `quarantined` (panic or watchdog).
    pub quarantined: u64,
    /// Stuck workers abandoned by the watchdog.
    pub watchdog_timeouts: u64,
    /// Replacement worker threads spawned.
    pub worker_replaced: u64,
}

impl Counters {
    fn stats(&self) -> DaemonStats {
        DaemonStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            watchdog_timeouts: self.watchdog_timeouts.load(Ordering::Relaxed),
            worker_replaced: self.worker_replaced.load(Ordering::Relaxed),
        }
    }
}

/// What [`Daemon::shutdown`] reports after the drain completes.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Final per-daemon accounting.
    pub stats: DaemonStats,
    /// `responses − drained`: requests answered before the drain began.
    pub responded_before_shutdown: u64,
    /// Final process telemetry snapshot, JSONL-rendered.
    pub final_telemetry_jsonl: String,
    /// Breaker position at exit.
    pub breaker_state: BreakerState,
}

/// Single-shot response channel: the first `send` wins, later sends are
/// dropped. This is how a worker and the watchdog can both hold the right
/// to answer a request without double-counting.
#[derive(Clone)]
struct Responder {
    tx: mpsc::Sender<AnalyzeResponse>,
    sent: Arc<AtomicBool>,
}

impl Responder {
    fn new(tx: mpsc::Sender<AnalyzeResponse>) -> Responder {
        Responder { tx, sent: Arc::new(AtomicBool::new(false)) }
    }

    /// Delivers `resp` if nobody answered yet; `true` when this call won.
    fn send(&self, resp: AnalyzeResponse) -> bool {
        if self.sent.swap(true, Ordering::AcqRel) {
            return false;
        }
        // A dropped receiver (client gave up) still counts as answered:
        // the daemon did its part.
        let _ = self.tx.send(resp);
        true
    }
}

/// One accepted request.
struct Job {
    id: u64,
    src: String,
    limits: Limits,
    deadline_ms: u64,
    accepted_at: Instant,
    responder: Responder,
}

/// What the watchdog needs to know about a worker's current request.
struct InFlight {
    job_id: u64,
    started: Instant,
    accepted_at: Instant,
    responder: Responder,
}

/// One worker seat. The thread occupying it checks `gen` between jobs; a
/// generation bump abandons the thread without blocking on it.
struct Slot {
    gen: AtomicU64,
    alive: AtomicBool,
    inflight: Mutex<Option<InFlight>>,
}

struct Shared {
    cfg: ServeConfig,
    queue: BoundedQueue<Job>,
    slots: Vec<Slot>,
    counters: Counters,
    breaker: CircuitBreaker,
    chaos: Arc<Chaos>,
    detectors: Arc<TrainedDetectors>,
    cache: Option<Arc<AnalysisCache>>,
    draining: AtomicBool,
    watchdog_stop: AtomicBool,
    next_job_id: AtomicU64,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// The resident detection daemon (transport-independent core).
pub struct Daemon {
    shared: Arc<Shared>,
    watchdog: Mutex<Option<std::thread::JoinHandle<()>>>,
    shut_down: AtomicBool,
}

impl Daemon {
    /// Starts the worker pool and watchdog around pre-loaded detectors and
    /// an optional shared verdict cache. If the chaos schedule arms cache
    /// publish failures, the injector is installed on `cache` here.
    pub fn start(
        cfg: ServeConfig,
        detectors: Arc<TrainedDetectors>,
        cache: Option<Arc<AnalysisCache>>,
    ) -> Daemon {
        // A resident daemon without live metrics is undebuggable; the
        // streaming core is cheap enough to keep on for the whole
        // process lifetime (PR 8's design premise).
        jsdetect_obs::set_enabled(true);
        let workers = cfg.workers.max(1);
        let chaos = Arc::new(Chaos::new(cfg.chaos.clone()));
        if let (Some(cache), Some(injector)) = (&cache, chaos.cache_injector()) {
            cache.set_publish_injector(Some(injector));
        }
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity.max(1)),
            slots: (0..workers)
                .map(|_| Slot {
                    gen: AtomicU64::new(0),
                    alive: AtomicBool::new(true),
                    inflight: Mutex::new(None),
                })
                .collect(),
            counters: Counters::default(),
            breaker: CircuitBreaker::new(cfg.breaker.clone()),
            chaos,
            detectors,
            cache,
            draining: AtomicBool::new(false),
            watchdog_stop: AtomicBool::new(false),
            next_job_id: AtomicU64::new(1),
            cfg,
            handles: Mutex::new(Vec::new()),
        });
        for i in 0..workers {
            spawn_worker(&shared, i, 0);
        }
        jsdetect_obs::gauge_set(names::GAUGE_SERVE_WORKERS_ALIVE, workers as f64);
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-watchdog".into())
                .spawn(move || watchdog_loop(&shared))
                .expect("spawn watchdog thread")
        };
        Daemon { shared, watchdog: Mutex::new(Some(watchdog)), shut_down: AtomicBool::new(false) }
    }

    /// Admission control: validates the request, checks drain state and
    /// interner headroom, and tries the bounded queue.
    ///
    /// # Errors
    ///
    /// Returns the refusal response to relay verbatim: `draining`,
    /// `resource` (interner headroom), `invalid` (unknown preset), or
    /// `overloaded` (queue full).
    #[allow(clippy::result_large_err)] // refusals are relayed by value
    pub fn submit(
        &self,
        req: AnalyzeRequest,
    ) -> Result<mpsc::Receiver<AnalyzeResponse>, AnalyzeResponse> {
        let s = &self.shared;
        if s.draining.load(Ordering::Acquire) {
            return Err(self.reject(Status::Draining, "draining", "daemon is shutting down"));
        }
        let stats = global_interner().stats();
        jsdetect_obs::gauge_set(names::GAUGE_INTERNER_OCCUPANCY, stats.occupancy());
        if !stats.has_headroom(s.cfg.interner_reserve) {
            return Err(self.reject(
                Status::Resource,
                "interner_exhausted",
                format!(
                    "atom interner at {}/{} capacity; refusing new work",
                    stats.count, stats.capacity
                ),
            ));
        }
        let limits = match req.limits.as_deref() {
            None => s.cfg.default_limits.clone(),
            Some(name) => match Limits::from_name(name) {
                Some(l) => l,
                None => {
                    s.counters.invalid.fetch_add(1, Ordering::Relaxed);
                    jsdetect_obs::counter_add(names::CTR_SERVE_REQUESTS_INVALID, 1);
                    return Err(AnalyzeResponse::refusal(
                        Status::Invalid,
                        "unknown_limits",
                        format!("unknown limits preset `{name}`"),
                    ));
                }
            },
        };
        let (tx, rx) = mpsc::channel();
        let job = Job {
            id: s.next_job_id.fetch_add(1, Ordering::Relaxed),
            src: req.src,
            limits,
            deadline_ms: req.deadline_ms.unwrap_or(s.cfg.default_deadline_ms),
            accepted_at: Instant::now(),
            responder: Responder::new(tx),
        };
        match s.queue.try_push(job) {
            Ok(()) => {
                s.counters.accepted.fetch_add(1, Ordering::Relaxed);
                jsdetect_obs::counter_add(names::CTR_SERVE_ACCEPTED, 1);
                jsdetect_obs::gauge_set(names::GAUGE_SERVE_QUEUE_DEPTH, s.queue.len() as f64);
                Ok(rx)
            }
            Err(PushError::Full(_)) => {
                s.breaker.record_reject();
                Err(self.reject(
                    Status::Overloaded,
                    "queue_full",
                    format!("queue at capacity ({})", s.queue.capacity()),
                ))
            }
            Err(PushError::Closed(_)) => {
                Err(self.reject(Status::Draining, "draining", "daemon is shutting down"))
            }
        }
    }

    /// Submit-and-wait convenience: the wait bound is derived from the
    /// watchdog contract (every accepted request is answered within queue
    /// drain time plus `stuck_after_ms`), so this cannot hang forever.
    pub fn call(&self, req: AnalyzeRequest) -> AnalyzeResponse {
        match self.submit(req) {
            Err(refusal) => refusal,
            Ok(rx) => rx.recv_timeout(self.max_wait()).unwrap_or_else(|_| {
                AnalyzeResponse::refusal(
                    Status::Timeout,
                    "response_timeout",
                    "no response within the watchdog bound",
                )
            }),
        }
    }

    /// Upper bound on how long an accepted request can take to be
    /// answered: every job ahead of it is bounded by `stuck_after_ms`
    /// (watchdog) plus injected delay, across `queue/workers` rounds.
    fn max_wait(&self) -> Duration {
        let cfg = &self.shared.cfg;
        let rounds = (cfg.queue_capacity / cfg.workers.max(1) + 2) as u64;
        let per_job = cfg.stuck_after_ms + cfg.watchdog_interval_ms + cfg.chaos.delay_ms;
        Duration::from_millis(rounds * per_job.max(100) + 5_000)
    }

    /// Stops admissions, drains every accepted request, joins the pool and
    /// the watchdog, and snapshots final telemetry. Idempotent: the second
    /// call reports without re-draining.
    pub fn shutdown(&self) -> ShutdownReport {
        let s = &self.shared;
        if !self.shut_down.swap(true, Ordering::AcqRel) {
            s.draining.store(true, Ordering::Release);
            s.queue.close();
            // Join workers until no thread is left; the watchdog may spawn
            // replacements mid-drain, so re-check after each batch.
            loop {
                let batch: Vec<_> = {
                    let mut handles = s.handles.lock().unwrap_or_else(|e| e.into_inner());
                    handles.drain(..).collect()
                };
                if batch.is_empty() {
                    break;
                }
                for h in batch {
                    let _ = h.join();
                }
            }
            s.watchdog_stop.store(true, Ordering::Release);
            if let Some(h) = self.watchdog.lock().unwrap_or_else(|e| e.into_inner()).take() {
                let _ = h.join();
            }
            if let Some(cache) = &s.cache {
                cache.set_publish_injector(None);
            }
            jsdetect_obs::gauge_set(names::GAUGE_SERVE_WORKERS_ALIVE, 0.0);
            jsdetect_obs::gauge_set(names::GAUGE_SERVE_QUEUE_DEPTH, 0.0);
        }
        let stats = s.counters.stats();
        ShutdownReport {
            responded_before_shutdown: stats.responses - stats.drained,
            final_telemetry_jsonl: jsdetect_obs::to_jsonl(&jsdetect_obs::snapshot()),
            breaker_state: s.breaker.state(),
            stats,
        }
    }

    /// Current per-daemon accounting.
    pub fn stats(&self) -> DaemonStats {
        self.shared.counters.stats()
    }

    /// Current breaker position.
    pub fn breaker_state(&self) -> BreakerState {
        self.shared.breaker.state()
    }

    /// Whether the daemon is draining for shutdown.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Current queue depth (racy; for health endpoints).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Configured worker pool size.
    pub fn workers(&self) -> usize {
        self.shared.slots.len()
    }

    /// Live worker count (seats whose thread has not died or exited).
    pub fn workers_alive(&self) -> usize {
        self.shared.slots.iter().filter(|s| s.alive.load(Ordering::Acquire)).count()
    }

    /// The daemon's fault-injection engine (for test assertions).
    pub fn chaos(&self) -> &Chaos {
        &self.shared.chaos
    }

    /// JSON health document for `GET /healthz`.
    pub fn healthz_json(&self) -> String {
        let stats = self.stats();
        format!(
            concat!(
                "{{\"state\":\"{}\",\"breaker\":\"{}\",\"workers\":{},\"workers_alive\":{},",
                "\"queue_depth\":{},\"queue_capacity\":{},\"accepted\":{},\"rejected\":{},",
                "\"responses\":{},\"degraded\":{},\"quarantined\":{}}}"
            ),
            if self.is_draining() { "draining" } else { "serving" },
            self.breaker_state().as_str(),
            self.workers(),
            self.workers_alive(),
            self.queue_depth(),
            self.shared.queue.capacity(),
            stats.accepted,
            stats.rejected,
            stats.responses,
            stats.degraded,
            stats.quarantined,
        )
    }

    fn reject(&self, status: Status, kind: &str, msg: impl Into<String>) -> AnalyzeResponse {
        self.shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        jsdetect_obs::counter_add(names::CTR_SERVE_REJECTED, 1);
        AnalyzeResponse::refusal(status, kind, msg)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.shut_down.load(Ordering::Acquire) {
            let _ = self.shutdown();
        }
    }
}

/// Central response bookkeeping: stamps latency, delivers through the
/// single-shot responder, and counts only if this delivery won.
fn respond(
    shared: &Shared,
    responder: &Responder,
    mut resp: AnalyzeResponse,
    accepted_at: Instant,
) {
    let latency_us = accepted_at.elapsed().as_micros() as u64;
    resp.latency_us = latency_us;
    let quarantined = resp.status_tag() == Status::Quarantined;
    let degraded_mode = resp.degraded_mode;
    if !responder.send(resp) {
        return;
    }
    shared.counters.responses.fetch_add(1, Ordering::Relaxed);
    jsdetect_obs::counter_add(names::CTR_SERVE_RESPONSES, 1);
    jsdetect_obs::observe(names::HIST_SERVE_LATENCY_US, latency_us);
    if quarantined {
        shared.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        jsdetect_obs::counter_add(names::CTR_SERVE_QUARANTINED, 1);
    }
    if degraded_mode {
        shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
        jsdetect_obs::counter_add(names::CTR_SERVE_DEGRADED, 1);
    }
    if shared.draining.load(Ordering::Acquire) {
        shared.counters.drained.fetch_add(1, Ordering::Relaxed);
        jsdetect_obs::counter_add(names::CTR_SERVE_DRAINED, 1);
    }
}

fn spawn_worker(shared: &Arc<Shared>, slot_idx: usize, gen: u64) {
    let me = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("serve-worker-{slot_idx}"))
        .spawn(move || worker_loop(&me, slot_idx, gen))
        .expect("spawn worker thread");
    shared.handles.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
}

fn worker_loop(shared: &Arc<Shared>, slot_idx: usize, my_gen: u64) {
    loop {
        let slot = &shared.slots[slot_idx];
        if slot.gen.load(Ordering::Acquire) != my_gen {
            return; // abandoned by the watchdog; a replacement owns the seat
        }
        let Some(job) = shared.queue.pop() else {
            // Queue closed and fully drained: clean exit.
            slot.alive.store(false, Ordering::Release);
            return;
        };
        *slot.inflight.lock().unwrap_or_else(|e| e.into_inner()) = Some(InFlight {
            job_id: job.id,
            started: Instant::now(),
            accepted_at: job.accepted_at,
            responder: job.responder.clone(),
        });
        let result = isolate("serve_worker", || execute(shared, &job));
        {
            // Clear our registration unless the watchdog already took it.
            let mut inflight = slot.inflight.lock().unwrap_or_else(|e| e.into_inner());
            if inflight.as_ref().map(|f| f.job_id) == Some(job.id) {
                *inflight = None;
            }
        }
        let abandoned = slot.gen.load(Ordering::Acquire) != my_gen;
        match result {
            Ok((resp, mode)) => {
                if abandoned {
                    // The watchdog answered for us and seated a
                    // replacement; our late result is dropped.
                    return;
                }
                let latency_ms = job.accepted_at.elapsed().as_millis() as u64;
                respond(shared, &job.responder, resp, job.accepted_at);
                shared.breaker.record_latency(latency_ms, mode);
            }
            Err(err) => {
                // A panic escaped the analysis fences (injected chaos, or
                // a bug outside `isolate("analyze")`). Answer the request,
                // poison this seat, and let the watchdog replace us.
                let resp = panic_response(&err);
                if !abandoned {
                    respond(shared, &job.responder, resp, job.accepted_at);
                }
                slot.alive.store(false, Ordering::Release);
                return;
            }
        }
    }
}

fn panic_response(err: &AnalysisError) -> AnalyzeResponse {
    let detail = err.to_string();
    if detail.contains(INTERNER_EXHAUSTED_MSG) {
        AnalyzeResponse::refusal(Status::Resource, "interner_exhausted", detail)
    } else {
        AnalyzeResponse::refusal(Status::Quarantined, err.kind(), detail)
    }
}

/// Runs one job: deadline bookkeeping, breaker mode selection, then either
/// the full cache-aware classification path or the lexer-only degraded
/// path. Returns the response plus the mode for breaker accounting.
fn execute(shared: &Shared, job: &Job) -> (AnalyzeResponse, Mode) {
    shared.chaos.before_analysis();
    let mut limits = job.limits.clone();
    if job.deadline_ms > 0 {
        let waited_ms = job.accepted_at.elapsed().as_millis() as u64;
        if waited_ms >= job.deadline_ms {
            let resp = AnalyzeResponse::refusal(
                Status::Timeout,
                "deadline_exceeded",
                format!(
                    "deadline ({} ms) expired after {} ms in queue",
                    job.deadline_ms, waited_ms
                ),
            );
            return (resp, Mode::Full);
        }
        // Queue wait is charged against the deadline; the remainder
        // becomes the guard's fuel-metered analysis budget.
        let remaining = job.deadline_ms - waited_ms;
        limits.deadline_ms =
            if limits.deadline_ms == 0 { remaining } else { limits.deadline_ms.min(remaining) };
    }
    let config = AnalysisConfig { limits };
    let mode = shared.breaker.admit_mode();
    let verdict = if mode.is_degraded() {
        let analyzed = degraded_analyze(shared, &job.src, &config);
        classify_analyzed(analyzed, &shared.detectors, TOP_K, DEFAULT_THRESHOLD)
    } else {
        classify_one_cached(
            &job.src,
            &config,
            shared.cache.as_deref(),
            &shared.detectors,
            TOP_K,
            DEFAULT_THRESHOLD,
        )
    };
    (verdict_response(&verdict, mode.is_degraded()), mode)
}

/// The breaker-degraded path: replay a cached full verdict when one
/// exists, otherwise run the lexer-only pipeline. The lexer-only verdict
/// is deliberately **not** published to the cache — it lives under the
/// same key a full verdict would, and must not shadow one.
fn degraded_analyze(shared: &Shared, src: &str, config: &AnalysisConfig) -> CachedScript {
    let hash = ContentHash::of(src.as_bytes());
    CachedScript::replayed(shared.cache.as_deref(), &config.limits, hash)
        .unwrap_or_else(|| CachedScript::computed(hash, analyze_lexer_only(src, &config.limits)))
}

fn verdict_response(v: &ScriptVerdict, degraded_mode: bool) -> AnalyzeResponse {
    let status = if v.error_kind == "deadline_exceeded" && v.outcome == OutcomeKind::Rejected {
        Status::Timeout
    } else {
        Status::Ok
    };
    let (regular, minified, obfuscated) =
        v.level1.map(|p| (p.regular, p.minified, p.obfuscated)).unwrap_or((0.0, 0.0, 0.0));
    AnalyzeResponse {
        status: status.as_str().to_string(),
        outcome: v.outcome.as_str().to_string(),
        error_kind: v.error_kind.clone(),
        error_msg: v.error_msg.clone(),
        transformed: v.is_transformed(),
        regular,
        minified,
        obfuscated,
        techniques: v.techniques.iter().map(|t| t.as_str().to_string()).collect(),
        from_cache: v.from_cache,
        degraded_mode,
        latency_us: 0, // stamped by `respond`
    }
}

fn watchdog_loop(shared: &Arc<Shared>) {
    let interval = Duration::from_millis(shared.cfg.watchdog_interval_ms.max(1));
    let stuck_after = Duration::from_millis(shared.cfg.stuck_after_ms.max(1));
    loop {
        std::thread::sleep(interval);
        if shared.watchdog_stop.load(Ordering::Acquire) {
            return;
        }
        let mut alive = 0usize;
        for (i, slot) in shared.slots.iter().enumerate() {
            // Take (don't just observe) a stuck registration so the
            // stuck worker can no longer race us for the response slot
            // bookkeeping.
            let stuck = {
                let mut inflight = slot.inflight.lock().unwrap_or_else(|e| e.into_inner());
                match &*inflight {
                    Some(f) if f.started.elapsed() >= stuck_after => inflight.take(),
                    _ => None,
                }
            };
            if let Some(f) = stuck {
                let resp = AnalyzeResponse::refusal(
                    Status::Quarantined,
                    "watchdog_timeout",
                    format!(
                        "worker stuck for over {} ms; request quarantined, worker replaced",
                        shared.cfg.stuck_after_ms
                    ),
                );
                respond(shared, &f.responder, resp, f.accepted_at);
                shared.counters.watchdog_timeouts.fetch_add(1, Ordering::Relaxed);
                jsdetect_obs::counter_add(names::CTR_SERVE_WATCHDOG_TIMEOUTS, 1);
                // Latency pressure from stuck workers must reach the
                // breaker, or a fully-stuck pool never degrades.
                shared
                    .breaker
                    .record_latency(f.accepted_at.elapsed().as_millis() as u64, Mode::Full);
                replace_worker(shared, i, slot);
                alive += 1;
                continue;
            }
            if slot.alive.load(Ordering::Acquire) {
                alive += 1;
            } else if !shared.draining.load(Ordering::Acquire) || !shared.queue.is_empty() {
                // A dead seat (panicked worker) gets a fresh thread —
                // unless we are draining an already-empty queue, where
                // workers exiting is the expected end state.
                replace_worker(shared, i, slot);
                alive += 1;
            }
        }
        jsdetect_obs::gauge_set(names::GAUGE_SERVE_WORKERS_ALIVE, alive as f64);
        jsdetect_obs::gauge_set(names::GAUGE_SERVE_QUEUE_DEPTH, shared.queue.len() as f64);
    }
}

fn replace_worker(shared: &Arc<Shared>, slot_idx: usize, slot: &Slot) {
    let gen = slot.gen.fetch_add(1, Ordering::AcqRel) + 1;
    slot.alive.store(true, Ordering::Release);
    spawn_worker(shared, slot_idx, gen);
    shared.counters.worker_replaced.fetch_add(1, Ordering::Relaxed);
    jsdetect_obs::counter_add(names::CTR_SERVE_WORKER_REPLACED, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect::{train_pipeline, DetectorConfig};
    use std::sync::OnceLock;

    fn detectors() -> Arc<TrainedDetectors> {
        static D: OnceLock<Arc<TrainedDetectors>> = OnceLock::new();
        Arc::clone(
            D.get_or_init(|| Arc::new(train_pipeline(24, 11, &DetectorConfig::fast()).detectors)),
        )
    }

    #[test]
    fn clean_request_round_trips_and_reconciles() {
        let daemon = Daemon::start(ServeConfig::default(), detectors(), None);
        let resp = daemon.call(AnalyzeRequest::new("function f(a) { return a + 1; } f(2);"));
        assert_eq!(resp.status, "ok");
        assert_eq!(resp.outcome, "ok");
        assert!(resp.latency_us > 0);
        let report = daemon.shutdown();
        assert_eq!(report.stats.accepted, 1);
        assert_eq!(report.stats.responses, 1);
        assert_eq!(report.stats.rejected, 0);
    }

    #[test]
    fn unknown_preset_is_invalid_not_accepted() {
        let daemon = Daemon::start(ServeConfig::default(), detectors(), None);
        let mut req = AnalyzeRequest::new("var x = 1;");
        req.limits = Some("turbo".into());
        let resp = daemon.call(req);
        assert_eq!(resp.status, "invalid");
        assert_eq!(resp.error_kind, "unknown_limits");
        let report = daemon.shutdown();
        assert_eq!(report.stats.accepted, 0);
        assert_eq!(report.stats.invalid, 1);
    }

    #[test]
    fn injected_panic_is_quarantined_and_worker_replaced() {
        let cfg = ServeConfig {
            workers: 1,
            watchdog_interval_ms: 10,
            chaos: ChaosConfig { panic_every: 2, ..Default::default() },
            ..Default::default()
        };
        let daemon = Daemon::start(cfg, detectors(), None);
        let first = daemon.call(AnalyzeRequest::new("var a = 1;"));
        assert_eq!(first.status, "ok");
        let second = daemon.call(AnalyzeRequest::new("var b = 2;"));
        assert_eq!(second.status, "quarantined", "2nd request hits the injected panic");
        assert!(second.error_msg.contains(crate::chaos::CHAOS_PANIC_MSG));
        // The watchdog must reseat the poisoned worker so the pool keeps
        // serving.
        let third = daemon.call(AnalyzeRequest::new("var c = 3;"));
        assert_eq!(third.status, "ok");
        let report = daemon.shutdown();
        assert_eq!(report.stats.accepted, 3);
        assert_eq!(report.stats.responses, 3);
        assert_eq!(report.stats.quarantined, 1);
        assert!(report.stats.worker_replaced >= 1);
        assert_eq!(daemon.chaos().injected_panics(), 1);
    }

    #[test]
    fn queue_deadline_expiry_is_answered_timeout() {
        let cfg = ServeConfig {
            workers: 1,
            chaos: ChaosConfig { delay_every: 1, delay_ms: 80, ..Default::default() },
            ..Default::default()
        };
        let daemon = Daemon::start(cfg, detectors(), None);
        // Occupy the lone worker, then enqueue a request whose deadline
        // will expire while it waits.
        let busy = daemon.submit(AnalyzeRequest::new("var busy = 1;")).unwrap();
        let mut doomed = AnalyzeRequest::new("var late = 2;");
        doomed.deadline_ms = Some(10);
        let doomed_rx = daemon.submit(doomed).unwrap();
        let busy_resp = busy.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(busy_resp.status, "ok");
        let doomed_resp = doomed_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(doomed_resp.status, "timeout");
        assert_eq!(doomed_resp.error_kind, "deadline_exceeded");
        let report = daemon.shutdown();
        assert_eq!(report.stats.responses, 2);
    }
}
