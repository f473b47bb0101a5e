//! The streaming telemetry registry: per-thread atomic cells readable
//! live, with no flush step between recording and snapshotting.
//!
//! PR 3's collector buffered records per thread and merged them into a
//! global registry on an explicit `flush()` — which made mid-run state
//! invisible and turned a missing flush in scoped-thread workers into a
//! silent data-loss footgun. This rewrite removes the buffer entirely:
//!
//! - Every recording thread owns a [`ThreadCells`] block of plain atomics
//!   (counter cells, log2-bucket histogram cells for values and span
//!   latencies) plus a bounded seqlock [`Ring`] of raw span/counter
//!   events. Records are a handful of relaxed atomic ops; there is no
//!   global lock on the hot path.
//! - Metric names are interned once per process into three id spaces
//!   (counters, value histograms, span paths); each thread caches the
//!   `&'static str → id` mapping locally, so steady-state recording never
//!   touches the interner mutex.
//! - [`snapshot`] merges every thread's cells with relaxed loads while
//!   workers keep recording — a live, consistent-enough view: counters are
//!   monotone across snapshots, histograms may trail in-flight records by
//!   at most one observation per writer.
//! - Cells are never removed from the registry (totals stay monotone);
//!   exiting threads return their cells to a free pool for reuse, so
//!   memory is bounded by peak concurrency, not by thread churn.

use crate::histogram::Histogram;
use crate::ring::{EventKind, Ring};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};

/// Id-space capacities. Overflowing one drops the *new* metric (never
/// recorded data for existing names) and bumps the `obs/name_overflow`
/// counter — bounded memory beats unbounded cardinality for an always-on
/// collector.
const COUNTER_SLOTS: usize = 512;
const HIST_SLOTS: usize = 128;
const SPAN_SLOTS: usize = 1024;

/// Sentinel ids. `ROOT_PARENT` marks "no enclosing span"; `NO_ID` marks a
/// name that failed to intern (its records are dropped).
const ROOT_PARENT: u32 = u32::MAX;
const NO_ID: u32 = u32::MAX - 1;

/// One completed span occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Slash-joined nesting path, e.g. `analyze/parse`.
    pub path: String,
    /// Start offset from the process telemetry epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Telemetry-assigned recording-thread id (dense, starts at 0).
    pub thread: u64,
}

/// One counter increment captured by the trace ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterEvent {
    /// Counter name.
    pub name: String,
    /// Timestamp offset from the process telemetry epoch, in nanoseconds.
    pub ts_ns: u64,
    /// Amount added.
    pub delta: u64,
    /// Telemetry-assigned recording-thread id.
    pub thread: u64,
}

/// Aggregate statistics for one span path.
#[derive(Debug, Clone)]
pub struct SpanStat {
    /// Slash-joined nesting path.
    pub path: String,
    /// Number of completed spans.
    pub count: u64,
    /// Total duration in nanoseconds.
    pub total_ns: u64,
    /// Shortest occurrence in nanoseconds.
    pub min_ns: u64,
    /// Longest occurrence in nanoseconds.
    pub max_ns: u64,
    /// Log-scaled latency distribution (nanoseconds).
    pub latency: Histogram,
}

/// A point-in-time copy of everything the registry has collected. Taken
/// live: workers never pause, and repeated snapshots see monotonically
/// non-decreasing counters and span counts.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Per-path span aggregates, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Raw span events: ring-retained events in timestamp order, then
    /// externally injected events (see [`record_span_ns`]) in insertion
    /// order. Bounded per thread; see `dropped_events`.
    pub events: Vec<SpanEvent>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges (last write wins), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Value histograms, sorted by name.
    pub hists: Vec<(String, Histogram)>,
    /// Counter increments retained by the trace rings, in timestamp order.
    pub counter_events: Vec<CounterEvent>,
    /// Raw trace events overwritten after a thread's ring filled
    /// (aggregate stats are unaffected). Also surfaced as the
    /// `obs/trace_dropped` counter when nonzero.
    pub dropped_events: u64,
}

impl Snapshot {
    /// The aggregate for one span path, if recorded.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// A counter's value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// A value histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// Poison-tolerant lock: a panic on another recording thread must not take
/// telemetry down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Name interning
// ---------------------------------------------------------------------------

/// Names that failed to intern because an id space filled up (surfaced as
/// the `obs/name_overflow` counter).
static NAME_OVERFLOW: AtomicU64 = AtomicU64::new(0);

/// Forward (name → id) and reverse (id → name) tables of one id space.
type NameTables = (HashMap<String, u32>, Vec<String>);

struct Interner {
    cap: usize,
    inner: LazyLock<Mutex<NameTables>>,
}

impl Interner {
    const fn new(cap: usize) -> Self {
        Interner { cap, inner: LazyLock::new(|| Mutex::new((HashMap::new(), Vec::new()))) }
    }

    /// Id for `name`, interning it on first sight. `None` once the id
    /// space is full (the attempt is counted in `NAME_OVERFLOW`).
    fn intern(&self, name: &str) -> Option<u32> {
        let mut g = lock(&self.inner);
        let (map, names) = &mut *g;
        if let Some(&id) = map.get(name) {
            return Some(id);
        }
        if names.len() >= self.cap {
            NAME_OVERFLOW.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let id = names.len() as u32;
        names.push(name.to_string());
        map.insert(name.to_string(), id);
        Some(id)
    }

    fn names(&self) -> Vec<String> {
        lock(&self.inner).1.clone()
    }
}

static COUNTER_NAMES: Interner = Interner::new(COUNTER_SLOTS);
static HIST_NAMES: Interner = Interner::new(HIST_SLOTS);
static SPAN_PATHS: Interner = Interner::new(SPAN_SLOTS);

// ---------------------------------------------------------------------------
// Per-thread cells
// ---------------------------------------------------------------------------

/// A histogram whose every field is an atomic, so any thread can read it
/// while the owner records. `count` is bumped last with `Release` and read
/// first with `Acquire`: a reader's bucket sum is always ≥ its `count`,
/// never behind it (the torn-read invariant the concurrent test pins).
struct AtomicHist {
    buckets: [AtomicU64; crate::histogram::N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHist {
    fn new() -> Self {
        AtomicHist {
            buckets: [const { AtomicU64::new(0) }; crate::histogram::N_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[crate::histogram::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Merges this cell into `h`. Returns `false` (and merges nothing)
    /// when the cell is empty.
    fn merge_into(&self, h: &mut Histogram) -> bool {
        let count = self.count.load(Ordering::Acquire);
        if count == 0 {
            return false;
        }
        let mut counts = [0u64; crate::histogram::N_BUCKETS];
        for (dst, src) in counts.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        h.merge(&Histogram::from_raw(
            counts,
            count,
            self.sum.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        ));
        true
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Release);
    }
}

/// One thread's always-readable recording state: counter cells, lazily
/// allocated histogram cells, and the bounded trace ring. Registered in
/// the global cell list forever (snapshots stay monotone); reused via the
/// free pool when the owning thread exits.
struct ThreadCells {
    counters: Box<[AtomicU64]>,
    hists: Box<[std::sync::OnceLock<Box<AtomicHist>>]>,
    spans: Box<[std::sync::OnceLock<Box<AtomicHist>>]>,
    ring: Ring,
}

impl ThreadCells {
    fn new() -> Self {
        ThreadCells {
            counters: (0..COUNTER_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            hists: (0..HIST_SLOTS).map(|_| std::sync::OnceLock::new()).collect(),
            spans: (0..SPAN_SLOTS).map(|_| std::sync::OnceLock::new()).collect(),
            ring: Ring::new(),
        }
    }

    fn hist_cell(&self, id: u32) -> &AtomicHist {
        self.hists[id as usize].get_or_init(|| Box::new(AtomicHist::new()))
    }

    fn span_cell(&self, id: u32) -> &AtomicHist {
        self.spans[id as usize].get_or_init(|| Box::new(AtomicHist::new()))
    }

    fn reset(&self) {
        for c in self.counters.iter() {
            c.store(0, Ordering::Relaxed);
        }
        for h in self.hists.iter().chain(self.spans.iter()) {
            if let Some(cell) = h.get() {
                cell.reset();
            }
        }
        self.ring.reset();
    }
}

/// Every cell block ever created (including the external/injection block),
/// in creation order. Blocks are never removed.
static REGISTRY: LazyLock<Mutex<Vec<Arc<ThreadCells>>>> = LazyLock::new(|| Mutex::new(Vec::new()));

/// Cell blocks whose owning thread has exited, available for reuse.
static FREE: LazyLock<Mutex<Vec<Arc<ThreadCells>>>> = LazyLock::new(|| Mutex::new(Vec::new()));

/// Shared cells for [`record_span_ns`] (multi-producer: plain atomics make
/// that safe; its ring is never written).
static EXTERNAL: LazyLock<Arc<ThreadCells>> = LazyLock::new(|| {
    let cells = Arc::new(ThreadCells::new());
    lock(&REGISTRY).push(cells.clone());
    cells
});

/// Span events injected by [`record_span_ns`], kept in insertion order (the
/// exporter golden files depend on it).
static INJECTED: LazyLock<Mutex<Vec<SpanEvent>>> = LazyLock::new(|| Mutex::new(Vec::new()));

static GAUGES: LazyLock<Mutex<BTreeMap<String, f64>>> =
    LazyLock::new(|| Mutex::new(BTreeMap::new()));

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------------
// Thread-local recording state
// ---------------------------------------------------------------------------

struct Tls {
    cells: Arc<ThreadCells>,
    thread: u64,
    /// Open spans, innermost last: `(name, interned path id)`.
    stack: Vec<(&'static str, u32)>,
    /// `(parent path id, name ptr, name len) → path id`. Keyed on the
    /// `&'static str` pointer so steady-state span entry is one hash probe
    /// with no string hashing.
    path_cache: HashMap<(u32, usize, usize), u32>,
    counter_ids: HashMap<(usize, usize), u32>,
    hist_ids: HashMap<(usize, usize), u32>,
}

impl Tls {
    fn new() -> Self {
        let cells = lock(&FREE).pop().unwrap_or_else(|| {
            let cells = Arc::new(ThreadCells::new());
            lock(&REGISTRY).push(cells.clone());
            cells
        });
        Tls {
            cells,
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            path_cache: HashMap::new(),
            counter_ids: HashMap::new(),
            hist_ids: HashMap::new(),
        }
    }

    fn path_id_for(&mut self, name: &'static str) -> u32 {
        let parent = self.stack.last().map_or(ROOT_PARENT, |&(_, id)| id);
        if parent == NO_ID {
            return NO_ID;
        }
        let key = (parent, name.as_ptr() as usize, name.len());
        if let Some(&id) = self.path_cache.get(&key) {
            return id;
        }
        let mut path = String::with_capacity(32);
        for (seg, _) in &self.stack {
            path.push_str(seg);
            path.push('/');
        }
        path.push_str(name);
        let id = SPAN_PATHS.intern(&path).unwrap_or(NO_ID);
        self.path_cache.insert(key, id);
        id
    }

    fn counter_id(&mut self, name: &'static str) -> u32 {
        let key = (name.as_ptr() as usize, name.len());
        if let Some(&id) = self.counter_ids.get(&key) {
            return id;
        }
        let id = COUNTER_NAMES.intern(name).unwrap_or(NO_ID);
        self.counter_ids.insert(key, id);
        id
    }

    fn hist_id(&mut self, name: &'static str) -> u32 {
        let key = (name.as_ptr() as usize, name.len());
        if let Some(&id) = self.hist_ids.get(&key) {
            return id;
        }
        let id = HIST_NAMES.intern(name).unwrap_or(NO_ID);
        self.hist_ids.insert(key, id);
        id
    }
}

impl Drop for Tls {
    fn drop(&mut self) {
        lock(&FREE).push(self.cells.clone());
    }
}

thread_local! {
    static TLS: RefCell<Tls> = RefCell::new(Tls::new());
}

/// Runs `f` with the calling thread's recording state. Returns `None` if
/// the thread-local has already been torn down (thread exit).
fn with_tls<R>(f: impl FnOnce(&mut Tls) -> R) -> Option<R> {
    TLS.try_with(|t| f(&mut t.borrow_mut())).ok()
}

// ---------------------------------------------------------------------------
// Recording entry points (crate-internal; the public API lives in lib.rs)
// ---------------------------------------------------------------------------

/// Pushes `name` onto the span stack and resolves its full-path id.
/// Returns `(path id, stack depth at entry)`.
pub(crate) fn open_span(name: &'static str) -> Option<(u32, usize)> {
    with_tls(|t| {
        let depth = t.stack.len();
        let id = t.path_id_for(name);
        t.stack.push((name, id));
        (id, depth)
    })
}

/// Records a completed span: latency into the path's histogram cell, raw
/// event into the trace ring.
pub(crate) fn close_span(path_id: u32, depth: usize, start_ns: u64, dur_ns: u64) {
    with_tls(|t| {
        t.stack.truncate(depth);
        if path_id != NO_ID {
            t.cells.span_cell(path_id).record(dur_ns);
            t.cells.ring.push(EventKind::Span, path_id, t.thread as u32, start_ns, dur_ns);
        }
    });
}

pub(crate) fn add_counter(name: &'static str, n: u64, ts_ns: u64) {
    with_tls(|t| {
        let id = t.counter_id(name);
        if id != NO_ID {
            t.cells.counters[id as usize].fetch_add(n, Ordering::Relaxed);
            t.cells.ring.push(EventKind::Counter, id, t.thread as u32, ts_ns, n);
        }
    });
}

pub(crate) fn observe_hist(name: &'static str, v: u64) {
    with_tls(|t| {
        let id = t.hist_id(name);
        if id != NO_ID {
            t.cells.hist_cell(id).record(v);
        }
    });
}

/// Sets a gauge (last write wins). Gauges are rare, so they go straight to
/// a global map instead of per-thread cells.
pub(crate) fn gauge_store(name: &'static str, v: f64) {
    lock(&GAUGES).insert(name.to_string(), v);
}

/// Eagerly initializes the calling thread's recording state (cells
/// allocated or reused from the free pool, registered for snapshots), so
/// the first record in a hot loop doesn't pay for setup.
pub(crate) fn touch() {
    with_tls(|_| ());
}

/// Records one span occurrence directly into shared cells, bypassing the
/// calling thread's clock and span stack. This is the deterministic back
/// door for exporter tests and for external tools that import timings
/// measured elsewhere. Safe from any thread; injected events are appended
/// after ring events in snapshot order.
pub fn record_span_ns(path: &str, start_ns: u64, dur_ns: u64, thread: u64) {
    if let Some(id) = SPAN_PATHS.intern(path) {
        EXTERNAL.span_cell(id).record(dur_ns);
    }
    lock(&INJECTED).push(SpanEvent { path: path.to_string(), start_ns, dur_ns, thread });
}

/// Clears all collected telemetry: every thread's cells and ring, injected
/// events, and gauges. Interned names (and cached ids on live threads)
/// survive, so recording continues seamlessly. The enabled flag is
/// untouched. Not linearizable against concurrent writers — call between
/// runs, not mid-run.
pub fn reset() {
    let cells: Vec<Arc<ThreadCells>> = lock(&REGISTRY).clone();
    for c in &cells {
        c.reset();
    }
    lock(&INJECTED).clear();
    lock(&GAUGES).clear();
    NAME_OVERFLOW.store(0, Ordering::Relaxed);
}

/// Copies out everything collected so far — **live**: recording threads
/// are never paused or locked. Counters and span counts are monotone
/// across snapshots; a histogram may trail each in-flight writer by at
/// most one record.
pub fn snapshot() -> Snapshot {
    let counter_names = COUNTER_NAMES.names();
    let hist_names = HIST_NAMES.names();
    let span_paths = SPAN_PATHS.names();
    let cells: Vec<Arc<ThreadCells>> = lock(&REGISTRY).clone();

    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for (id, name) in counter_names.iter().enumerate() {
        let total: u64 = cells.iter().map(|c| c.counters[id].load(Ordering::Relaxed)).sum();
        if total > 0 {
            counters.insert(name.clone(), total);
        }
    }

    let dropped_events: u64 = cells.iter().map(|c| c.ring.dropped()).sum();
    if dropped_events > 0 {
        *counters.entry(crate::names::TRACE_DROPPED.to_string()).or_insert(0) += dropped_events;
    }
    let overflow = NAME_OVERFLOW.load(Ordering::Relaxed);
    if overflow > 0 {
        *counters.entry(crate::names::NAME_OVERFLOW.to_string()).or_insert(0) += overflow;
    }

    let mut spans = Vec::new();
    for (id, path) in span_paths.iter().enumerate() {
        let mut h = Histogram::new();
        let mut any = false;
        for c in &cells {
            if let Some(cell) = c.spans[id].get() {
                any |= cell.merge_into(&mut h);
            }
        }
        if !any {
            continue;
        }
        spans.push(SpanStat {
            path: path.clone(),
            count: h.count(),
            total_ns: h.sum(),
            min_ns: h.min(),
            max_ns: h.max(),
            latency: h,
        });
    }
    spans.sort_by(|a, b| a.path.cmp(&b.path));

    let mut hists = Vec::new();
    for (id, name) in hist_names.iter().enumerate() {
        let mut h = Histogram::new();
        let mut any = false;
        for c in &cells {
            if let Some(cell) = c.hists[id].get() {
                any |= cell.merge_into(&mut h);
            }
        }
        if any {
            hists.push((name.clone(), h));
        }
    }
    hists.sort_by(|a, b| a.0.cmp(&b.0));

    let mut events = Vec::new();
    let mut counter_events = Vec::new();
    for c in &cells {
        c.ring.read(|ev| match ev.kind {
            EventKind::Span => {
                if let Some(path) = span_paths.get(ev.id as usize) {
                    events.push(SpanEvent {
                        path: path.clone(),
                        start_ns: ev.a,
                        dur_ns: ev.b,
                        thread: u64::from(ev.thread),
                    });
                }
            }
            EventKind::Counter => {
                if let Some(name) = counter_names.get(ev.id as usize) {
                    counter_events.push(CounterEvent {
                        name: name.clone(),
                        ts_ns: ev.a,
                        delta: ev.b,
                        thread: u64::from(ev.thread),
                    });
                }
            }
        });
    }
    events.sort_by(|a, b| {
        (a.start_ns, a.dur_ns, a.thread, &a.path).cmp(&(b.start_ns, b.dur_ns, b.thread, &b.path))
    });
    counter_events.sort_by(|a, b| {
        (a.ts_ns, a.thread, &a.name, a.delta).cmp(&(b.ts_ns, b.thread, &b.name, b.delta))
    });
    events.extend(lock(&INJECTED).iter().cloned());

    Snapshot {
        spans,
        events,
        counters: counters.into_iter().collect(),
        gauges: lock(&GAUGES).iter().map(|(k, v)| (k.clone(), *v)).collect(),
        hists,
        counter_events,
        dropped_events,
    }
}
