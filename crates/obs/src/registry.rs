//! The telemetry registry: one mutex-guarded cell block per recording
//! thread, merged by name whenever a snapshot is taken.
//!
//! - A thread registers its [`Block`] on its first enabled record; a
//!   thread that never records while telemetry is on never touches the
//!   registry. The block holds counters and value histograms keyed by
//!   their `&'static str` names, a latency histogram per span path, and
//!   the thread's newest [`RING_CAP`] raw span and counter events.
//! - Only the owning thread records into its block, so its lock is
//!   uncontended except while [`snapshot`] or [`reset`] holds it for the
//!   length of one merge.
//! - Span paths are built once per `(parent path, name)` pair and cached in
//!   the block, so steady-state recording builds no strings.
//! - Blocks are never removed (totals stay monotone): an exiting thread
//!   parks its block in a free pool for the next thread to reuse, so memory
//!   is bounded by peak concurrency, not by thread churn.

use crate::histogram::Histogram;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Raw trace events kept per recording thread; older events are dropped
/// and counted in `obs/trace_dropped` (aggregates keep every record).
pub const RING_CAP: usize = 8192;

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

/// One counter increment kept in a thread's event log.
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

impl SpanStat {
    /// The aggregate of the span occurrences whose durations `latency`
    /// holds.
    pub fn of(path: String, latency: Histogram) -> SpanStat {
        SpanStat {
            path,
            count: latency.count(),
            total_ns: latency.sum(),
            min_ns: latency.min(),
            max_ns: latency.max(),
            latency,
        }
    }
}

/// A point-in-time copy of everything the registry has collected. Taken
/// live: workers never pause, and repeated snapshots see monotonically
/// non-decreasing counters and span counts.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Per-path span aggregates, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Raw span events in timestamp order. Bounded per thread; see
    /// `dropped_events`.
    pub events: Vec<SpanEvent>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges (last write wins), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Value histograms, sorted by name.
    pub hists: Vec<(String, Histogram)>,
    /// Counter increments kept in the threads' event logs, in timestamp
    /// order.
    pub counter_events: Vec<CounterEvent>,
    /// Raw trace events dropped after a thread's log filled (aggregate
    /// stats are unaffected). Also surfaced as the `obs/trace_dropped`
    /// counter when nonzero.
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

/// One raw event: a completed span (`path` indexes the block's `spans`) or
/// a counter increment.
enum Event {
    Span { path: u32, thread: u64, start_ns: u64, dur_ns: u64 },
    Counter { name: &'static str, thread: u64, ts_ns: u64, delta: u64 },
}

/// One recording thread's telemetry.
#[derive(Default)]
struct Block {
    /// Recording-thread id of the thread that owns the block now.
    thread: u64,
    /// Open spans, innermost last, as indices into `spans`.
    stack: Vec<u32>,
    counters: HashMap<&'static str, u64>,
    hists: HashMap<&'static str, Histogram>,
    /// Latency per span path. Entries are never removed, so an index stays
    /// valid for the life of the block.
    spans: Vec<(String, Histogram)>,
    /// `(parent index, name)` → index into `spans`.
    paths: HashMap<(Option<u32>, &'static str), u32>,
    /// The newest [`RING_CAP`] events, oldest first.
    events: VecDeque<Event>,
    /// Events pushed out of `events` since the last reset.
    dropped: u64,
}

impl Block {
    /// The index of the span path `name` opened under the innermost open
    /// span, built and cached on first sight.
    fn path(&mut self, name: &'static str) -> u32 {
        let parent = self.stack.last().copied();
        if let Some(&i) = self.paths.get(&(parent, name)) {
            return i;
        }
        let path = match parent {
            Some(p) => format!("{}/{}", self.spans[p as usize].0, name),
            None => name.to_string(),
        };
        let i = self.spans.len() as u32;
        self.spans.push((path, Histogram::new()));
        self.paths.insert((parent, name), i);
        i
    }

    fn push(&mut self, ev: Event) {
        if self.events.len() == RING_CAP {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Clears what was recorded; span paths and their cache survive.
    fn reset(&mut self) {
        self.counters.clear();
        self.hists.clear();
        for (_, h) in &mut self.spans {
            *h = Histogram::new();
        }
        self.events.clear();
        self.dropped = 0;
    }
}

/// Every block ever registered, in registration order.
static REGISTRY: Mutex<Vec<Arc<Mutex<Block>>>> = Mutex::new(Vec::new());

/// Blocks whose owning thread has exited, available for reuse.
static FREE: Mutex<Vec<Arc<Mutex<Block>>>> = Mutex::new(Vec::new());

static GAUGES: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// The calling thread's claim on a block: taken on first use, returned to
/// the free pool when the thread exits.
struct Owned(Arc<Mutex<Block>>);

impl Owned {
    fn claim() -> Owned {
        let reused = lock(&FREE).pop();
        let block = reused.unwrap_or_else(|| {
            let block = Arc::new(Mutex::new(Block::default()));
            lock(&REGISTRY).push(block.clone());
            block
        });
        lock(&block).thread = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        Owned(block)
    }
}

impl Drop for Owned {
    fn drop(&mut self) {
        lock(&self.0).stack.clear();
        lock(&FREE).push(self.0.clone());
    }
}

thread_local! {
    static OWNED: Owned = Owned::claim();
}

/// Runs `f` on the calling thread's block, registering it on first use.
/// Returns `None` once the thread-local is torn down (thread exit).
fn with_block<R>(f: impl FnOnce(&mut Block) -> R) -> Option<R> {
    OWNED.try_with(|o| f(&mut lock(&o.0))).ok()
}

// Recording entry points (crate-internal; the public API lives in lib.rs).

/// Pushes `name` onto the span stack. Returns `(path index, stack depth at
/// entry)`.
pub(crate) fn open_span(name: &'static str) -> Option<(u32, usize)> {
    with_block(|b| {
        let depth = b.stack.len();
        let path = b.path(name);
        b.stack.push(path);
        (path, depth)
    })
}

/// Records a completed span and truncates the span stack back to `depth`.
pub(crate) fn close_span(path: u32, depth: usize, start_ns: u64, dur_ns: u64) {
    with_block(|b| {
        b.stack.truncate(depth);
        // A guard dropped on another thread than it was opened on may name
        // a path this block does not have; it records nothing.
        if let Some((_, h)) = b.spans.get_mut(path as usize) {
            h.record(dur_ns);
            let thread = b.thread;
            b.push(Event::Span { path, thread, start_ns, dur_ns });
        }
    });
}

pub(crate) fn add_counter(name: &'static str, delta: u64, ts_ns: u64) {
    with_block(|b| {
        *b.counters.entry(name).or_insert(0) += delta;
        let thread = b.thread;
        b.push(Event::Counter { name, thread, ts_ns, delta });
    });
}

pub(crate) fn observe_hist(name: &'static str, v: u64) {
    with_block(|b| b.hists.entry(name).or_default().record(v));
}

/// Sets a gauge (last write wins). Gauges are rare, so they go straight to
/// one global map.
pub(crate) fn gauge_store(name: &'static str, v: f64) {
    lock(&GAUGES).insert(name, v);
}

/// Clears all collected telemetry: every block's records and events, and
/// the gauges. Span paths survive, so recording continues seamlessly. The
/// enabled flag is untouched. Not linearizable against concurrent writers:
/// call between runs, not mid-run.
pub fn reset() {
    for block in lock(&REGISTRY).iter() {
        lock(block).reset();
    }
    lock(&GAUGES).clear();
}

/// Copies out everything collected so far, locking one block at a time:
/// recording threads wait at most for the merge of their own block.
/// Counters and span counts are monotone across snapshots.
pub fn snapshot() -> Snapshot {
    let blocks: Vec<Arc<Mutex<Block>>> = lock(&REGISTRY).clone();
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let mut hists: BTreeMap<&str, Histogram> = BTreeMap::new();
    let mut spans: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut events = Vec::new();
    let mut counter_events = Vec::new();
    let mut dropped_events = 0;
    for block in &blocks {
        let b = lock(block);
        for (&name, &n) in &b.counters {
            *counters.entry(name).or_insert(0) += n;
        }
        for (&name, h) in &b.hists {
            hists.entry(name).or_default().merge(h);
        }
        for (path, h) in b.spans.iter().filter(|(_, h)| h.count() > 0) {
            spans.entry(path.clone()).or_default().merge(h);
        }
        for ev in &b.events {
            match *ev {
                Event::Span { path, thread, start_ns, dur_ns } => events.push(SpanEvent {
                    path: b.spans[path as usize].0.clone(),
                    start_ns,
                    dur_ns,
                    thread,
                }),
                Event::Counter { name, thread, ts_ns, delta } => counter_events
                    .push(CounterEvent { name: name.to_string(), ts_ns, delta, thread }),
            }
        }
        dropped_events += b.dropped;
    }
    if dropped_events > 0 {
        *counters.entry(crate::names::TRACE_DROPPED).or_insert(0) += dropped_events;
    }
    events.sort_by(|a, b| {
        (a.start_ns, a.dur_ns, a.thread, &a.path).cmp(&(b.start_ns, b.dur_ns, b.thread, &b.path))
    });
    counter_events.sort_by(|a, b| {
        (a.ts_ns, a.thread, &a.name, a.delta).cmp(&(b.ts_ns, b.thread, &b.name, b.delta))
    });
    Snapshot {
        spans: spans.into_iter().map(|(path, h)| SpanStat::of(path, h)).collect(),
        events,
        counters: counters.into_iter().map(|(k, n)| (k.to_string(), n)).collect(),
        gauges: lock(&GAUGES).iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        hists: hists.into_iter().map(|(k, h)| (k.to_string(), h)).collect(),
        counter_events,
        dropped_events,
    }
}
