//! The canonical metric-name vocabulary for the whole pipeline.
//!
//! Every crate that records telemetry imports its span/counter/gauge/
//! histogram names from here instead of spelling ad-hoc string literals —
//! one typo'd path used to mean a silently separate time series. The
//! constants are grouped per kind and collected into `ALL_*` slices so a
//! test can assert that everything exported (JSONL, Prometheus) matches
//! the registered-name grammar.
//!
//! Names are slash-separated lowercase segments (`[a-z][a-z0-9_-]*`),
//! checked by [`is_valid_metric_name`]. Two families are composed at
//! runtime rather than listed here, but follow the same grammar: span
//! *paths* (slash-joins of the span name constants below, e.g.
//! `analyze/parse`) and the per-kind `guard/<kind>` and per-pass
//! `normalize/<pass>/rewrites` counters.

// --- span names (path segments; nesting joins them with `/`) -------------

/// Whole-script analysis (parent of the per-stage spans).
pub const SPAN_ANALYZE: &str = "analyze";
/// Parser stage.
pub const SPAN_PARSE: &str = "parse";
/// Standalone lexer scan (only the degraded fallback runs one; a full
/// analysis takes its token counts from the parse).
pub const SPAN_LEX: &str = "lex";
/// Data-flow analysis stage.
pub const SPAN_FLOW: &str = "flow";
/// AST/source metrics stage.
pub const SPAN_METRICS: &str = "metrics";
/// Lint rule evaluation stage.
pub const SPAN_LINT: &str = "lint";
/// Feature-payload extraction, including the drop of the graph (the last
/// stage of every analysis that yields a payload).
pub const SPAN_EXTRACT: &str = "extract";
/// Lexer-only degraded re-analysis after a parse/lex failure.
pub const SPAN_DEGRADED_FALLBACK: &str = "degraded_fallback";
/// Batch analysis driver (covers the worker pool).
pub const SPAN_ANALYZE_MANY: &str = "analyze_many";
/// Feature-space fitting.
pub const SPAN_FIT_SPACE: &str = "fit_space";
/// Feature vectorization.
pub const SPAN_VECTORIZE: &str = "vectorize";
/// Normalized-vs-original feature-delta block.
pub const SPAN_NORMALIZE_DELTAS: &str = "normalize_deltas";
/// Cache lookup.
pub const SPAN_CACHE_GET: &str = "cache_get";
/// Cache publish.
pub const SPAN_CACHE_PUT: &str = "cache_put";
/// Deobfuscation normalization fixpoint.
pub const SPAN_NORMALIZE: &str = "normalize";
/// Obfuscation/minification transform application.
pub const SPAN_TRANSFORM_APPLY: &str = "transform_apply";
/// Synthetic corpus generation.
pub const SPAN_CORPUS_GENERATE: &str = "corpus_generate";
/// Level-1 (minification) detector training.
pub const SPAN_LEVEL1_TRAIN: &str = "level1_train";
/// Level-1 prediction of one script.
pub const SPAN_LEVEL1_PREDICT: &str = "level1_predict";
/// Level-1 batch prediction. Not recorded: every script is predicted
/// under [`SPAN_LEVEL1_PREDICT`]; kept for perfbench, which still names it.
pub const SPAN_LEVEL1_PREDICT_BATCH: &str = "level1_predict_batch";
/// Level-2 (obfuscation) detector training.
pub const SPAN_LEVEL2_TRAIN: &str = "level2_train";
/// Level-2 prediction of one script.
pub const SPAN_LEVEL2_PREDICT: &str = "level2_predict";
/// Level-2 batch prediction. Not recorded: every script is predicted
/// under [`SPAN_LEVEL2_PREDICT`]; kept for perfbench, which still names it.
pub const SPAN_LEVEL2_PREDICT_BATCH: &str = "level2_predict_batch";
/// Full two-level training pipeline.
pub const SPAN_TRAIN_PIPELINE: &str = "train_pipeline";
/// Forest training (parent of per-batch spans).
pub const SPAN_FOREST_FIT: &str = "forest_fit";
/// One worker's tree-fitting batch inside forest training.
pub const SPAN_FIT_TREE_BATCH: &str = "fit_tree_batch";

// --- counters -------------------------------------------------------------

/// Scripts whose parse failed.
pub const CTR_PARSE_FAILURES: &str = "parse_failures";
/// Data-flow analyses truncated by the binding cap.
pub const CTR_FLOW_TRUNCATIONS: &str = "flow_truncations";
/// Bindings dropped by data-flow truncation.
pub const CTR_FLOW_TRUNCATED_BINDINGS: &str = "flow_truncated_bindings";
/// Lint rule firings.
pub const CTR_LINT_FIRES: &str = "lint_fires";
/// Scripts that fell back to lexer-only degraded analysis.
pub const CTR_DEGRADED_FALLBACKS: &str = "degraded_fallbacks";
/// Guarded analyses whose verdict was `Degraded` (any cause). The per-kind
/// `guard/<kind>` counters attribute the cause; this aggregate gives the
/// degraded *rate* directly (scripts_analyzed is the denominator) and is
/// what the CI syntax-coverage gate reads from telemetry.
pub const CTR_GUARD_DEGRADED: &str = "guard/degraded";
/// Guarded analyses whose verdict was `Rejected` (any cause).
pub const CTR_GUARD_REJECTED: &str = "guard/rejected";
/// Scripts analyzed (any outcome).
pub const CTR_SCRIPTS_ANALYZED: &str = "scripts_analyzed";
/// Trees fitted during forest training.
pub const CTR_TREES_FITTED: &str = "trees_fitted";
/// Tree traversals during forest prediction.
pub const CTR_TREES_TRAVERSED: &str = "trees_traversed";
/// Obfuscation transform applications that failed.
pub const CTR_TRANSFORM_FAILURES: &str = "transform_failures";
/// Split-search columns served by the counting-sort regime.
pub const CTR_SPLIT_COUNTING_COLS: &str = "split_counting_cols";
/// Split-search columns served by the packed-rank regime.
pub const CTR_SPLIT_RANKED_COLS: &str = "split_ranked_cols";
/// Cache lookups that replayed a stored verdict.
pub const CTR_CACHE_HIT: &str = "cache/hit";
/// Cache lookups that missed.
pub const CTR_CACHE_MISS: &str = "cache/miss";
/// Cache records recomputed due to schema/version/preset mismatch.
pub const CTR_CACHE_STALE_VERSION: &str = "cache/stale_version";
/// Corrupt cache records evicted and recomputed.
pub const CTR_CACHE_CORRUPT_EVICTED: &str = "cache/corrupt_evicted";
/// Cache records published.
pub const CTR_CACHE_PUT: &str = "cache/put";
/// Cache publishes that failed (I/O).
pub const CTR_CACHE_PUBLISH_FAILED: &str = "cache/publish_failed";
/// Normalization runs stopped by the rewrite-fuel budget.
pub const CTR_NORMALIZE_FUEL_EXHAUSTED: &str = "normalize/fuel_exhausted";
/// Normalization fixpoint rounds executed.
pub const CTR_NORMALIZE_FIXPOINT_ROUNDS: &str = "normalize/fixpoint_rounds";
/// Normalization pass invocations (a pass skipped as already clean is not
/// invoked).
pub const CTR_NORMALIZE_PASS_RUNS: &str = "normalize/pass_runs";
/// Scope trees built after the front end's, by the normalization passes
/// and the delta measurement.
pub const CTR_NORMALIZE_SCOPE_ANALYSES: &str = "normalize/scope_analyses";
/// Cache publishes retried after a transient failure.
pub const CTR_CACHE_PUBLISH_RETRIED: &str = "cache/publish_retried";
/// Raw trace events dropped because a thread's event log was full.
pub const TRACE_DROPPED: &str = "obs/trace_dropped";

// --- serve daemon ---------------------------------------------------------

/// Requests admitted into the daemon's bounded queue.
pub const CTR_SERVE_ACCEPTED: &str = "serve/accepted";
/// Requests rejected at admission (queue full, draining, resource guard).
pub const CTR_SERVE_REJECTED: &str = "serve/rejected";
/// Responses emitted for accepted requests (any status).
pub const CTR_SERVE_RESPONSES: &str = "serve/responses";
/// Responses served in breaker-degraded lexer-only mode.
pub const CTR_SERVE_DEGRADED: &str = "serve/degraded";
/// Responses emitted after shutdown began (the drain phase).
pub const CTR_SERVE_DRAINED: &str = "serve/drained";
/// Requests answered with a quarantined verdict (worker panic or watchdog
/// timeout).
pub const CTR_SERVE_QUARANTINED: &str = "serve/quarantined";
/// Worker threads replaced after a panic or a watchdog abandonment.
pub const CTR_SERVE_WORKER_REPLACED: &str = "serve/worker_replaced";
/// In-flight requests answered by the watchdog after a worker got stuck.
pub const CTR_SERVE_WATCHDOG_TIMEOUTS: &str = "serve/watchdog_timeouts";
/// Circuit-breaker transitions into the open (degraded) state.
pub const CTR_SERVE_BREAKER_OPENED: &str = "serve/breaker_opened";
/// Circuit-breaker recoveries back to the closed state.
pub const CTR_SERVE_BREAKER_CLOSED: &str = "serve/breaker_closed";
/// Protocol-invalid requests (malformed JSON, bad framing, bad route).
pub const CTR_SERVE_REQUESTS_INVALID: &str = "serve/requests_invalid";
/// Requests dropped for exceeding the transport size cap.
pub const CTR_SERVE_REQUESTS_OVERSIZED: &str = "serve/requests_oversized";
/// Connections dropped by the slow-loris read-timeout guard.
pub const CTR_SERVE_SLOW_LORIS_DROPPED: &str = "serve/slow_loris_dropped";

// --- gauges and value histograms -----------------------------------------

/// Worker threads used by the current batch-analysis run.
pub const GAUGE_ANALYZE_THREADS: &str = "analyze_threads";
/// Daemon queue depth sampled at admission.
pub const GAUGE_SERVE_QUEUE_DEPTH: &str = "serve/queue_depth";
/// Daemon worker threads currently alive.
pub const GAUGE_SERVE_WORKERS_ALIVE: &str = "serve/workers_alive";
/// Global atom-interner occupancy as a fraction of capacity (0..1).
pub const GAUGE_INTERNER_OCCUPANCY: &str = "interner/occupancy";
/// Input script sizes in bytes.
pub const HIST_SCRIPT_BYTES: &str = "script_bytes";
/// Daemon per-request end-to-end latency in microseconds.
pub const HIST_SERVE_LATENCY_US: &str = "serve/latency_us";

/// Every span name constant above.
pub const ALL_SPANS: &[&str] = &[
    SPAN_ANALYZE,
    SPAN_PARSE,
    SPAN_LEX,
    SPAN_FLOW,
    SPAN_METRICS,
    SPAN_LINT,
    SPAN_EXTRACT,
    SPAN_DEGRADED_FALLBACK,
    SPAN_ANALYZE_MANY,
    SPAN_FIT_SPACE,
    SPAN_VECTORIZE,
    SPAN_NORMALIZE_DELTAS,
    SPAN_CACHE_GET,
    SPAN_CACHE_PUT,
    SPAN_NORMALIZE,
    SPAN_TRANSFORM_APPLY,
    SPAN_CORPUS_GENERATE,
    SPAN_LEVEL1_TRAIN,
    SPAN_LEVEL1_PREDICT,
    SPAN_LEVEL1_PREDICT_BATCH,
    SPAN_LEVEL2_TRAIN,
    SPAN_LEVEL2_PREDICT,
    SPAN_LEVEL2_PREDICT_BATCH,
    SPAN_TRAIN_PIPELINE,
    SPAN_FOREST_FIT,
    SPAN_FIT_TREE_BATCH,
];

/// Every counter name constant above.
pub const ALL_COUNTERS: &[&str] = &[
    CTR_PARSE_FAILURES,
    CTR_FLOW_TRUNCATIONS,
    CTR_FLOW_TRUNCATED_BINDINGS,
    CTR_LINT_FIRES,
    CTR_DEGRADED_FALLBACKS,
    CTR_GUARD_DEGRADED,
    CTR_GUARD_REJECTED,
    CTR_SCRIPTS_ANALYZED,
    CTR_TREES_FITTED,
    CTR_TREES_TRAVERSED,
    CTR_TRANSFORM_FAILURES,
    CTR_SPLIT_COUNTING_COLS,
    CTR_SPLIT_RANKED_COLS,
    CTR_CACHE_HIT,
    CTR_CACHE_MISS,
    CTR_CACHE_STALE_VERSION,
    CTR_CACHE_CORRUPT_EVICTED,
    CTR_CACHE_PUT,
    CTR_CACHE_PUBLISH_FAILED,
    CTR_CACHE_PUBLISH_RETRIED,
    CTR_NORMALIZE_FUEL_EXHAUSTED,
    CTR_NORMALIZE_FIXPOINT_ROUNDS,
    CTR_NORMALIZE_PASS_RUNS,
    CTR_NORMALIZE_SCOPE_ANALYSES,
    TRACE_DROPPED,
    CTR_SERVE_ACCEPTED,
    CTR_SERVE_REJECTED,
    CTR_SERVE_RESPONSES,
    CTR_SERVE_DEGRADED,
    CTR_SERVE_DRAINED,
    CTR_SERVE_QUARANTINED,
    CTR_SERVE_WORKER_REPLACED,
    CTR_SERVE_WATCHDOG_TIMEOUTS,
    CTR_SERVE_BREAKER_OPENED,
    CTR_SERVE_BREAKER_CLOSED,
    CTR_SERVE_REQUESTS_INVALID,
    CTR_SERVE_REQUESTS_OVERSIZED,
    CTR_SERVE_SLOW_LORIS_DROPPED,
];

/// Every gauge name constant above.
pub const ALL_GAUGES: &[&str] = &[
    GAUGE_ANALYZE_THREADS,
    GAUGE_SERVE_QUEUE_DEPTH,
    GAUGE_SERVE_WORKERS_ALIVE,
    GAUGE_INTERNER_OCCUPANCY,
];

/// Every value-histogram name constant above.
pub const ALL_HISTS: &[&str] = &[HIST_SCRIPT_BYTES, HIST_SERVE_LATENCY_US];

/// Whether `name` matches the registered-name grammar: one or more
/// slash-separated segments, each `[a-z][a-z0-9_-]*`. Span paths,
/// `guard/<kind>` counters, and `normalize/<pass>/rewrites` counters all
/// satisfy this by construction.
pub fn is_valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.split('/').all(|seg| {
            let mut bytes = seg.bytes();
            matches!(bytes.next(), Some(b'a'..=b'z'))
                && bytes
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_constant_is_grammatical() {
        for name in ALL_SPANS.iter().chain(ALL_COUNTERS).chain(ALL_GAUGES).chain(ALL_HISTS) {
            assert!(is_valid_metric_name(name), "registered name violates grammar: {name:?}");
        }
    }

    #[test]
    fn grammar_rejects_malformed_names() {
        for bad in [
            "",
            "Upper",
            "1starts_with_digit",
            "space here",
            "trailing/",
            "/leading",
            "a//b",
            "dotted.name",
        ] {
            assert!(!is_valid_metric_name(bad), "accepted malformed name {bad:?}");
        }
        for good in [
            "analyze",
            "analyze/parse",
            "cache/hit",
            "guard/deadline_exceeded",
            "normalize/array-inline/rewrites",
            "obs/trace_dropped",
        ] {
            assert!(is_valid_metric_name(good), "rejected valid name {good:?}");
        }
    }
}
