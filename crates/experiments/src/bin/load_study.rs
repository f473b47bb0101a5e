//! Daemon load study: the wild-population simulator replayed against an
//! in-process [`jsdetect_serve::Daemon`] under fault injection.
//!
//! Closed-loop client threads (2× the queue capacity, so overload is
//! guaranteed, not incidental) drive a mixed Alexa / npm / malware-feed
//! workload through the same admission path the network transport uses.
//! Chaos is armed throughout: every Nth request panics its worker, every
//! Mth stalls, every Kth cache publish fails. The study then asserts the
//! robustness contract the integration tests check in miniature, at load:
//! every accepted request answered, the rest explicitly rejected — and
//! records p50/p99 latency, throughput, reject rate, and degraded rate.
//!
//! Results land in `results/load_study.json`; a compact `serve_chaos`
//! block is merged into `BENCH_ml.json` next to the perf trajectory.

use jsdetect_corpus::wild::{alexa_population, malware_population, npm_population, MalwareSource};
use jsdetect_experiments::{merge_bench_block, or_exit, train_cached, write_json, Args};
use jsdetect_serve::{AnalyzeRequest, ChaosConfig, Daemon, ServeConfig};
use serde::Serialize;
use serde_json::JsonValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Serialize)]
struct StudyResult {
    n_requests: usize,
    clients: usize,
    workers: usize,
    queue_capacity: usize,
    accepted: u64,
    rejected: u64,
    responses: u64,
    quarantined: u64,
    degraded_responses: u64,
    worker_replaced: u64,
    injected_panics: u64,
    injected_delays: u64,
    p50_latency_us: u64,
    p99_latency_us: u64,
    throughput_rps: f64,
    reject_rate: f64,
    degraded_rate: f64,
    wall_seconds: f64,
    breaker_state: String,
    seed: u64,
    scale: f64,
}

fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() {
    let args = Args::parse();
    let (detectors, _pools) = or_exit(train_cached(&args));
    let detectors = Arc::new(detectors);

    // Mixed wild workload: browsing-shaped (Alexa), registry-shaped
    // (npm), and hostile (malware feed) scripts, interleaved.
    let n_each = ((60.0 * args.scale) as usize).max(10);
    let mut scripts: Vec<String> = Vec::new();
    for s in alexa_population(30, n_each, 1, args.seed) {
        scripts.push(s.src);
    }
    for s in npm_population(30, n_each, 1, args.seed) {
        scripts.push(s.src);
    }
    for s in malware_population(MalwareSource::Hynek, 30, n_each / 2, args.seed) {
        scripts.push(s.src);
    }

    let workers = 4usize;
    let queue_capacity = 16usize;
    let clients = queue_capacity * 2; // the ISSUE's 2×-capacity soak
    let cfg = ServeConfig {
        workers,
        queue_capacity,
        // Aggressive enough that faults actually land mid-run.
        chaos: ChaosConfig { panic_every: 97, delay_every: 41, delay_ms: 25, cache_fail_every: 0 },
        stuck_after_ms: 2_000,
        watchdog_interval_ms: 25,
        ..ServeConfig::default()
    };
    let daemon = Arc::new(Daemon::start(cfg, detectors, None));

    eprintln!(
        "[experiments] load study: {} scripts, {} closed-loop clients, {} workers, queue {}",
        scripts.len(),
        clients,
        workers,
        queue_capacity
    );
    let scripts = Arc::new(scripts);
    let next = Arc::new(AtomicU64::new(0));
    let t0 = std::time::Instant::now();

    // Closed loop: each client repeatedly claims the next script index
    // until the workload is exhausted. An `overloaded` reject is real
    // backpressure — the client backs off briefly and retries (bounded),
    // like any sane caller of a 429; every attempt is recorded.
    let mut joins = Vec::new();
    for _ in 0..clients {
        let daemon = Arc::clone(&daemon);
        let scripts = Arc::clone(&scripts);
        let next = Arc::clone(&next);
        joins.push(std::thread::spawn(move || {
            let mut latencies: Vec<u64> = Vec::new();
            let mut statuses: Vec<String> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= scripts.len() {
                    return (latencies, statuses);
                }
                let mut attempts = 0u32;
                loop {
                    let resp = daemon.call(AnalyzeRequest::new(scripts[i].clone()));
                    if resp.latency_us > 0 {
                        latencies.push(resp.latency_us);
                    }
                    let overloaded = resp.status == "overloaded";
                    statuses.push(resp.status);
                    if overloaded && attempts < 100 {
                        attempts += 1;
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        continue;
                    }
                    break;
                }
            }
        }));
    }
    let mut latencies: Vec<u64> = Vec::new();
    let mut statuses: Vec<String> = Vec::new();
    for j in joins {
        let (l, s) = j.join().expect("client thread panicked");
        latencies.extend(l);
        statuses.extend(s);
    }
    let wall = t0.elapsed().as_secs_f64();
    // Let the watchdog take a couple of ticks so poisoned-worker
    // replacement (which happens between requests, not during them) is
    // visible in the final accounting.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let report = daemon.shutdown();

    assert_eq!(
        report.stats.accepted, report.stats.responses,
        "robustness contract: every accepted request must be answered"
    );

    latencies.sort_unstable();
    let submitted = statuses.len() as u64;
    let rejected = statuses
        .iter()
        .filter(|s| matches!(s.as_str(), "overloaded" | "resource" | "draining"))
        .count() as u64;
    let result = StudyResult {
        n_requests: scripts.len(),
        clients,
        workers,
        queue_capacity,
        accepted: report.stats.accepted,
        rejected: report.stats.rejected,
        responses: report.stats.responses,
        quarantined: report.stats.quarantined,
        degraded_responses: report.stats.degraded,
        worker_replaced: report.stats.worker_replaced,
        injected_panics: daemon.chaos().injected_panics(),
        injected_delays: daemon.chaos().injected_delays(),
        p50_latency_us: percentile_us(&latencies, 0.50),
        p99_latency_us: percentile_us(&latencies, 0.99),
        throughput_rps: report.stats.responses as f64 / wall.max(1e-9),
        reject_rate: rejected as f64 / submitted.max(1) as f64,
        degraded_rate: report.stats.degraded as f64 / report.stats.responses.max(1) as f64,
        wall_seconds: wall,
        breaker_state: report.breaker_state.as_str().to_string(),
        seed: args.seed,
        scale: args.scale,
    };

    println!("Daemon load study (chaos armed, {} clients over queue {})", clients, queue_capacity);
    println!("{:-<72}", "");
    println!("  requests submitted     {:>10}", submitted);
    println!("  accepted / rejected    {:>10} / {}", result.accepted, result.rejected);
    println!("  responses (==accepted) {:>10}", result.responses);
    println!("  quarantined            {:>10}", result.quarantined);
    println!("  workers replaced       {:>10}", result.worker_replaced);
    println!(
        "  injected panics/delays {:>10} / {}",
        result.injected_panics, result.injected_delays
    );
    println!(
        "  p50 / p99 latency      {:>8}us / {}us",
        result.p50_latency_us, result.p99_latency_us
    );
    println!("  throughput             {:>10.1} resp/s", result.throughput_rps);
    println!("  reject rate            {:>10.3}", result.reject_rate);
    println!("  degraded rate          {:>10.3}", result.degraded_rate);
    println!("  breaker at exit        {:>10}", result.breaker_state);

    or_exit(write_json(&args, "load_study", &result));
    or_exit(merge_bench_block("serve_chaos", bench_block(&result)));
}

#[derive(Serialize)]
struct BenchProvenance {
    n_requests: usize,
    clients: usize,
    workers: usize,
    queue_capacity: usize,
    p50_latency_us: u64,
    p99_latency_us: u64,
    throughput_rps: f64,
    reject_rate: f64,
    degraded_rate: f64,
    quarantined: u64,
    worker_replaced: u64,
    seed: u64,
    scale: f64,
    source: String,
}

/// The compact `serve_chaos` block merged into the top level of
/// `BENCH_ml.json`: accounting evidence under overload and injected
/// faults, not a speed number (the `serve` headline is the perfbench
/// trajectory's full-mode `serve` workload).
fn bench_block(result: &StudyResult) -> JsonValue {
    BenchProvenance {
        n_requests: result.n_requests,
        clients: result.clients,
        workers: result.workers,
        queue_capacity: result.queue_capacity,
        p50_latency_us: result.p50_latency_us,
        p99_latency_us: result.p99_latency_us,
        throughput_rps: result.throughput_rps,
        reject_rate: result.reject_rate,
        degraded_rate: result.degraded_rate,
        quarantined: result.quarantined,
        worker_replaced: result.worker_replaced,
        seed: result.seed,
        scale: result.scale,
        source: "crates/experiments/src/bin/load_study.rs".to_string(),
    }
    .to_value()
}
