//! The work-stealing pool every batch in the workspace runs on: script
//! analysis, classification and training-corpus generation.
//!
//! Jobs are claimed from one shared atomic counter instead of being split
//! into static chunks up front: an obfuscated script can take 100× longer
//! than a regular one, so a pre-partitioned chunk would let one
//! pathological job idle every other worker. The counter walks the jobs
//! costliest first, by a cost the caller estimates. The job that would
//! otherwise start last and run alone on one core while the others idle
//! starts first instead.
//!
//! The pool lives here because every crate that runs a batch already
//! depends on this one. A worker registers telemetry cells only if it
//! records while telemetry is on, like any other thread.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The number of workers a pool of `n` jobs starts: one per core, never
/// more than there are jobs.
pub fn pool_threads(n: usize) -> usize {
    std::thread::available_parallelism().map(|t| t.get()).unwrap_or(4).min(n).max(1)
}

/// Jobs `0..n` handed out by one shared counter: by non-increasing cost,
/// ties in index order.
struct Claims {
    order: Vec<usize>,
    next: AtomicUsize,
}

impl Claims {
    fn new(n: usize, cost: impl Fn(usize) -> usize) -> Claims {
        let costs: Vec<usize> = (0..n).map(cost).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| (Reverse(costs[i]), i));
        Claims { order, next: AtomicUsize::new(0) }
    }

    /// The next claim's sequence number and job index, `None` once every
    /// job is claimed.
    fn claim(&self) -> Option<(usize, usize)> {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        self.order.get(seq).map(|&i| (seq, i))
    }
}

/// Runs `work(i)` for every `i in 0..n` on [`pool_threads`]`(n)` workers
/// and returns the results in index order. Workers claim the job of the
/// highest `cost(i)` still unclaimed, ties in index order, so equal costs
/// run the jobs in index order.
///
/// # Panics
///
/// Panics if `work` panics on any job (after the other workers finish).
pub fn run_stealing<T: Send>(
    n: usize,
    cost: impl Fn(usize) -> usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let claims = Claims::new(n, cost);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..pool_threads(n) {
            let tx = tx.clone();
            let (claims, work) = (&claims, &work);
            scope.spawn(move || {
                while let Some((_, i)) = claims.claim() {
                    if tx.send((i, work(i))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            out[i] = Some(r);
        }
    });
    out.into_iter().map(|r| r.expect("work-stealing covered every index")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn claims_go_costliest_first_with_ties_in_index_order() {
        let costs: Vec<usize> = (0..500).map(|i| (i * 7919) % 13).collect();
        let claims = Claims::new(costs.len(), |i| costs[i]);
        let claimed = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(c) = claims.claim() {
                        claimed.lock().unwrap().push(c);
                    }
                });
            }
        });
        let mut claimed = claimed.into_inner().unwrap();
        claimed.sort();
        assert_eq!(claimed.len(), costs.len());
        for (seq, &(s, _)) in claimed.iter().enumerate() {
            assert_eq!(seq, s, "every sequence number is claimed once");
        }
        for w in claimed.windows(2) {
            let ((_, i), (_, j)) = (w[0], w[1]);
            let ordered = costs[i] > costs[j] || (costs[i] == costs[j] && i < j);
            assert!(
                ordered,
                "job {} (cost {}) claimed before {} (cost {})",
                i, costs[i], j, costs[j]
            );
        }
    }

    #[test]
    fn results_come_back_in_index_order_whatever_the_costs() {
        let threads = pool_threads(usize::MAX);
        for n in [0, 1, threads - 1, threads + 1, 50 * threads] {
            let ascending = run_stealing(n, |i| i, |i| i * 3);
            let descending = run_stealing(n, |i| n - i, |i| i * 3);
            let flat = run_stealing(n, |_| 0, |i| i * 3);
            let want: Vec<usize> = (0..n).map(|i| i * 3).collect();
            assert_eq!((ascending, descending, flat), (want.clone(), want.clone(), want));
        }
    }

    #[test]
    fn work_stealing_covers_many_more_items_than_threads() {
        let out = run_stealing(97, |i| i % 5, |i| i * 2);
        assert_eq!(out, (0..97).map(|i| i * 2).collect::<Vec<_>>());
        assert!(run_stealing(0, |i| i, |i| i).is_empty());
    }
}
