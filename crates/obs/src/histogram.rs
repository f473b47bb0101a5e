//! Log-scaled bucket histograms.
//!
//! Values land in power-of-two buckets: bucket `i` covers `[2^i, 2^(i+1))`
//! with bucket 0 also absorbing 0. Sixty-four buckets span the full `u64`
//! range, so one fixed-size array records nanosecond latencies and
//! multi-megabyte script sizes alike with ~2× relative resolution — the
//! same trade HdrHistogram-style production recorders make, without the
//! dependency.

/// Number of buckets (one per possible `floor(log2(v))`).
pub const N_BUCKETS: usize = 64;

/// Bucket index for a value: `0` for `v <= 1`, else `floor(log2(v))`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Inclusive lower and exclusive upper bound of bucket `i` (the last
/// bucket's upper bound saturates at `u64::MAX`).
///
/// # Panics
///
/// Panics if `i >= N_BUCKETS`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < N_BUCKETS, "bucket index {} out of range", i);
    let lo = if i == 0 { 0 } else { 1u64 << i };
    let hi = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
    (lo, hi)
}

/// A log-scaled histogram over `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; N_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { counts: [0; N_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Per-bucket counts.
    pub fn bucket_counts(&self) -> &[u64; N_BUCKETS] {
        &self.counts
    }

    /// `(lo, hi, count)` for every non-empty bucket, ascending.
    pub fn nonempty_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`): the
    /// exclusive upper edge of the bucket where the cumulative count
    /// crosses `q * count`, clamped to the observed max. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Streaming `q`-quantile estimate (`0.0..=1.0`) by linear
    /// interpolation within the log2 bucket where the cumulative count
    /// crosses `q * count`, clamped to the observed `[min, max]`. Unlike
    /// [`Histogram::quantile`] (a bucket upper bound, kept for the stable
    /// JSONL schema), the interpolated estimate always lands inside the
    /// same bucket as the exact quantile — the contract the property tests
    /// pin. Returns 0 for an empty histogram.
    pub fn quantile_interp(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = seen;
            seen += c;
            if (seen as f64) >= target {
                let (lo, hi) = bucket_bounds(i);
                // Position of the target rank within this bucket, assuming
                // values spread uniformly across it. Clamp into the bucket
                // (values in [lo, hi) are integers ≤ hi−1) so the estimate
                // shares the exact quantile's bucket, then to the observed
                // extremes.
                let frac = (target - before as f64) / c as f64;
                let est = (lo as f64 + frac * (hi - lo) as f64).min((hi - 1) as f64);
                return est.clamp(self.min() as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// Interpolated median in whole units (see [`Histogram::quantile_interp`]).
    pub fn p50(&self) -> u64 {
        self.quantile_interp(0.5) as u64
    }

    /// Interpolated 90th percentile in whole units.
    pub fn p90(&self) -> u64 {
        self.quantile_interp(0.9) as u64
    }

    /// Interpolated 99th percentile in whole units.
    pub fn p99(&self) -> u64 {
        self.quantile_interp(0.99) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(7), 2);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        assert_eq!(bucket_bounds(0), (0, 2));
        assert_eq!(bucket_bounds(1), (2, 4));
        assert_eq!(bucket_bounds(10), (1 << 10, 1 << 11));
        assert_eq!(bucket_bounds(63), (1 << 63, u64::MAX));
        // Every bucket's hi is the next bucket's lo.
        for i in 0..N_BUCKETS - 1 {
            assert_eq!(bucket_bounds(i).1, bucket_bounds(i + 1).0, "gap at bucket {}", i);
        }
        // Values map into the bucket whose bounds contain them.
        for v in [0u64, 1, 2, 3, 5, 100, 4095, 4096, 1 << 40] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(v >= lo && (v < hi || hi == u64::MAX), "{} not in [{}, {})", v, lo, hi);
        }
    }

    #[test]
    fn record_and_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), 0);
        for v in [1u64, 10, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1111);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.nonempty_buckets().len(), 4);
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [3u64, 9, 27] {
            a.record(v);
            whole.record(v);
        }
        for v in [81u64, 243] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn quantile_estimates_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket [8, 16)
        }
        h.record(1000); // bucket [512, 1024)
        assert_eq!(h.quantile(0.5), 16);
        assert_eq!(h.quantile(0.99), 16);
        assert_eq!(h.quantile(1.0), 1000); // clamped to observed max
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn interpolated_quantiles_stay_in_range_and_in_bucket() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket [8, 16)
        }
        h.record(1000); // bucket [512, 1024)
        let p50 = h.quantile_interp(0.5);
        assert!((8.0..16.0).contains(&p50), "p50 {} outside the median's bucket", p50);
        assert!(p50 >= h.min() as f64);
        let p995 = h.quantile_interp(0.995);
        assert!((512.0..=1000.0).contains(&p995), "p99.5 {} outside spike bucket", p995);
        assert_eq!(h.quantile_interp(1.0), 1000.0);
        assert_eq!(Histogram::new().quantile_interp(0.5), 0.0);
    }

    #[test]
    fn interpolated_quantiles_clamp_to_observed_extremes() {
        let mut h = Histogram::new();
        h.record(700); // bucket [512, 1024); interp would otherwise dip below
        assert_eq!(h.quantile_interp(0.0), 700.0);
        assert_eq!(h.p50(), 700);
        assert_eq!(h.p99(), 700);
    }
}
