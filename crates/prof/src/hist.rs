//! The fixed-shape log-bucketed histogram behind every published
//! latency distribution.

use pe_trace::{Hist, Sink, HIST_BUCKETS};

/// A 64-bucket base-2 log histogram over `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `i` (1 ≤ i ≤ 62) holds samples
/// in `[2^(i-1), 2^i - 1]`; bucket 63 holds everything from `2^62` up.
/// The shape is fixed, so histograms from different threads, runs, and
/// processes merge by element-wise addition — no bound negotiation,
/// no floats, and identical inputs always produce identical buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram { buckets: [0; HIST_BUCKETS] }
    }

    /// The bucket index a sample lands in.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (HIST_BUCKETS - 1).min(64 - value.leading_zeros() as usize)
        }
    }

    /// The inclusive sample range bucket `i` covers.
    ///
    /// # Panics
    ///
    /// When `i >= HIST_BUCKETS`.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HIST_BUCKETS, "bucket {i} out of range");
        match i {
            0 => (0, 0),
            63 => (1 << 62, u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let i = Histogram::bucket_of(value);
        self.buckets[i] = self.buckets[i].saturating_add(1);
    }

    /// Total recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// The raw bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Element-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// The `p`-th percentile (0–100), reported as the *upper bound* of
    /// the bucket holding the rank-`ceil(p/100 · count)` sample — a
    /// deterministic over-estimate within one power of two of the true
    /// order statistic.  Returns 0 for an empty histogram.
    #[must_use]
    pub fn percentile(&self, p: u8) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let p = u64::from(p.min(100));
        // rank = ceil(p * count / 100), clamped into [1, count].
        let rank = ((p.saturating_mul(count)).div_ceil(100)).clamp(1, count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                return Histogram::bucket_bounds(i).1;
            }
        }
        Histogram::bucket_bounds(HIST_BUCKETS - 1).1
    }

    /// Median estimate (see [`Histogram::percentile`]).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(50)
    }

    /// 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.percentile(90)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(99)
    }

    /// Publishes this histogram as `id` into a sink.
    pub fn publish(&self, sink: &mut dyn Sink, id: Hist) {
        if sink.enabled() {
            sink.hist(id, &self.buckets);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_rule_is_monotone_and_total() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let mut prev = 0;
        for shift in 0..64 {
            let b = Histogram::bucket_of(1u64 << shift);
            assert!(b >= prev, "bucket index must be monotone in the sample");
            prev = b;
        }
        // Every bucket's bounds round-trip through bucket_of.
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_of(lo), i);
            assert_eq!(Histogram::bucket_of(hi), i);
        }
    }

    #[test]
    fn percentiles_bound_the_exact_order_statistics() {
        let samples: Vec<u64> =
            (0..1000).map(|i| (i * i) % 9973 + 1).collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [1u8, 10, 50, 90, 99, 100] {
            let rank = ((u64::from(p) * sorted.len() as u64).div_ceil(100))
                .clamp(1, sorted.len() as u64) as usize;
            let exact = sorted[rank - 1];
            let est = h.percentile(p);
            assert!(est >= exact, "p{p}: estimate {est} below exact {exact}");
            // Upper-bound estimate stays within one bucket (2× + 1).
            assert!(
                est <= exact.saturating_mul(2),
                "p{p}: estimate {est} more than a bucket above exact {exact}"
            );
        }
    }

    #[test]
    fn merge_is_associative_and_matches_pooled_recording() {
        let xs: Vec<u64> = (0..200).map(|i| i * 37 % 501).collect();
        let (a_s, rest) = xs.split_at(50);
        let (b_s, c_s) = rest.split_at(70);
        let rec = |s: &[u64]| {
            let mut h = Histogram::new();
            s.iter().for_each(|&v| h.record(v));
            h
        };
        let (a, b, c) = (rec(a_s), rec(b_s), rec(c_s));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");
        assert_eq!(left, rec(&xs), "merge must equal pooled recording");
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }
}
