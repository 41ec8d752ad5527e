//! Properties of the pe-prof histogram, over fixed seeds: the bucket
//! rule is monotone and total, merge is associative and agrees with
//! pooled recording, and percentiles bound the exact order statistics
//! from above within one power-of-two bucket.

mod common;

use common::for_all;
use pe_prof::Histogram;
use pe_siege::rng::Rng;

/// Cases per property.
const CASES: usize = 1_000;

/// A latency sample: zero, or uniform in `1..1024`, `1024..10⁶` or
/// `10⁶..u64::MAX`.
fn sample(rng: &mut Rng) -> u64 {
    match rng.below(4) {
        0 => 0,
        1 => 1 + rng.below(1023),
        2 => 1024 + rng.below(1_000_000 - 1024),
        _ => 1_000_000 + rng.below(u64::MAX - 1_000_000),
    }
}

/// Up to 199 samples.
fn samples(rng: &mut Rng) -> Vec<u64> {
    (0..rng.below(200)).map(|_| sample(rng)).collect()
}

/// A percentile rank in `1..=100`.
fn rank(rng: &mut Rng) -> u8 {
    1 + rng.below(100) as u8
}

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

#[test]
fn bucketing_is_monotone_and_total() {
    // Shifting a uniform word gives every bit length, hence every bucket.
    let value = |rng: &mut Rng| rng.next_u64() >> rng.below(64);
    for_all(0x4157_0001, CASES, |rng| (value(rng), value(rng)), |&(a, b)| {
        let (ba, bb) = (Histogram::bucket_of(a), Histogram::bucket_of(b));
        assert!(ba < pe_trace::HIST_BUCKETS && bb < pe_trace::HIST_BUCKETS);
        if a <= b {
            assert!(ba <= bb, "bucket_of not monotone: {a}->{ba}, {b}->{bb}");
        }
        // The value lands inside its bucket's advertised bounds.
        let (lo, hi) = Histogram::bucket_bounds(ba);
        assert!(lo <= a && a <= hi, "{a} outside [{lo}, {hi}] of bucket {ba}");
    });
}

#[test]
fn merge_is_associative_and_matches_pooled_recording() {
    let draw = |rng: &mut Rng| (samples(rng), samples(rng), samples(rng));
    for_all(0x4157_0002, CASES, draw, |(xs, ys, zs)| {
        let (hx, hy, hz) = (hist_of(xs), hist_of(ys), hist_of(zs));
        // (x + y) + z == x + (y + z)
        let mut left = hx.clone();
        left.merge(&hy);
        left.merge(&hz);
        let mut right_tail = hy.clone();
        right_tail.merge(&hz);
        let mut right = hx.clone();
        right.merge(&right_tail);
        assert_eq!(left, right);
        // Merging equals recording the pooled samples directly.
        let pooled: Vec<u64> = xs.iter().chain(ys).chain(zs).copied().collect();
        assert_eq!(left, hist_of(&pooled));
        assert_eq!(left.count(), pooled.len() as u64);
    });
}

#[test]
fn percentiles_bound_exact_order_statistics() {
    for_all(0x4157_0003, CASES, |rng| (samples(rng), rank(rng)), |(xs, p)| {
        let (h, p) = (hist_of(xs), *p);
        if xs.is_empty() {
            assert_eq!(h.percentile(p), 0);
            return;
        }
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        // The exact p-th percentile (nearest-rank definition).
        let rank = (usize::from(p) * sorted.len()).div_ceil(100).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let got = h.percentile(p);
        // The histogram reports the upper bound of the bucket holding
        // the exact order statistic: never an underestimate, and at
        // most one power-of-two bucket above.
        assert!(got >= exact, "p{p}: {got} < exact {exact}");
        let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_of(exact));
        assert!(lo <= exact && got <= hi, "p{p}: {got} beyond bucket of {exact}");
    });
}

#[test]
fn percentiles_are_monotone_in_p() {
    for_all(0x4157_0004, CASES, |rng| (samples(rng), rank(rng), rank(rng)), |(xs, a, b)| {
        let h = hist_of(xs);
        let (lo, hi) = if a <= b { (*a, *b) } else { (*b, *a) };
        assert!(h.percentile(lo) <= h.percentile(hi));
    });
}
