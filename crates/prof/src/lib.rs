//! # pe-prof — profiling and metrics over the pe-trace event stream
//!
//! pe-trace answers "how long did each phase take"; this crate answers
//! the two follow-up questions the ROADMAP's next tentpoles need:
//!
//! * **where inside a phase did the time go** — [`Attribution`] groups
//!   the [`Event::Attr`](pe_trace::Event::Attr) rows the engines emit per residual procedure
//!   (and per VM label) into a ranked table whose per-phase sums are
//!   checked against the phase span totals, so the report can never
//!   silently drop cost;
//! * **what does the latency *distribution* look like** — [`Histogram`]
//!   is a fixed 64-bucket log histogram (mergeable, deterministic,
//!   dependency-free) and [`MetricsRegistry`] is the compile service's
//!   snapshot of per-outcome latency histograms plus in-flight gauges,
//!   published through the shared JSONL stream.
//!
//! Everything here is std-only and rides the existing `&mut dyn Sink`
//! threading; engines that trace into a `NullSink` pay nothing.

mod attr;
mod hist;
mod metrics;

pub use attr::{AttrRow, Attribution};
pub use hist::Histogram;
pub use metrics::{LatencyClass, MetricsRegistry};

/// Distributes a measured total over items proportionally to their
/// deterministic weights, such that the attributed parts sum *exactly*
/// to `total_ns`.  Used by whole-program passes (post, flow, verify)
/// that cannot time one procedure in isolation: the pass measures its
/// own wall time once and spreads it by node share.
///
/// The exact-sum property comes from attributing cumulative-prefix
/// differences instead of rounding each share independently.
#[must_use]
pub fn distribute_ns(total_ns: u64, weights: &[u64]) -> Vec<u64> {
    let total_w: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    if total_w == 0 {
        let mut out = vec![0; weights.len()];
        if let Some(first) = out.first_mut() {
            *first = total_ns;
        }
        return out;
    }
    let mut out = Vec::with_capacity(weights.len());
    let mut cum_w: u128 = 0;
    let mut prev: u64 = 0;
    for &w in weights {
        cum_w += u128::from(w);
        // cum_ns = total_ns * cum_w / total_w, exact at the last item.
        let cum_ns = u64::try_from(u128::from(total_ns) * cum_w / total_w)
            .unwrap_or(u64::MAX);
        out.push(cum_ns - prev);
        prev = cum_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribute_sums_exactly_and_respects_weights() {
        for total in [0u64, 1, 999, 1_000_003] {
            for weights in [
                vec![1u64, 1, 1],
                vec![7, 0, 3],
                vec![0, 0, 0],
                vec![1],
                vec![u64::MAX / 4, 1, 1],
            ] {
                let parts = distribute_ns(total, &weights);
                assert_eq!(parts.len(), weights.len());
                assert_eq!(parts.iter().sum::<u64>(), total, "{weights:?}");
            }
        }
        let parts = distribute_ns(100, &[3, 1]);
        assert_eq!(parts, vec![75, 25]);
        // Zero total weight: everything lands on the first item.
        assert_eq!(distribute_ns(42, &[0, 0]), vec![42, 0]);
    }
}
