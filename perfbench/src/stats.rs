//! Order statistics and the metric tables a run reports.

use std::collections::BTreeMap;
use std::time::Instant;

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The nearest-rank `q`-quantile of `xs` (an exact order statistic:
/// always one of the samples).  `None` when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The median of `xs` (nearest rank).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// One metric value with its unit, as printed in the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics by name, in name order.
pub type Metrics = BTreeMap<String, Metric>;

/// Adds `name` to `m`.
pub fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), Metric { value, unit });
}

/// Per-round sums of per-layer quantities, reported as the median over
/// rounds.  A round is one pass over a workload's programs; a quantity
/// summed within a round (e.g. `sexpr.read_ms` over seven programs)
/// becomes one sample.
#[derive(Debug, Default)]
pub struct Rounds {
    samples: BTreeMap<String, Vec<f64>>,
    current: BTreeMap<String, f64>,
    fixed: BTreeMap<String, f64>,
}

impl Rounds {
    /// Records a value measured once per run rather than per round.
    pub fn set(&mut self, name: &str, v: f64) {
        self.fixed.insert(name.to_string(), v);
    }

    /// Adds `v` to `name` in the current round.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.current.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Closes the current round.
    pub fn end_round(&mut self) {
        for (k, v) in std::mem::take(&mut self.current) {
            self.samples.entry(k).or_default().push(v);
        }
    }

    /// The value [`Rounds::set`] recorded for `name`, else its median
    /// over closed rounds (0 when never recorded).
    pub fn median(&self, name: &str) -> f64 {
        if let Some(&v) = self.fixed.get(name) {
            return v;
        }
        self.samples
            .get(name)
            .and_then(|xs| median(xs))
            .unwrap_or(0.0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Renders the result line: `{"correct": .., "attempted": .., "failed":
/// .., "metrics": {name: {"value": .., "unit": ..}}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.value, v.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), Some(50.0));
        assert_eq!(quantile(&xs, 0.9), Some(90.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&[3.0], 0.99), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn rounds_report_the_median_round() {
        let mut r = Rounds::default();
        for v in [1.0, 5.0, 3.0] {
            r.add("x", v);
            r.add("x", 1.0);
            r.end_round();
        }
        assert_eq!(r.median("x"), 4.0);
        assert_eq!(r.median("missing"), 0.0);
        r.set("once", 2.5);
        assert_eq!(r.median("once"), 2.5);
    }
}
