//! The metrics registry: counters, gauges and fixed-bucket histograms with
//! a text exposition format.
//!
//! Metric names are plain strings (`ayb_shard_requests_total`,
//! `ayb_coord_request_seconds`, …); there is no label syntax — a fleet this
//! size is better served by a flat, greppable namespace. The registry is
//! cheap to clone (all clones share state) and every operation is
//! lock-short, so planes can bump counters on hot paths.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Histogram bucket upper bounds (seconds) suitable for shard service
/// latency and claim-to-submit times: 500µs up to 10s.
pub const LATENCY_BUCKETS_SECONDS: &[f64] = &[
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// A fixed-bucket histogram: cumulative-style buckets, a running sum and a
/// count, plus the smallest and largest observation. Observations above the
/// last bound land in an implicit overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates an empty histogram with the given ascending bucket upper
    /// bounds. One extra overflow bucket is added implicitly.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let index = self
            .bounds
            .iter()
            .position(|bound| value <= *bound)
            .unwrap_or(self.bounds.len());
        self.counts[index] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all observations (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// An estimate of the `q`-quantile (`0.0 ≤ q ≤ 1.0`): finds the bucket
    /// holding rank `q × count` and interpolates linearly between its edges,
    /// with the observed minimum and maximum standing in for the outer
    /// edges — so the estimate never leaves the observed range (the overflow
    /// bucket ends at the largest observation). Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0u64;
        for (index, &in_bucket) in self.counts.iter().enumerate() {
            if in_bucket == 0 {
                continue;
            }
            if (below + in_bucket) as f64 >= target {
                let lower = match index {
                    0 => self.min,
                    _ => self.bounds[index - 1].max(self.min),
                };
                let upper = self
                    .bounds
                    .get(index)
                    .map_or(self.max, |bound| bound.min(self.max));
                let fraction = (target - below as f64) / in_bucket as f64;
                return Some(lower + (upper - lower) * fraction.clamp(0.0, 1.0));
            }
            below += in_bucket;
        }
        Some(self.max)
    }

    /// The bucket upper bounds this histogram was built with.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket observation counts (one extra trailing overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

#[derive(Default)]
struct MetricsInner {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A cheap cloneable registry of counters, gauges and histograms; clones
/// share state.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<MetricsInner>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics").finish()
    }
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Increments the counter `name` by one, creating it at zero first.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn add(&self, name: &str, delta: u64) {
        let mut counters = self.inner.counters.lock().expect("counters poisoned");
        *counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// The current value of counter `name` (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .expect("counters poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Sets the gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut gauges = self.inner.gauges.lock().expect("gauges poisoned");
        gauges.insert(name.to_string(), value);
    }

    /// The current value of gauge `name`, when set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner
            .gauges
            .lock()
            .expect("gauges poisoned")
            .get(name)
            .copied()
    }

    /// Records `value` into the histogram `name`, creating it with
    /// [`LATENCY_BUCKETS_SECONDS`] when absent.
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_with(name, LATENCY_BUCKETS_SECONDS, value);
    }

    /// Records `value` into the histogram `name`, creating it with the
    /// given bounds when absent.
    pub fn observe_with(&self, name: &str, bounds: &[f64], value: f64) {
        let mut histograms = self.inner.histograms.lock().expect("histograms poisoned");
        histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .observe(value);
    }

    /// A snapshot of histogram `name`, when it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .histograms
            .lock()
            .expect("histograms poisoned")
            .get(name)
            .cloned()
    }

    /// Renders every metric in the text exposition format:
    ///
    /// ```text
    /// # TYPE ayb_coord_claims_total counter
    /// ayb_coord_claims_total 12
    /// # TYPE ayb_coord_open_shards gauge
    /// ayb_coord_open_shards 3
    /// # TYPE ayb_coord_request_seconds histogram
    /// ayb_coord_request_seconds_bucket{le="0.001"} 4
    /// ayb_coord_request_seconds_bucket{le="+Inf"} 12
    /// ayb_coord_request_seconds_sum 0.042
    /// ayb_coord_request_seconds_count 12
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self
            .inner
            .counters
            .lock()
            .expect("counters poisoned")
            .iter()
        {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in self.inner.gauges.lock().expect("gauges poisoned").iter() {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, histogram) in self
            .inner
            .histograms
            .lock()
            .expect("histograms poisoned")
            .iter()
        {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (index, count) in histogram.counts.iter().enumerate() {
                cumulative += count;
                match histogram.bounds.get(index) {
                    Some(bound) => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    None => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    }
                }
            }
            let _ = writeln!(out, "{name}_sum {}", histogram.sum);
            let _ = writeln!(out, "{name}_count {}", histogram.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let metrics = Metrics::new();
        let clone = metrics.clone();
        metrics.inc("ayb_test_total");
        clone.add("ayb_test_total", 4);
        assert_eq!(metrics.counter("ayb_test_total"), 5);
        assert_eq!(metrics.counter("ayb_absent_total"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let metrics = Metrics::new();
        metrics.set_gauge("ayb_depth", 3.0);
        metrics.set_gauge("ayb_depth", 1.0);
        assert_eq!(metrics.gauge("ayb_depth"), Some(1.0));
        assert_eq!(metrics.gauge("ayb_absent"), None);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut histogram = Histogram::with_bounds(&[0.01, 0.1, 1.0]);
        for value in [0.005, 0.005, 0.05, 0.5, 5.0] {
            histogram.observe(value);
        }
        assert_eq!(histogram.count(), 5);
        assert_eq!(histogram.bucket_counts(), &[2, 1, 1, 1]);
        assert!((histogram.sum() - 5.56).abs() < 1e-9);
        let close = |q: f64, expected: f64| {
            let got = histogram.quantile(q).unwrap();
            assert!((got - expected).abs() < 1e-12, "q{q}: {got} != {expected}");
        };
        // Rank 2.5 of 5 is half-way through the (0.01, 0.1] bucket.
        close(0.5, 0.055);
        // Rank 1 is half-way through the first bucket, whose lower edge is
        // the smallest observation.
        close(0.2, 0.0075);
        close(0.0, 0.005);
        // The overflow bucket ends at the largest observation.
        close(0.9, 3.0);
        close(1.0, 5.0);
        // Estimates are capped at the largest observation, never a bound.
        let mut capped = Histogram::with_bounds(&[1.0]);
        capped.observe(0.2);
        capped.observe(0.4);
        assert_eq!(capped.quantile(1.0), Some(0.4));
        assert_eq!(Histogram::with_bounds(&[1.0]).quantile(0.5), None);
    }

    #[test]
    fn text_exposition_covers_all_kinds() {
        let metrics = Metrics::new();
        metrics.inc("ayb_claims_total");
        metrics.set_gauge("ayb_open_shards", 2.0);
        metrics.observe_with("ayb_latency_seconds", &[0.1, 1.0], 0.05);
        metrics.observe_with("ayb_latency_seconds", &[0.1, 1.0], 2.0);
        let text = metrics.render_text();
        assert!(text.contains("# TYPE ayb_claims_total counter"));
        assert!(text.contains("ayb_claims_total 1"));
        assert!(text.contains("# TYPE ayb_open_shards gauge"));
        assert!(text.contains("ayb_open_shards 2"));
        assert!(text.contains("ayb_latency_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("ayb_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("ayb_latency_seconds_count 2"));
    }
}
