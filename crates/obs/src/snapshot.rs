//! Point-in-time metric snapshots: the `RunMetrics` tree, its JSON
//! serialization, and the human-readable stage table.

use crate::json::write_json_string;

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(inclusive lower bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the lower bound of the bucket holding the
    /// `q`-th observation (`q` in `[0, 1]`). Exact to within one power
    /// of two — plenty for spotting imbalance and tail latency.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for &(lo, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return lo;
            }
        }
        self.max
    }
}

/// Snapshot of one span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Times the span ran.
    pub count: u64,
    /// Total nanoseconds across runs.
    pub total_ns: u64,
    /// Longest single run in nanoseconds.
    pub max_ns: u64,
}

impl SpanSnapshot {
    /// Mean nanoseconds per run (0.0 when never run).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Everything an [`crate::Obs`] registry held at snapshot time, sorted
/// by name within each kind. The `/`-separated names form the tree;
/// [`RunMetrics::render_table`] groups by the first segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, snapshot)` for every span.
    pub spans: Vec<(String, SpanSnapshot)>,
}

impl RunMetrics {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Looks up a span by name.
    pub fn span(&self, name: &str) -> Option<SpanSnapshot> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, s)| *s)
    }

    /// Serializes the snapshot as a self-contained JSON object:
    ///
    /// ```json
    /// {
    ///   "counters":   {"collector/accepted": 42, ...},
    ///   "gauges":     {...},
    ///   "histograms": {"par/generate/worker_busy_ns":
    ///                    {"count":8,"sum":...,"min":...,"max":...,
    ///                     "buckets":[[524288,3],[1048576,5]]}, ...},
    ///   "spans":      {"pipeline/flips":
    ///                    {"count":1,"total_ns":...,"max_ns":...}, ...}
    /// }
    /// ```
    ///
    /// The output parses back with [`crate::json::parse`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"counters\": {");
        write_scalar_map(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        write_scalar_map(&mut out, &self.gauges);
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_string(&mut out, name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.min, h.max
            ));
            for (j, (lo, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{lo}, {n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("},\n  \"spans\": {");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_string(&mut out, name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                s.count, s.total_ns, s.max_ns
            ));
        }
        out.push_str("}\n}\n");
        out
    }

    /// Renders the snapshot as a human-readable table on stderr-width
    /// lines: spans first (the per-stage breakdown), then counters,
    /// gauges, and histogram summaries, grouped by the first path
    /// segment of each name.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "{:<44} {:>6} {:>12} {:>12} {:>12}\n",
                "span", "count", "total", "mean", "max"
            ));
            let mut group = "";
            for (name, s) in &self.spans {
                let head = name.split('/').next().unwrap_or("");
                if head != group {
                    group = head;
                    out.push_str(&format!("-- {group}\n"));
                }
                out.push_str(&format!(
                    "{:<44} {:>6} {:>12} {:>12} {:>12}\n",
                    name,
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.mean_ns() as u64),
                    fmt_ns(s.max_ns)
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("\n{:<44} {:>14}\n", "counter", "value"));
            let mut group = "";
            for (name, v) in &self.counters {
                let head = name.split('/').next().unwrap_or("");
                if head != group {
                    group = head;
                    out.push_str(&format!("-- {group}\n"));
                }
                out.push_str(&format!("{name:<44} {v:>14}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("\n{:<44} {:>14}\n", "gauge", "value"));
            for (name, v) in &self.gauges {
                out.push_str(&format!("{name:<44} {v:>14}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "\n{:<44} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
                "histogram", "count", "mean", "p50", "p99", "max"
            ));
            for (name, h) in &self.histograms {
                let time_like = name.ends_with("_ns");
                let f = |v: u64| {
                    if time_like {
                        fmt_ns(v)
                    } else {
                        v.to_string()
                    }
                };
                out.push_str(&format!(
                    "{:<44} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
                    name,
                    h.count,
                    f(h.mean() as u64),
                    f(h.quantile(0.5)),
                    f(h.quantile(0.99)),
                    f(h.max)
                ));
            }
        }
        out
    }
}

/// Writes `(name, u64)` pairs as a JSON object body (no braces).
fn write_scalar_map(out: &mut String, pairs: &[(String, u64)]) {
    for (i, (name, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_json_string(out, name);
        out.push_str(&format!(": {v}"));
    }
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn sample() -> RunMetrics {
        let obs = Obs::new();
        obs.counter("collector/accepted").add(42);
        obs.counter("store/reports_appended").add(7);
        obs.gauge("par/generate/imbalance_pct").set(117);
        let h = obs.histogram("par/generate/worker_busy_ns");
        h.observe(1_000_000);
        h.observe(3_000_000);
        obs.record_span("pipeline/flips", 5_000_000);
        obs.snapshot()
    }

    #[test]
    fn lookups_find_metrics() {
        let m = sample();
        assert_eq!(m.counter("collector/accepted"), Some(42));
        assert_eq!(m.counter("missing"), None);
        assert_eq!(m.gauge("par/generate/imbalance_pct"), Some(117));
        assert_eq!(m.span("pipeline/flips").unwrap().total_ns, 5_000_000);
        let h = m.histogram("par/generate/worker_busy_ns").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.quantile(0.0), 524_288);
        assert_eq!(h.quantile(1.0), 2_097_152);
    }

    #[test]
    fn json_output_parses_back() {
        let m = sample();
        let json = m.to_json();
        let v = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("collector/accepted"))
                .and_then(|n| n.as_u64()),
            Some(42)
        );
        assert_eq!(
            v.get("spans")
                .and_then(|s| s.get("pipeline/flips"))
                .and_then(|s| s.get("total_ns"))
                .and_then(|n| n.as_u64()),
            Some(5_000_000)
        );
        let buckets = v
            .get("histograms")
            .and_then(|h| h.get("par/generate/worker_busy_ns"))
            .and_then(|h| h.get("buckets"))
            .and_then(|b| b.as_array())
            .expect("buckets array");
        assert_eq!(buckets.len(), 2);
    }

    #[test]
    fn table_renders_every_metric() {
        let m = sample();
        let table = m.render_table();
        for name in [
            "collector/accepted",
            "store/reports_appended",
            "par/generate/imbalance_pct",
            "par/generate/worker_busy_ns",
            "pipeline/flips",
        ] {
            assert!(table.contains(name), "table missing {name}:\n{table}");
        }
    }

    #[test]
    fn quantile_on_empty_histogram() {
        let h = HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: Vec::new(),
        };
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
