//! Metric names and units, and the result line.

use std::fmt::Write as _;

use crate::probes::{FLAVORS, KERNELS};

/// End-to-end metrics `(name, unit)`, reported by the untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_geomean_ms", "ms"),
    ("setup_s", "s"),
    ("rss_peak_mib", "MiB"),
    ("correct_ratio", "ratio"),
    ("stored_bytes_per_raw_byte", "ratio"),
];

/// Per-layer metrics `(name, unit)` that are not per kernel family,
/// reported by the traced run.
pub const LAYER_FIXED: [(&str, &str); 19] = [
    ("plan.optimize_ms", "ms"),
    ("plan.lower_ms", "ms"),
    ("plan.share", "ratio"),
    ("engine.execute_ms", "ms"),
    ("engine.t2_speedup", "ratio"),
    ("engine.filter_pass_ratio", "ratio"),
    ("engine.probe_hit_ratio", "ratio"),
    ("engine.morsels_retried", "count/sweep"),
    ("engine.counter_mismatch_rows", "rows/sweep"),
    ("govern.admitted_ratio", "ratio"),
    ("govern.degradations", "count/sweep"),
    ("govern.bytes_charged", "bytes/query"),
    ("storage.page_cache_hit_ratio", "ratio"),
    ("storage.page_cache_misses", "count/sweep"),
    ("storage.page_cache_evictions", "count/sweep"),
    ("storage.page_fetch_miss_us", "us"),
    ("storage.page_fetch_hit_us", "us"),
    ("kernels.decode_rows", "rows/sweep"),
    ("kernels.decode_code_filtered", "rows/sweep"),
];

/// Every per-layer metric `(name, unit)`: [`LAYER_FIXED`], then the kernel
/// timings per family and flavor, the model drift per family, and the
/// tracing overhead.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for (k, _) in KERNELS {
        for (f, _) in FLAVORS {
            out.push((format!("kernels.{k}_ns_per_row.{f}"), "ns"));
        }
    }
    for (k, _) in KERNELS {
        out.push((format!("model.{k}_drift"), "ratio"));
    }
    out.push(("obs.trace_overhead".to_string(), "ratio"));
    out
}

/// A workload's measured metrics, in the order they were produced.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// JSON number: the value with all its digits; JSON has no NaN/inf, so a
/// non-finite value (a ratio with an empty base) is written as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count);
        assert_eq!(per_layer().len(), 19 + 15 + 5 + 1);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.push("latency_p50_ms", 1.25, "ms");
        m.push("plan.share", f64::NAN, "ratio");
        assert_eq!(
            result_line(true, 104, 0, &m),
            "{\"correct\": true, \"attempted\": 104, \"failed\": 0, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"plan.share\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
    }

    /// `BENCHMARK.json` at the repository root declares the same metrics.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        let all = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer());
        for (name, unit) in all {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            compact.matches("\"name\":").count(),
            3 + END_TO_END.len() + per_layer().len()
        );
    }
}
