//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's contract with `BENCHMARK.json`;
//! a unit test checks that they list the same names and units.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_ms_per_job", "ms"),
    ("ok_frac", "1"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run of every workload.
pub const PER_LAYER: [(&str, &str); 49] = [
    // device / quadrature: kernel profile diffs, per computed job.
    ("kernel.evaluate_s", "s"),
    ("kernel.postprocess_s", "s"),
    ("kernel.threshold_s", "s"),
    ("kernel.filter_s", "s"),
    ("kernel.evaluate_launches", "count"),
    ("kernel.evaluate_blocks", "count"),
    ("evaluate.ns_per_eval", "ns"),
    ("evaluate.bytes_computed", "B"),
    ("device.peak_bytes", "B"),
    // device scaling.
    ("solve.single_thread_s", "s"),
    ("solve.nproc_s", "s"),
    ("device.scaling_eff", "1"),
    // core::driver, per computed job.
    ("driver.evals", "count"),
    ("driver.iterations", "count"),
    ("driver.regions_generated", "count"),
    ("driver.peak_regions", "count"),
    ("driver.host_s", "s"),
    // core::service / core::multi_device / cost.
    ("service.submit_us", "us"),
    ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.rejected", "count"),
    ("service.deadline_misses", "count"),
    ("service.cancelled", "count"),
    ("cost.prediction_error", "1"),
    ("lanes.completed_spread", "1"),
    ("loadgen.late_ms_max", "ms"),
    // persist.
    ("cache.hit_ratio", "1"),
    ("cache.hit_latency_ms", "ms"),
    ("cache.lookup_us", "us"),
    ("cache.checkpoints_written", "count"),
    ("cache.evals_saved", "count"),
    ("worker.checkpoints_written", "count"),
    // core::remote.
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.submit_bytes", "B"),
    ("wire.done_bytes", "B"),
    ("remote.transit_ms", "ms"),
    ("remote.dispatched", "count"),
    ("remote.requeued", "count"),
    ("remote.heartbeats", "count"),
    // The tiny-job paths.
    ("overhead.direct_us", "us"),
    ("overhead.arena_us", "us"),
    ("overhead.service_us", "us"),
    ("overhead.remote_us", "us"),
    // Outcomes and the tracer itself.
    ("jobs.failed_frac", "1"),
    ("jobs.unconverged", "count"),
    ("trace.overhead_frac", "1"),
    ("trace.spans", "count"),
];

/// Metric values by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Set `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Render the result line: exactly the metrics of `table`, each with its unit.
///
/// # Errors
/// Names a metric of `table` that was never set or is not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    table: &[(&str, &str)],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting keeps.
pub fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparsable VmHWM line")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name"` / `"unit"` pair listed under `section` in
    /// `BENCHMARK.json` (a minimal scan; the file is written by hand).
    fn benchmark_json_entries(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |obj: &str, key: &str| -> Option<String> {
            let at = obj.find(&format!("\"{key}\""))?;
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"')? + 1;
            let close = rest[open..].find('"')? + open;
            Some(rest[open..close].to_owned())
        };
        body.split('{')
            .skip(1)
            .map(|obj| {
                (
                    field(obj, "name").expect("every metric has a name"),
                    field(obj, "unit").expect("every metric has a unit"),
                )
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        assert_eq!(benchmark_json_entries("end_to_end"), owned(&END_TO_END));
        assert_eq!(benchmark_json_entries("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_lists_exactly_the_table() {
        let mut m = Metrics::default();
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, i as f64 + 0.25);
        }
        m.set("kernel.evaluate_s", 1.0);
        let line = result_line(true, 3, 0, &m, &END_TO_END).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(!line.contains("kernel"));
        m.set("cpu_ms_per_job", f64::NAN);
        assert!(result_line(true, 3, 0, &m, &END_TO_END).is_err());
    }
}
