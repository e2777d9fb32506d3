//! Metric names, units and the result line.
//!
//! Every workload reports every end-to-end metric (untraced run) and
//! every per-layer metric (traced run); a per-layer metric whose layer a
//! workload bypasses reads 0. `BENCHMARK.json` lists the same names.

/// Workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["replay_memcached", "serve_mix", "serve_mix_journal"];

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("mev_s", "Mev/s"), ("peak_rss_mb", "MiB"), ("setup_s", "s")];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("request.p50_ms", "ms"),
    ("request.p90_ms", "ms"),
    ("replay_owned_mev_s", "Mev/s"),
    ("trace.walk_ms", "ms"),
    ("trace.ingest_ms", "ms"),
    ("trace.stream_decode_ms", "ms"),
    ("trace.events", "count"),
    ("trace.bytes", "B"),
    ("trace.frames_skipped", "count"),
    ("core.detect_ms", "ms"),
    ("core.detect_owned_ms", "ms"),
    ("core.finish_ms", "ms"),
    ("core.array_stores", "count"),
    ("core.tree_inserts", "count"),
    ("core.migrations", "count"),
    ("core.rotations", "count"),
    ("core.reports", "count"),
    ("core.feed_ms", "ms"),
    ("core.checkpoint_ms", "ms"),
    ("core.checkpoints", "count"),
    ("core.ckpt_encode_ms", "ms"),
    ("core.ckpt_bytes", "B"),
    ("core.report_bytes", "B"),
    ("core.report_encodes_per_report", "ratio"),
    ("serve.connect_ms", "ms"),
    ("serve.send_ms", "ms"),
    ("serve.verdict_wait_ms", "ms"),
    ("serve.batch_ms", "ms"),
    ("serve.feed_to_append_ms", "ms"),
    ("serve.journal_append_ms", "ms"),
    ("serve.journal_sync_ms", "ms"),
    ("serve.journal_appends", "count"),
    ("serve.journal_bytes_per_event", "B/event"),
    ("serve.journal_disk_mb", "MiB"),
    ("serve.sessions_ok", "count"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.sessions_quarantined", "count"),
    ("journal.append_failures", "count"),
    ("mem.peak_bytes", "B"),
    ("cli.overhead_ms", "ms"),
    ("cli.overhead_owned_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// Named values in the order of a metric list.
#[derive(Debug, Clone)]
pub struct Metrics {
    spec: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    /// Every metric of `spec`, at 0.
    pub fn new(spec: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            spec,
            values: vec![0.0; spec.len()],
        }
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// When `name` is not in the list: a misspelt name is a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .spec
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown metric `{name}`"));
        self.values[i] = value;
    }

    /// `(name, unit, value)` for every metric.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.spec
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), &value)| (name, unit, value))
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Requests (replays or sessions) made in the measured phase.
    pub attempted: u64,
    /// Requests that did not end in a verdict equal to the oracle's.
    pub failed: u64,
    /// Whether every check passed.
    pub correct: bool,
    /// The metrics this run reports.
    pub metrics: Metrics,
}

impl RunResult {
    /// Failed requests over requests attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .rows()
            .map(|(name, unit, value)| {
                // Non-finite values have no JSON form; they only arise
                // from a broken run, which `correct` already flags.
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_obs::json::Value;

    fn names(list: &Value, key: &str) -> Vec<(String, String)> {
        list.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect("field").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = Value::parse(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names(&spec, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&spec, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut metrics = Metrics::new(&END_TO_END);
        metrics.set("mev_s", 2.5);
        let line = RunResult {
            attempted: 3,
            failed: 0,
            correct: true,
            metrics,
        }
        .to_json();
        let parsed = Value::parse(&line).expect("result line is JSON");
        assert_eq!(parsed.get("attempted").and_then(Value::as_u64), Some(3));
        let m = parsed
            .get("metrics")
            .and_then(Value::as_obj)
            .expect("metrics");
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(
            m["mev_s"].get("unit").and_then(Value::as_str),
            Some("Mev/s")
        );
    }
}
