//! End-to-end and per-layer benchmark of the PMDebugger workspace.
//!
//! `bytes in -> verdict out`, measured for `pmdbg replay` of a recorded
//! trace and for `pmdbg push` sessions against an in-process
//! `pmdbg serve`, with the journal off and on. See `README.md` in this
//! directory for the workloads, the metrics and how to read a traced
//! run.

pub mod inputs;
pub mod metrics;
pub mod replay;
pub mod serve;
pub mod spans;
pub mod stats;

use std::path::{Path, PathBuf};

use metrics::{Metrics, RunResult};
use serve::Journal;

/// Closed-loop callers (replays) or clients (sessions) of a measured run:
/// the reference box's CPU count.
pub const CLIENTS: usize = 2;

/// Set-ups per measured run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The seed whose input digests are pinned in [`PINNED_DIGESTS`].
pub const PINNED_SEED: u64 = 1;

/// Digest of every input image and oracle verdict at [`PINNED_SEED`], per
/// workload. A change to the detector's verdicts or to the workload
/// generators shows up here before it can skew a comparison.
pub const PINNED_DIGESTS: [(&str, u64); 3] = [
    ("replay_memcached", 0xd8f9_bc19_c124_7115),
    ("serve_mix", 0xe7ec_8940_134e_af31),
    ("serve_mix_journal", 0xe7ec_8940_134e_af31),
];

/// Input sizes. [`Scale::FULL`] is what every measured run uses; tests
/// shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Memcached operations recorded for the replay trace.
    pub memcached_ops: usize,
    /// Divides every serve session size.
    pub session_divisor: usize,
}

impl Scale {
    /// The benchmark's input sizes.
    pub const FULL: Scale = Scale {
        memcached_ops: inputs::MEMCACHED_OPS,
        session_divisor: 1,
    };
}

/// Requests attempted and failed, with the first failure kept for the
/// log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests made.
    pub attempted: u64,
    /// Requests that failed their check.
    pub failed: u64,
    /// The first failure's description.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one checked request.
    pub fn record(&mut self, checked: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = checked {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// The run's result; correct when every request passed.
    pub fn into_result(self, metrics: Metrics) -> RunResult {
        if let Some(why) = &self.first_failure {
            eprintln!("FAILED {} of {}: {why}", self.failed, self.attempted);
        }
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            correct: self.failed == 0 && self.attempted > 0,
            metrics,
        }
    }
}

/// Restarts the kernel's peak-RSS (`VmHWM`) count for this process, so
/// the peak covers only what follows. Returns whether the kernel allowed
/// it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB, 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Sets `request.p50_ms` and `request.p90_ms` from untraced request
/// latencies (ms). The p90 is reported only when ten samples lie beyond
/// it; otherwise it stays 0 and stderr names the highest percentile the
/// sample does support.
pub fn set_request_percentiles(metrics: &mut Metrics, latencies_ms: &[f64]) {
    metrics.set("request.p50_ms", stats::median(latencies_ms));
    match stats::highest_supported_percentile(latencies_ms.len()) {
        Some(p) if p >= 90.0 => {
            metrics.set("request.p90_ms", stats::percentile(latencies_ms, 90.0))
        }
        supported => eprintln!(
            "{} requests: too few for a p90 (highest percentile with ten beyond it: {})",
            latencies_ms.len(),
            supported.map_or("none".to_owned(), |p| format!("p{p:.1}"))
        ),
    }
}

/// A scratch directory removed when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<base>/run-<pid>` afresh.
    ///
    /// # Errors
    ///
    /// Directory creation errors.
    pub fn create(base: &Path) -> std::io::Result<WorkDir> {
        let dir = base.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent only holds run directories; drop it once it is empty.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One run of `workload`: the untraced measurement (end-to-end metrics)
/// or, with `spans_out`, the traced run (per-layer metrics, spans written
/// there). Also returns the input digest (0 for traced runs).
///
/// # Errors
///
/// Unknown workloads and set-up failures.
pub fn run(
    workload: &str,
    work: &Path,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    spans_out: Option<&Path>,
) -> Result<(RunResult, u64), String> {
    let traced = |r: Result<RunResult, String>| r.map(|r| (r, 0));
    match (workload, spans_out) {
        ("replay_memcached", None) => replay::run(work, seed, seconds, scale),
        ("serve_mix", None) => serve::run(work, seed, seconds, scale, Journal::Off),
        ("serve_mix_journal", None) => serve::run(work, seed, seconds, scale, Journal::On),
        ("replay_memcached", Some(out)) => {
            traced(replay::run_traced(work, seed, seconds, scale, out))
        }
        ("serve_mix", Some(out)) => traced(serve::run_traced(
            work,
            seed,
            seconds,
            scale,
            Journal::Off,
            out,
        )),
        ("serve_mix_journal", Some(out)) => traced(serve::run_traced(
            work,
            seed,
            seconds,
            scale,
            Journal::On,
            out,
        )),
        (other, _) => Err(format!(
            "unknown workload `{other}` (one of: {})",
            metrics::WORKLOADS.join(", ")
        )),
    }
}
