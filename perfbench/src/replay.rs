//! The replay workloads: a closed loop of back-to-back `pmdbg replay`s
//! of one recorded memcached trace, zero-copy or owned, by `CLIENTS`
//! callers at once.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pm_trace::{
    report_hash, Detector, IngestLimits, IngestMode, MappedTrace, PmEventRef, ZeroCopy,
};
use pmdebugger::PmDebugger;

use crate::inputs::{self, Oracle};
use crate::metrics::{Metrics, RunResult, END_TO_END, PER_LAYER};
use crate::spans::{self, Tracer};
use crate::{set_request_percentiles, stats, Scale, Tally, CLIENTS, SETUP_REPEATS};

/// Events per timed chunk of the traced replay: the serve commit
/// cadence, so chunk costs compare across workloads.
const CHUNK: usize = 4096;

/// Which ingest path `pmdbg replay` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// The default zero-copy walker.
    ZeroCopy,
    /// `--no-zero-copy`: the owned reader.
    Owned,
}

/// The recorded trace on disk and its verdict.
#[derive(Debug)]
pub struct Prepared {
    /// The v2 trace file.
    pub file: PathBuf,
    /// Its size in bytes.
    pub bytes: u64,
    /// The sequential engine's verdict on it.
    pub oracle: Oracle,
    /// Digest of the input and the verdict (see `inputs::input_digest`).
    pub digest: u64,
}

/// Records the memcached trace, runs the oracle, writes the v2 file and
/// warms up with one verified replay.
///
/// # Errors
///
/// File write failures and a warm-up replay that disagrees with the
/// oracle.
pub fn prepare(work: &Path, seed: u64, scale: &Scale) -> Result<Prepared, String> {
    let trace = inputs::memcached_trace(seed, scale.memcached_ops);
    let oracle = Oracle::of(&trace);
    let image = pm_trace::to_binary(&trace);
    drop(trace);
    let file = work.join("memcached.pmt2");
    std::fs::write(&file, &image).map_err(|e| format!("write {}: {e}", file.display()))?;
    let prepared = Prepared {
        file,
        bytes: image.len() as u64,
        digest: inputs::input_digest(&image, &oracle),
        oracle,
    };
    drop(image);
    check_cli(
        &cli_replay(&prepared.file, Ingest::ZeroCopy)?,
        &prepared.oracle,
        Ingest::ZeroCopy,
    )?;
    Ok(prepared)
}

/// One `pmdbg replay --trace <file> [--no-zero-copy]` through the CLI
/// library: argument parsing, execution and the printed verdict.
///
/// # Errors
///
/// Usage or execution errors, as the CLI reports them.
pub fn cli_replay(file: &Path, ingest: Ingest) -> Result<(String, bool), String> {
    let mut args = vec![
        "replay".to_owned(),
        "--trace".to_owned(),
        file.to_string_lossy().into_owned(),
    ];
    if ingest == Ingest::Owned {
        args.push("--no-zero-copy".to_owned());
    }
    let command = pm_cli::parse(&args).map_err(|e| e.0)?;
    let mut out = String::new();
    let outcome = pm_cli::execute_outcome(command, &mut out).map_err(|e| e.to_string())?;
    Ok((out, outcome.bugs_found))
}

/// Checks a replay's printed verdict against the oracle: the event count,
/// the ingest path, and the bug summary line for line.
///
/// # Errors
///
/// A description of the first disagreement.
pub fn check_cli(output: &(String, bool), oracle: &Oracle, ingest: Ingest) -> Result<(), String> {
    let (text, bugs_found) = output;
    let (head, summary) = text.split_once('\n').unwrap_or((text, ""));
    let tag = if ingest == Ingest::ZeroCopy {
        " [zero-copy]"
    } else {
        ""
    };
    let expected_head = format!(
        "replayed {} events through pmdebugger{tag} in ",
        oracle.events
    );
    if !head.starts_with(&expected_head) {
        return Err(format!(
            "replay header `{head}`, expected `{expected_head}...`"
        ));
    }
    if summary != oracle.summary {
        return Err(format!(
            "replay verdict differs from the oracle:\n{summary}\nexpected:\n{}",
            oracle.summary
        ));
    }
    if *bugs_found != (oracle.reports > 0) {
        return Err(format!("replay exit status says bugs_found={bugs_found}"));
    }
    Ok(())
}

/// Sets up `SETUP_REPEATS` times (reporting the median), then runs the
/// measured closed loop for `seconds`: `CLIENTS` callers, each starting
/// its next replay when its last one printed its verdict. On a box shared
/// with other tenants each CPU's speed drifts on its own; a caller per
/// CPU averages that drift inside every run.
///
/// # Errors
///
/// Set-up failures; a replay that disagrees with the oracle is counted as
/// failed instead.
pub fn run(
    work: &Path,
    seed: u64,
    seconds: f64,
    scale: &Scale,
) -> Result<(RunResult, u64), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        prepared = Some(prepare(work, seed, scale)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("SETUP_REPEATS >= 1");

    crate::reset_peak_rss();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let callers: Vec<(Tally, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut tally = Tally::default();
                        let mut latencies = Vec::new();
                        loop {
                            let began = Instant::now();
                            let output = cli_replay(&prepared.file, Ingest::ZeroCopy);
                            latencies.push(began.elapsed().as_secs_f64());
                            tally.record(output.and_then(|out| {
                                check_cli(&out, &prepared.oracle, Ingest::ZeroCopy)
                            }));
                            if Instant::now() >= deadline {
                                break (tally, latencies);
                            }
                        }
                    })
                })
                .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay caller panicked"))
            .collect()
    });
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    for (caller_tally, caller_latencies) in callers {
        tally.merge(caller_tally);
        latencies.extend(caller_latencies);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss = crate::peak_rss_mb();

    let mut metrics = Metrics::new(&END_TO_END);
    let events = prepared.oracle.events * latencies.len() as u64;
    metrics.set("mev_s", events as f64 / wall_s / 1e6);
    metrics.set("peak_rss_mb", peak_rss);
    metrics.set("setup_s", stats::median(&setup_s));
    eprintln!(
        "{} replays of {} events ({} B): min {:.1} ms, median {:.1} ms, max {:.1} ms",
        latencies.len(),
        prepared.oracle.events,
        prepared.bytes,
        stats::percentile(&latencies, 0.0) * 1e3,
        stats::median(&latencies) * 1e3,
        stats::percentile(&latencies, 100.0) * 1e3,
    );
    Ok((tally.into_result(metrics), prepared.digest))
}

/// What one decomposed replay produced.
struct Decomposed {
    reports: Vec<pm_trace::BugReport>,
    stats: pmdebugger::DebuggerStats,
    frames_skipped: u64,
}

/// The replay `pmdbg replay` performs, rebuilt from the layers' public
/// calls with a span around each: open, walk or ingest, detect in
/// 4096-event chunks, finish.
fn decomposed_replay(
    tracer: &Tracer,
    file: &Path,
    ingest: Ingest,
    request: u64,
) -> Result<Decomposed, String> {
    let root = tracer.open("replay", None, request);
    let mapped = tracer
        .time("trace.open", Some(root), request, || {
            MappedTrace::open(file)
        })
        .map_err(|e| format!("open {}: {e}", file.display()))?;
    let bytes = mapped.bytes();
    let limits = IngestLimits::default();
    let mut engine = PmDebugger::new(inputs::config());
    let frames_skipped = match ingest {
        Ingest::ZeroCopy => {
            let opened = tracer.time("trace.walk", Some(root), request, || {
                pm_trace::zero_copy(bytes, IngestMode::Strict, &limits)
            });
            let Ok(ZeroCopy::Binary(mut walker)) = opened else {
                return Err("trace did not open as a v2 image".to_owned());
            };
            let mut chunk: Vec<PmEventRef<'_>> = Vec::with_capacity(CHUNK);
            let mut seq = 0u64;
            loop {
                tracer.time("trace.walk", Some(root), request, || {
                    chunk.clear();
                    while chunk.len() < CHUNK {
                        match walker.next_ref() {
                            Ok(Some(event)) => chunk.push(event),
                            Ok(None) => break,
                            Err(e) => return Err(e.to_string()),
                        }
                    }
                    Ok(())
                })?;
                if chunk.is_empty() {
                    break;
                }
                tracer.time("core.detect", Some(root), request, || {
                    for event in &chunk {
                        engine.on_event_ref(seq, event);
                        seq += 1;
                    }
                });
            }
            walker.report().frames_skipped
        }
        Ingest::Owned => {
            let (trace, report) = tracer
                .time("trace.ingest", Some(root), request, || {
                    pm_trace::ingest_bytes(bytes, IngestMode::Strict, &limits)
                })
                .map_err(|e| e.to_string())?;
            let mut seq = 0u64;
            for chunk in trace.events().chunks(CHUNK) {
                tracer.time("core.detect_owned", Some(root), request, || {
                    for event in chunk {
                        engine.on_event(seq, event);
                        seq += 1;
                    }
                });
            }
            report.frames_skipped
        }
    };
    let reports = tracer.time("core.finish", Some(root), request, || engine.finish());
    tracer.close(root);
    Ok(Decomposed {
        reports,
        stats: engine.stats(),
        frames_skipped,
    })
}

/// The traced run. Each round makes, one at a time, an untraced CLI
/// replay and a traced decomposed replay on each ingest path, and runs
/// until `seconds` are up. Reports every per-layer metric; the owned
/// path's layers and its CLI replay rate come from here.
///
/// # Errors
///
/// Set-up failures; disagreeing replays are counted as failed.
pub fn run_traced(
    work: &Path,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    spans_out: &Path,
) -> Result<RunResult, String> {
    let prepared = prepare(work, seed, scale)?;
    let tracer = Tracer::new();
    let mut tally = Tally::default();
    // Untraced CLI replay times (ms) and last decomposed replay, per path.
    let mut cli_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut last: [Option<Decomposed>; 2] = [None, None];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    while round == 0 || Instant::now() < deadline {
        for (k, ingest) in [Ingest::ZeroCopy, Ingest::Owned].into_iter().enumerate() {
            let start = Instant::now();
            let output = cli_replay(&prepared.file, ingest);
            cli_ms[k].push(start.elapsed().as_secs_f64() * 1e3);
            tally.record(output.and_then(|out| check_cli(&out, &prepared.oracle, ingest)));

            // Request ids: even for zero-copy replays, odd for owned ones.
            let request = 2 * round + k as u64;
            let decomposed = decomposed_replay(&tracer, &prepared.file, ingest, request);
            tally.record(decomposed.as_ref().map_err(Clone::clone).and_then(|d| {
                if report_hash(&d.reports) == prepared.oracle.report_hash {
                    Ok(())
                } else {
                    Err("decomposed replay disagrees with the oracle".to_owned())
                }
            }));
            if let Ok(d) = decomposed {
                last[k] = Some(d);
            }
        }
        round += 1;
    }

    let all = tracer.spans();
    let selfs = spans::self_times(&all);
    // Median over one path's replays of the self time spent in `name`.
    let layer_ms = |name: &str, k: u64| -> f64 {
        let by = spans::self_time_by_request(&all, &selfs, name);
        let values: Vec<f64> = (0..round)
            .map(|r| by.get(&(2 * r + k)).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        stats::median(&values)
    };
    // What the CLI spends beyond the layers it calls: argument parsing,
    // verdict formatting, and its own drive loop.
    let overhead = |k: usize, layers: [&str; 4]| -> f64 {
        let sum: f64 = layers.iter().map(|name| layer_ms(name, k as u64)).sum();
        stats::median(&cli_ms[k]) - sum
    };
    let replay_ms: Vec<f64> = all
        .iter()
        .filter(|s| s.name == "replay" && s.request % 2 == 0)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();

    let mut m = Metrics::new(&PER_LAYER);
    set_request_percentiles(&mut m, &cli_ms[0]);
    m.set(
        "replay_owned_mev_s",
        prepared.oracle.events as f64 / stats::median(&cli_ms[1]) / 1e3,
    );
    m.set("trace.walk_ms", layer_ms("trace.walk", 0));
    m.set("trace.ingest_ms", layer_ms("trace.ingest", 1));
    m.set("trace.events", prepared.oracle.events as f64);
    m.set("trace.bytes", prepared.bytes as f64);
    m.set("core.detect_ms", layer_ms("core.detect", 0));
    m.set("core.detect_owned_ms", layer_ms("core.detect_owned", 1));
    m.set("core.finish_ms", layer_ms("core.finish", 0));
    if let Some(last) = &last[0] {
        m.set("trace.frames_skipped", last.frames_skipped as f64);
        m.set("core.array_stores", last.stats.array_stores as f64);
        m.set("core.tree_inserts", last.stats.tree_inserts as f64);
        m.set("core.migrations", last.stats.migrations as f64);
        m.set("core.rotations", last.stats.rotations as f64);
        m.set("core.reports", last.reports.len() as f64);
    }
    m.set(
        "cli.overhead_ms",
        overhead(
            0,
            ["trace.open", "trace.walk", "core.detect", "core.finish"],
        ),
    );
    m.set(
        "cli.overhead_owned_ms",
        overhead(
            1,
            [
                "trace.open",
                "trace.ingest",
                "core.detect_owned",
                "core.finish",
            ],
        ),
    );
    let cli_median = stats::median(&cli_ms[0]);
    m.set(
        "trace_overhead_pct",
        (stats::median(&replay_ms) - cli_median) / cli_median * 100.0,
    );
    let table = spans::write_spans(spans_out, &all).map_err(|e| e.to_string())?;
    eprint!("{table}");
    Ok(tally.into_result(m))
}
