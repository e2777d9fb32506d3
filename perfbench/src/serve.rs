//! The serve workloads: an in-process `pm_serve::Server` on a unix
//! socket, driven by a closed loop of `CLIENTS` clients, each pushing
//! sessions back to back and waiting for every verdict, as `pmdbg push`
//! does.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use pm_obs::RunManifest;
use pm_serve::{
    FaultHook, FaultPoint, FsJournalEnv, JournalEnv, JournalIo, Listen, PushResponse, ServeConfig,
    Server, SessionStatus,
};
use pm_trace::{report_hash, BugReport, IngestLimits, IngestMode, PmEvent, StreamDecoder};
use pmdebugger::{encode_reports, DetectSession};

use crate::inputs::{self, Oracle, SessionInput};
use crate::metrics::{Metrics, RunResult, END_TO_END, PER_LAYER};
use crate::spans::{self, Span, Tracer};
use crate::{stats, Scale, Tally, CLIENTS, SETUP_REPEATS};

/// Sessions pushed one at a time before measuring.
const WARMUP_SESSIONS: usize = 4;

/// Bytes the server reads from its socket at a time (its `READ_CHUNK`).
const READ_CHUNK: usize = 8 * 1024;

/// Longest a server gets to drain at shutdown.
const DRAIN: Duration = Duration::from_secs(10);

/// Request id of spans whose session key is not a measured request's.
const UNMEASURED: u64 = u64::MAX;

/// Whether sessions are keyed and journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Journal {
    /// Unkeyed sessions, no journal directory.
    Off,
    /// Keyed sessions, `journal_dir` on disk.
    On,
}

/// Checks one push's answer against the oracle. A shed, quarantined or
/// errored session, a verdict answered from the ledger, and a
/// `report_hash` other than the oracle's each fail.
///
/// # Errors
///
/// What was wrong with the answer.
pub fn check_response(response: &PushResponse, oracle: &Oracle) -> Result<(), String> {
    if response.status != SessionStatus::Ok {
        return Err(format!(
            "session {} ended {}: {}",
            response.session,
            response.status.name(),
            response.error.as_deref().unwrap_or("")
        ));
    }
    if response.replayed {
        return Err(format!(
            "session {} was answered from the journal ledger",
            response.session
        ));
    }
    if response.report_hash != oracle.hash_hex() {
        return Err(format!(
            "session {} report_hash {} differs from the oracle's {}",
            response.session,
            response.report_hash,
            oracle.hash_hex()
        ));
    }
    if response.events_committed != oracle.events || response.frames_skipped != 0 {
        return Err(format!(
            "session {} committed {} of {} events ({} frames skipped)",
            response.session, response.events_committed, oracle.events, response.frames_skipped
        ));
    }
    Ok(())
}

/// Server-side probes of the traced run: the journal decorator's spans
/// and byte counts and the fault hook's batch timestamps.
#[derive(Debug)]
pub struct Probe {
    tracer: Arc<Tracer>,
    /// `(server session id, time)` per fault-hook call.
    batches: Mutex<Vec<(u64, u64)>>,
    /// Journal bytes appended, per request.
    journal_bytes: Mutex<BTreeMap<u64, u64>>,
}

impl Probe {
    /// Probes recording into `tracer`.
    pub fn new(tracer: Arc<Tracer>) -> Arc<Probe> {
        Arc::new(Probe {
            tracer,
            batches: Mutex::new(Vec::new()),
            journal_bytes: Mutex::new(BTreeMap::new()),
        })
    }

    /// A fault hook that injects nothing and timestamps every batch.
    pub fn hook(self: &Arc<Self>) -> FaultHook {
        let probe = Arc::clone(self);
        Arc::new(move |point: FaultPoint| {
            let now = probe.tracer.now();
            probe
                .batches
                .lock()
                .expect("probe poisoned")
                .push((point.session, now));
            false
        })
    }
}

/// The request a session key belongs to: keys end in `-<request>`.
fn request_of(key: &str) -> u64 {
    key.rsplit('-')
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or(UNMEASURED)
}

/// A [`JournalEnv`] over [`FsJournalEnv`] that times every append and
/// sync. It hands every call through unchanged, so the file contents
/// and the fsync points are those of `FsJournalEnv`.
struct TimedJournalEnv {
    probe: Arc<Probe>,
}

struct TimedJournalIo {
    inner: Box<dyn JournalIo>,
    probe: Arc<Probe>,
    request: u64,
}

impl JournalIo for TimedJournalIo {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let (inner, request) = (&mut self.inner, self.request);
        let result = self
            .probe
            .tracer
            .time("serve.journal_append", None, request, || {
                inner.append(bytes)
            });
        if result.is_ok() {
            *self
                .probe
                .journal_bytes
                .lock()
                .expect("probe poisoned")
                .entry(request)
                .or_insert(0) += bytes.len() as u64;
        }
        result
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let inner = &mut self.inner;
        self.probe
            .tracer
            .time("serve.journal_sync", None, self.request, || inner.sync())
    }
}

impl JournalEnv for TimedJournalEnv {
    fn open_append(&self, dir: &Path, key: &str) -> std::io::Result<Box<dyn JournalIo>> {
        Ok(Box::new(TimedJournalIo {
            inner: FsJournalEnv.open_append(dir, key)?,
            probe: Arc::clone(&self.probe),
            request: request_of(key),
        }))
    }

    fn read(&self, dir: &Path, key: &str) -> std::io::Result<Vec<u8>> {
        FsJournalEnv.read(dir, key)
    }

    fn list_keys(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        FsJournalEnv.list_keys(dir)
    }
}

/// A started server and where its journal lives.
pub struct Running {
    /// The server.
    pub server: Server,
    /// Its journal directory, when journaling.
    pub journal_dir: Option<PathBuf>,
}

/// Starts a server in `dir` (socket, and journal when `journal` is on).
/// With a probe, the server runs the probe's fault hook and journal
/// decorator.
///
/// # Errors
///
/// Directory, bind and journal-recovery errors.
pub fn start_server(
    dir: &Path,
    journal: Journal,
    probe: Option<&Arc<Probe>>,
) -> std::io::Result<Running> {
    std::fs::create_dir_all(dir)?;
    let mut cfg = ServeConfig::new(Listen::Unix(dir.join("serve.sock")));
    let journal_dir = (journal == Journal::On).then(|| dir.join("journal"));
    cfg.journal_dir = journal_dir.clone();
    if let Some(probe) = probe {
        cfg.fault_hook = Some(probe.hook());
        cfg.journal_env = Some(Arc::new(TimedJournalEnv {
            probe: Arc::clone(probe),
        }));
    }
    Ok(Running {
        server: Server::start(cfg)?,
        journal_dir,
    })
}

/// One push as `pmdbg push` makes it: keyed when a key is given.
fn push(listen: &Listen, key: Option<&str>, bytes: &[u8]) -> std::io::Result<PushResponse> {
    match key {
        Some(key) => pm_serve::push_bytes_keyed(listen, key, bytes),
        None => pm_serve::push_bytes(listen, bytes),
    }
}

/// [`push`] rebuilt from the client calls with a span around each:
/// connect, send (including backpressure), verdict wait, parse.
fn traced_push(
    tracer: &Tracer,
    listen: &Listen,
    key: Option<&str>,
    bytes: &[u8],
    request: u64,
) -> std::io::Result<PushResponse> {
    let id = tracer.open("session", None, request);
    let root = Some(id);
    let result = (|| {
        let mut conn = tracer.time("serve.connect", root, request, || {
            pm_serve::client::connect_stream(listen)
        })?;
        conn.set_read_timeout(Some(Duration::from_secs(60)))?;
        // As in `push_bytes`: a shed server answers without reading, so a
        // send error only matters when no answer arrives.
        let sent = tracer.time("serve.send", root, request, || {
            let framed;
            let image = match key {
                Some(key) => {
                    framed = [pm_serve::session_preface(key).as_slice(), bytes].concat();
                    framed.as_slice()
                }
                None => bytes,
            };
            conn.write_all(image).and_then(|()| conn.shutdown_write())
        });
        let mut text = String::new();
        let received = tracer.time("serve.verdict_wait", root, request, || {
            conn.read_to_string(&mut text)
        });
        tracer
            .time("parse", root, request, || PushResponse::from_json(&text))
            .or_else(|e| {
                sent?;
                received?;
                Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e))
            })
    })();
    tracer.close(id);
    result
}

/// What a closed loop measured.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Push start to parsed verdict, per session, in seconds.
    pub latencies_s: Vec<f64>,
    /// Events committed by sessions that passed their check.
    pub events: u64,
    /// Wall time of the loop, until the last verdict.
    pub wall_s: f64,
    /// Checked verdicts.
    pub tally: Tally,
    /// `(request, server session id)` per answered push.
    pub sessions: Vec<(u64, u64)>,
}

/// Runs `CLIENTS` clients for `seconds`. Client pushes take the fixed
/// session sequence in order (request `i` pushes session `i mod n`) and a
/// client starts its next push only after its verdict arrived. With a
/// key prefix, request `i` is keyed `<prefix>-<i>`.
pub fn closed_loop(
    listen: &Listen,
    sessions: &[SessionInput],
    key_prefix: Option<&str>,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> LoopOutcome {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let per_client: Vec<LoopOutcome> = thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = LoopOutcome::default();
                    while start.elapsed() < limit {
                        let request = next.fetch_add(1, Ordering::Relaxed);
                        let session = &sessions[(request % sessions.len() as u64) as usize];
                        let key = key_prefix.map(|prefix| format!("{prefix}-{request}"));
                        let began = Instant::now();
                        let answer = match tracer {
                            Some(tracer) => {
                                traced_push(tracer, listen, key.as_deref(), &session.bytes, request)
                            }
                            None => push(listen, key.as_deref(), &session.bytes),
                        };
                        out.latencies_s.push(began.elapsed().as_secs_f64());
                        let checked = answer.map_err(|e| e.to_string()).and_then(|response| {
                            out.sessions.push((request, response.session));
                            check_response(&response, &session.oracle)?;
                            Ok(response.events_committed)
                        });
                        if let Ok(events) = checked {
                            out.events += events;
                        }
                        out.tally.record(checked.map(|_| ()));
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = LoopOutcome {
        wall_s: start.elapsed().as_secs_f64(),
        ..LoopOutcome::default()
    };
    for out in per_client {
        all.latencies_s.extend(out.latencies_s);
        all.events += out.events;
        all.tally.merge(out.tally);
        all.sessions.extend(out.sessions);
    }
    all
}

/// Pushes the first sessions one at a time, checking each verdict.
fn warm_up(
    listen: &Listen,
    sessions: &[SessionInput],
    key_prefix: Option<&str>,
) -> Result<(), String> {
    for (i, session) in sessions.iter().take(WARMUP_SESSIONS).enumerate() {
        let key = key_prefix.map(|prefix| format!("{prefix}-warmup{i}"));
        let response = push(listen, key.as_deref(), &session.bytes).map_err(|e| e.to_string())?;
        check_response(&response, &session.oracle)?;
    }
    Ok(())
}

/// A prefix no earlier run used: session keys must never hit a ledger.
fn unique_prefix(tag: &str) -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    format!("{tag}{:x}{nanos:x}", std::process::id())
}

/// Total size of the files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Digest of the whole session sequence.
fn digest(sessions: &[SessionInput]) -> u64 {
    inputs::fold_digest(
        sessions
            .iter()
            .map(|s| inputs::input_digest(&s.bytes, &s.oracle)),
    )
}

/// Sets up `SETUP_REPEATS` times (sessions, oracles, server start and
/// warm-up; the median is reported), then runs the measured closed loop.
///
/// # Errors
///
/// Set-up failures; a session whose verdict disagrees with the oracle is
/// counted as failed instead.
pub fn run(
    work: &Path,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    journal: Journal,
) -> Result<(RunResult, u64), String> {
    let prefix = (journal == Journal::On).then(|| unique_prefix("s"));
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = None;
    for attempt in 0..SETUP_REPEATS {
        let start = Instant::now();
        let sessions = inputs::session_list(seed, scale.session_divisor);
        let running = start_server(&work.join(format!("server{attempt}")), journal, None)
            .map_err(|e| format!("server start: {e}"))?;
        let listen = running.server.local_listen().clone();
        warm_up(
            &listen,
            &sessions,
            prefix
                .as_deref()
                .map(|p| format!("{p}w{attempt}"))
                .as_deref(),
        )?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some((earlier, _)) = ready.replace((running, sessions)) {
            let Running { server, .. } = earlier;
            server.shutdown(DRAIN);
        }
    }
    let (running, sessions) = ready.expect("SETUP_REPEATS >= 1");
    let listen = running.server.local_listen().clone();

    crate::reset_peak_rss();
    let outcome = closed_loop(&listen, &sessions, prefix.as_deref(), seconds, None);
    let peak_rss = crate::peak_rss_mb();
    running.server.shutdown(DRAIN);

    let mut metrics = Metrics::new(&END_TO_END);
    metrics.set("mev_s", outcome.events as f64 / outcome.wall_s / 1e6);
    metrics.set("peak_rss_mb", peak_rss);
    metrics.set("setup_s", stats::median(&setup_s));
    eprintln!(
        "{} sessions in {:.2} s over {CLIENTS} clients, median {:.1} ms; {} distinct sessions",
        outcome.latencies_s.len(),
        outcome.wall_s,
        stats::median(&outcome.latencies_s) * 1e3,
        sessions.len()
    );
    Ok((outcome.tally.into_result(metrics), digest(&sessions)))
}

/// Per-session results of replaying the server's layer calls offline.
#[derive(Debug, Default)]
struct LayerPass {
    events: u64,
    bytes: u64,
    frames_skipped: u64,
    reports: u64,
    checkpoints: u64,
    ckpt_bytes: u64,
    report_bytes: u64,
    reports_encoded: u64,
    stats: pmdebugger::DebuggerStats,
    report_hash: u64,
}

/// Replays what a session host does with one image, span by span: read
/// it in socket-sized chunks through `StreamDecoder`, feed 4096-event
/// batches to a `DetectSession`, checkpoint after each, and when
/// journaling encode the checkpoint and the cumulative committed reports
/// as the journal record does.
fn layer_pass(
    tracer: &Tracer,
    image: &[u8],
    journal: Journal,
    request: u64,
) -> Result<LayerPass, String> {
    let id = tracer.open("offline_session", None, request);
    let root = Some(id);
    // The commit cadence of a default-configured server.
    let batch = ServeConfig::new(Listen::Tcp(String::new())).checkpoint_every;
    let mut decoder = StreamDecoder::new(IngestMode::Salvage, IngestLimits::default());
    let mut session = DetectSession::new(inputs::config());
    let mut out = LayerPass {
        bytes: image.len() as u64,
        ..LayerPass::default()
    };
    let mut decoded: Vec<PmEvent> = Vec::new();
    let mut pending: Vec<PmEvent> = Vec::with_capacity(batch);
    let mut committed: Vec<BugReport> = Vec::new();
    let mut commit = |pending: &mut Vec<PmEvent>, at_finish: bool, out: &mut LayerPass| {
        let mut reports = tracer.time("core.feed", root, request, || session.feed(pending));
        if at_finish {
            reports.extend(tracer.time("core.finish", root, request, || session.finish()));
        }
        committed.extend(reports);
        if !at_finish {
            let ckpt = tracer.time("core.checkpoint", root, request, || session.checkpoint());
            out.checkpoints += 1;
            if journal == Journal::On {
                let (blob, reports) = tracer.time("core.ckpt_encode", root, request, || {
                    (ckpt.to_bytes(), encode_reports(&committed))
                });
                out.ckpt_bytes += blob.len() as u64;
                out.report_bytes += reports.len() as u64;
                out.reports_encoded += committed.len() as u64;
            }
        }
        pending.clear();
    };
    let chunks = image.chunks(READ_CHUNK).map(Some).chain([None]);
    for chunk in chunks {
        tracer
            .time("trace.stream_decode", root, request, || {
                match chunk {
                    Some(bytes) => decoder.push(bytes),
                    None => decoder.finish(),
                }
                while let Some(event) = decoder.next_event()? {
                    decoded.push(event);
                }
                Ok(())
            })
            .map_err(|e: pm_trace::IngestError| e.to_string())?;
        for event in decoded.drain(..) {
            if pending.len() >= batch {
                commit(&mut pending, false, &mut out);
            }
            pending.push(event);
        }
    }
    commit(&mut pending, true, &mut out);
    out.events = session.events_fed();
    out.frames_skipped = decoder.report().frames_skipped;
    out.reports = committed.len() as u64;
    out.stats = session.stats();
    out.report_hash = report_hash(&committed);
    tracer.close(id);
    Ok(out)
}

/// The traced run: half the time an untraced loop (for the tail latency
/// and the tracing overhead), half a traced loop against a probed
/// server, then an offline layer pass over every distinct session.
///
/// # Errors
///
/// Set-up failures; disagreeing verdicts are counted as failed.
pub fn run_traced(
    work: &Path,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    journal: Journal,
    spans_out: &Path,
) -> Result<RunResult, String> {
    let sessions = inputs::session_list(seed, scale.session_divisor);
    let keyed = journal == Journal::On;
    let mut tally = Tally::default();

    // Untraced half.
    let prefix = keyed.then(|| unique_prefix("u"));
    let running = start_server(&work.join("untraced"), journal, None).map_err(|e| e.to_string())?;
    let listen = running.server.local_listen().clone();
    warm_up(&listen, &sessions, prefix.as_deref())?;
    let plain = closed_loop(&listen, &sessions, prefix.as_deref(), seconds / 2.0, None);
    running.server.shutdown(DRAIN);
    tally.merge(plain.tally);

    // Traced half.
    let tracer = Arc::new(Tracer::new());
    let probe = Probe::new(Arc::clone(&tracer));
    let prefix = keyed.then(|| unique_prefix("t"));
    let running =
        start_server(&work.join("traced"), journal, Some(&probe)).map_err(|e| e.to_string())?;
    let listen = running.server.local_listen().clone();
    warm_up(&listen, &sessions, prefix.as_deref())?;
    let disk_before = running.journal_dir.as_deref().map_or(0, dir_bytes);
    let traced = closed_loop(
        &listen,
        &sessions,
        prefix.as_deref(),
        seconds / 2.0,
        Some(&tracer),
    );
    let disk_after = running.journal_dir.as_deref().map_or(0, dir_bytes);
    let stats_text = pm_serve::fetch_stats(&listen).map_err(|e| format!("STATS: {e}"))?;
    running.server.shutdown(DRAIN);
    tally.merge(traced.tally);
    let manifest = RunManifest::from_json(&stats_text).map_err(|e| format!("STATS: {e}"))?;

    // Offline layer pass, one request id per distinct session.
    let offline_base = 1u64 << 40;
    let mut passes = Vec::with_capacity(sessions.len());
    for (i, session) in sessions.iter().enumerate() {
        let pass = layer_pass(&tracer, &session.bytes, journal, offline_base + i as u64)?;
        tally.record(if pass.report_hash == session.oracle.report_hash {
            Ok(())
        } else {
            Err(format!(
                "offline layer pass of session {i} disagrees with the oracle"
            ))
        });
        passes.push(pass);
    }

    // Server-side batch spans from the fault hook's timestamps.
    let request_of_session: BTreeMap<u64, u64> = traced
        .sessions
        .iter()
        .map(|&(request, id)| (id, request))
        .collect();
    let mut hook_times: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &(session, at) in probe.batches.lock().expect("probe poisoned").iter() {
        if let Some(&request) = request_of_session.get(&session) {
            hook_times.entry(request).or_default().push(at);
        }
    }
    let appends_by_request = {
        let mut by: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for span in tracer
            .spans()
            .iter()
            .filter(|s| s.name == "serve.journal_append")
        {
            by.entry(span.request).or_default().push(span.start_ns);
        }
        by
    };
    let mut batch_ms = Vec::new();
    let mut feed_to_append_ms = Vec::new();
    for (&request, times) in &mut hook_times {
        times.sort_unstable();
        for pair in times.windows(2) {
            tracer.record("serve.batch", pair[0], pair[1], None, request);
            batch_ms.push((pair[1] - pair[0]) as f64 / 1e6);
        }
        let appends = appends_by_request
            .get(&request)
            .map_or(&[][..], Vec::as_slice);
        for (i, &at) in times.iter().enumerate() {
            let before = times.get(i + 1).copied().unwrap_or(u64::MAX);
            if let Some(&append) = appends.iter().find(|&&a| a >= at && a < before) {
                tracer.record("serve.feed_to_append", at, append, None, request);
                feed_to_append_ms.push((append - at) as f64 / 1e6);
            }
        }
    }

    let all: Vec<Span> = tracer.spans();
    let selfs = spans::self_times(&all);
    let measured: Vec<u64> = traced
        .sessions
        .iter()
        .map(|&(request, _)| request)
        .collect();
    let median_per = |name: &str, requests: &mut dyn Iterator<Item = u64>| -> f64 {
        let by = spans::self_time_by_request(&all, &selfs, name);
        let values: Vec<f64> = requests
            .map(|r| by.get(&r).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        stats::median(&values)
    };
    let online = |name: &str| median_per(name, &mut measured.iter().copied());
    let offline = |name: &str| {
        median_per(
            name,
            &mut (0..sessions.len() as u64).map(|i| offline_base + i),
        )
    };
    let per_session = |f: &dyn Fn(&LayerPass) -> u64| -> f64 {
        passes.iter().map(f).sum::<u64>() as f64 / passes.len() as f64
    };

    let mut m = Metrics::new(&PER_LAYER);
    m.set("trace.stream_decode_ms", offline("trace.stream_decode"));
    m.set("trace.events", per_session(&|p| p.events));
    m.set("trace.bytes", per_session(&|p| p.bytes));
    m.set(
        "trace.frames_skipped",
        passes.iter().map(|p| p.frames_skipped).sum::<u64>() as f64,
    );
    m.set("core.finish_ms", offline("core.finish"));
    m.set("core.array_stores", per_session(&|p| p.stats.array_stores));
    m.set("core.tree_inserts", per_session(&|p| p.stats.tree_inserts));
    m.set("core.migrations", per_session(&|p| p.stats.migrations));
    m.set("core.rotations", per_session(&|p| p.stats.rotations));
    m.set("core.reports", per_session(&|p| p.reports));
    m.set("core.feed_ms", offline("core.feed"));
    m.set("core.checkpoint_ms", offline("core.checkpoint"));
    m.set("core.checkpoints", per_session(&|p| p.checkpoints));
    m.set("core.ckpt_encode_ms", offline("core.ckpt_encode"));
    m.set("core.ckpt_bytes", per_session(&|p| p.ckpt_bytes));
    m.set("core.report_bytes", per_session(&|p| p.report_bytes));
    let committed: u64 = passes.iter().map(|p| p.reports).sum();
    let encoded: u64 = passes.iter().map(|p| p.reports_encoded).sum();
    if committed > 0 {
        m.set(
            "core.report_encodes_per_report",
            encoded as f64 / committed as f64,
        );
    }
    m.set("serve.connect_ms", online("serve.connect"));
    m.set("serve.send_ms", online("serve.send"));
    m.set("serve.verdict_wait_ms", online("serve.verdict_wait"));
    let plain_ms: Vec<f64> = plain.latencies_s.iter().map(|s| s * 1e3).collect();
    crate::set_request_percentiles(&mut m, &plain_ms);
    m.set("serve.batch_ms", stats::median(&batch_ms));
    m.set("serve.feed_to_append_ms", stats::median(&feed_to_append_ms));
    m.set("serve.journal_append_ms", online("serve.journal_append"));
    m.set("serve.journal_sync_ms", online("serve.journal_sync"));
    let appends: usize = measured
        .iter()
        .map(|r| appends_by_request.get(r).map_or(0, Vec::len))
        .sum();
    m.set(
        "serve.journal_appends",
        appends as f64 / measured.len().max(1) as f64,
    );
    let journal_bytes: u64 = {
        let by_request = probe.journal_bytes.lock().expect("probe poisoned");
        measured.iter().filter_map(|r| by_request.get(r)).sum()
    };
    m.set(
        "serve.journal_bytes_per_event",
        journal_bytes as f64 / traced.events.max(1) as f64,
    );
    m.set(
        "serve.journal_disk_mb",
        disk_after.saturating_sub(disk_before) as f64 / f64::from(1 << 20),
    );
    let counter = |name: &str| manifest.counters.get(name).copied().unwrap_or(0) as f64;
    for name in [
        "serve.sessions_ok",
        "serve.shed",
        "serve.retries",
        "serve.sessions_quarantined",
        "journal.append_failures",
    ] {
        m.set(name, counter(name));
    }
    m.set(
        "mem.peak_bytes",
        manifest.gauges.get("mem.peak_bytes").copied().unwrap_or(0) as f64,
    );
    let plain_rate = plain.events as f64 / plain.wall_s;
    let traced_rate = traced.events as f64 / traced.wall_s;
    m.set(
        "trace_overhead_pct",
        (plain_rate - traced_rate) / plain_rate * 100.0,
    );

    let table = spans::write_spans(spans_out, &tracer.spans()).map_err(|e| e.to_string())?;
    eprint!("{table}");
    eprintln!(
        "untraced: {} sessions at {:.3} Mev/s; traced: {} sessions at {:.3} Mev/s; {CLIENTS} clients",
        plain.latencies_s.len(),
        plain_rate / 1e6,
        traced.latencies_s.len(),
        traced_rate / 1e6
    );
    Ok(tally.into_result(m))
}
