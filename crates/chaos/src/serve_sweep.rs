//! Session-level chaos sweep for `pmdbg serve`.
//!
//! Where [`crate::supervise`] tortures the parallel detection engine and
//! [`crate::corrupt`] tortures the batch reader, this module tortures
//! the *service*: a real in-process server on a unix socket, fed
//! hundreds of seeded hostile client sessions — mid-stream disconnects,
//! slow-loris trickles that outlive the session deadline, corrupt
//! frames, injected detector panics (transient and permanent), budget
//! exhaustion — and checks the whole serve contract on every answer:
//!
//! * **zero server aborts**: every connection is answered or closed
//!   cleanly and the final summary reports zero host panics;
//! * **survivors are byte-identical to batch**: every `ok` response's
//!   `report_hash` equals an offline batch run (`ingest_bytes` +
//!   `detect_stream`, same ingest limits) over the exact bytes that
//!   session sent;
//! * **casualties are exact**: every quarantined response satisfies
//!   `frames_lost == frames_ok - events_committed`, and its committed
//!   results hash-match a batch re-feed of the first `events_committed`
//!   salvaged events.
//!
//! Sessions run sequentially so the server's 1-based session ids map
//! deterministically onto plan indices — which is what lets the fault
//! hook target exactly the sessions the plan says to fault.

use std::fmt;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pm_serve::{
    client::connect_stream, fetch_stats, push_bytes, FaultPoint, Listen, PushResponse, ServeConfig,
    Server, SessionStatus,
};
use pm_trace::{
    ingest_bytes, report_hash, splitmix64, to_binary, IngestLimits, IngestMode, PmEvent,
};
use pm_workloads::{record_trace, BTree};
use pmdebugger::{DebuggerConfig, DetectSession, PersistencyModel, PmDebugger};

use crate::sweep::{PlanLog, Suite, Sweep};

/// What one hostile client does to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPlan {
    /// Complete well-formed push, half-close, read the answer.
    Clean,
    /// Push a seeded prefix of a valid image, half-close, read.
    TruncatedPush,
    /// Push a seeded prefix and drop the socket without half-close or
    /// reading the answer (client died).
    AbruptDisconnect,
    /// Push a valid image with one seeded bit flipped past the header.
    CorruptBitFlip,
    /// Push a bit-flipped *and* truncated image.
    CorruptTruncate,
    /// Trickle a few bytes, then stall past the session deadline.
    SlowLoris,
    /// Push a few bytes of non-trace garbage.
    GarbageTiny,
    /// A clean push whose detection panics once per batch attempt 0
    /// (must succeed via retry, byte-identical to a fault-free run).
    PanicTransient,
    /// A clean push whose detection panics on every attempt once fed
    /// (must quarantine with exact loss accounting).
    PanicPermanent,
    /// A clean push large enough to trip the server's event budget.
    BudgetExceeded,
    /// A `STATS\n` request; the answer must parse as a run manifest.
    Stats,
}

impl SessionPlan {
    /// Stable lowercase name (JSON key in the plan-mix object).
    pub fn name(self) -> &'static str {
        match self {
            SessionPlan::Clean => "clean",
            SessionPlan::TruncatedPush => "truncated_push",
            SessionPlan::AbruptDisconnect => "abrupt_disconnect",
            SessionPlan::CorruptBitFlip => "corrupt_bit_flip",
            SessionPlan::CorruptTruncate => "corrupt_truncate",
            SessionPlan::SlowLoris => "slow_loris",
            SessionPlan::GarbageTiny => "garbage_tiny",
            SessionPlan::PanicTransient => "panic_transient",
            SessionPlan::PanicPermanent => "panic_permanent",
            SessionPlan::BudgetExceeded => "budget_exceeded",
            SessionPlan::Stats => "stats",
        }
    }

    /// Every plan, in the order `plan_mix` reports them.
    pub const ALL: [SessionPlan; 11] = [
        SessionPlan::Clean,
        SessionPlan::TruncatedPush,
        SessionPlan::AbruptDisconnect,
        SessionPlan::CorruptBitFlip,
        SessionPlan::CorruptTruncate,
        SessionPlan::SlowLoris,
        SessionPlan::GarbageTiny,
        SessionPlan::PanicTransient,
        SessionPlan::PanicPermanent,
        SessionPlan::BudgetExceeded,
        SessionPlan::Stats,
    ];
}

/// The plan for sweep index `i` under `seed` — a pure function, shared
/// by the driver and the server-side fault hook (session id `i + 1`).
pub fn plan_for(seed: u64, index: u64) -> SessionPlan {
    let mut s = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match splitmix64(&mut s) % 100 {
        0..=24 => SessionPlan::Clean,
        25..=36 => SessionPlan::TruncatedPush,
        37..=47 => SessionPlan::AbruptDisconnect,
        48..=58 => SessionPlan::CorruptBitFlip,
        59..=66 => SessionPlan::CorruptTruncate,
        67..=72 => SessionPlan::SlowLoris,
        73..=79 => SessionPlan::GarbageTiny,
        80..=86 => SessionPlan::PanicTransient,
        87..=92 => SessionPlan::PanicPermanent,
        93..=96 => SessionPlan::BudgetExceeded,
        _ => SessionPlan::Stats,
    }
}

/// Server policy the sweep runs under: salvage mode, small commit
/// batches (so permanent faults quarantine mid-stream), a short session
/// deadline (so slow-loris sessions die in bounded time), and an event
/// budget the `BudgetExceeded` plan overruns.
fn sweep_config(listen: Listen, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(listen);
    cfg.checkpoint_every = 64;
    cfg.max_retries = 2;
    cfg.retry_backoff = Duration::from_millis(1);
    cfg.session_deadline = Some(Duration::from_millis(500));
    cfg.limits = IngestLimits::default().with_max_events(1200);
    cfg.fault_hook = Some(Arc::new(move |p: FaultPoint| {
        match plan_for(seed, p.session.saturating_sub(1)) {
            SessionPlan::PanicTransient => p.attempt == 0 && !p.at_finish,
            SessionPlan::PanicPermanent => p.events_fed > 0 || p.at_finish,
            _ => false,
        }
    }));
    cfg
}

/// The payload a session pushes, derived from the sweep seed.
fn payload(seed: u64, index: u64, plan: SessionPlan) -> Vec<u8> {
    let mut s = seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
    let trace_seed = splitmix64(&mut s);
    let ops = match plan {
        SessionPlan::BudgetExceeded => 400,
        _ => 10 + (splitmix64(&mut s) % 50) as usize,
    };
    let bytes = to_binary(&record_trace(&BTree::new(trace_seed), ops));
    match plan {
        SessionPlan::TruncatedPush | SessionPlan::AbruptDisconnect => {
            // Any cut, including mid-header and mid-frame.
            let cut = (splitmix64(&mut s) % (bytes.len() as u64 + 1)) as usize;
            bytes[..cut].to_vec()
        }
        SessionPlan::CorruptBitFlip => {
            let mut bytes = bytes;
            let offset = 8 + (splitmix64(&mut s) % (bytes.len() as u64 - 8)) as usize;
            bytes[offset] ^= 1 << (splitmix64(&mut s) % 8);
            bytes
        }
        SessionPlan::CorruptTruncate => {
            let mut bytes = bytes;
            let offset = 8 + (splitmix64(&mut s) % (bytes.len() as u64 - 8)) as usize;
            bytes[offset] ^= 1 << (splitmix64(&mut s) % 8);
            let cut = 8 + (splitmix64(&mut s) % (bytes.len() as u64 - 8)) as usize;
            bytes[..cut].to_vec()
        }
        SessionPlan::GarbageTiny => {
            let n = 1 + (splitmix64(&mut s) % 16) as usize;
            (0..n).map(|_| (splitmix64(&mut s) & 0xFF) as u8).collect()
        }
        _ => bytes,
    }
}

/// Offline reference: batch-salvage the exact bytes a session sent,
/// under the sweep's ingest limits. `None` when the batch reader
/// rejects the image outright (tiny/headerless), in which case the
/// service must have decoded zero frames.
fn batch_events(bytes: &[u8], limits: &IngestLimits) -> Option<Vec<PmEvent>> {
    ingest_bytes(bytes, IngestMode::Salvage, limits)
        .ok()
        .map(|(trace, _)| trace.events().to_vec())
}

/// Hash of a full batch detection (feed + end-of-stream rules).
fn full_hash(events: &[PmEvent]) -> String {
    let mut det = PmDebugger::new(DebuggerConfig::for_model(PersistencyModel::Strict));
    format!("{:016x}", report_hash(&det.detect_stream(events.iter())))
}

/// Hash of the committed reports of a quarantined session: feed the
/// first `n` salvaged events, never run `finish`.
fn prefix_hash(events: &[PmEvent], n: usize) -> String {
    let mut session = DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
    let reports = session.feed(&events[..n.min(events.len())]);
    format!("{:016x}", report_hash(&reports))
}

/// Pushes `bytes` and absorbs one busy answer by honoring its
/// retry-after hint. Returns the terminal response and how many sheds
/// were absorbed.
fn push_with_retry(listen: &Listen, bytes: &[u8]) -> std::io::Result<(PushResponse, u64)> {
    let response = push_bytes(listen, bytes)?;
    if response.status != SessionStatus::Busy {
        return Ok((response, 0));
    }
    std::thread::sleep(Duration::from_millis(
        response.retry_after_ms.unwrap_or(100),
    ));
    Ok((push_bytes(listen, bytes)?, 1))
}

/// One hostile session: sweep index `index` running `kind`.
#[derive(Debug, Clone, Copy)]
pub struct Session {
    index: u64,
    kind: SessionPlan,
}

impl fmt::Display for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind.name())
    }
}

/// Runs seeded hostile sessions against one in-process server on a temp
/// unix socket, checking the serve contract on every answer (see the
/// module docs). A session whose client-side I/O fails unexpectedly
/// records a violation, not a crash.
///
/// Counters: `ok_sessions` and `quarantined_sessions` (every one hash-
/// and loss-checked), `errored_sessions` (always a violation in degrade
/// mode), `shed` (busy answers absorbed by one retry), `hash_checks`,
/// `frames_lost_total`, `retries_total` (server-reported), and
/// `plan.<kind>` per [`SessionPlan`].
pub struct ServeSweep {
    seed: u64,
    server: Option<Server>,
    listen: Listen,
    limits: IngestLimits,
}

impl ServeSweep {
    /// Starts the sweep's server; session `i`'s plan and payload derive
    /// from `seed`.
    ///
    /// # Errors
    ///
    /// The server could not bind its socket.
    pub fn start(seed: u64) -> std::io::Result<ServeSweep> {
        static NEXT_SOCKET: AtomicU32 = AtomicU32::new(0);
        let path = std::env::temp_dir().join(format!(
            "pmdbg-sweep-{}-{}.sock",
            std::process::id(),
            NEXT_SOCKET.fetch_add(1, Ordering::Relaxed)
        ));
        let cfg = sweep_config(Listen::Unix(path), seed);
        let limits = cfg.limits.clone();
        let server = Server::start(cfg)?;
        Ok(ServeSweep {
            seed,
            listen: server.local_listen().clone(),
            server: Some(server),
            limits,
        })
    }
}

impl Sweep for ServeSweep {
    type Plan = Session;
    const SUITE: Suite = Suite::Serve;

    fn counters(&self) -> Vec<String> {
        let mut names: Vec<String> = [
            "ok_sessions",
            "quarantined_sessions",
            "errored_sessions",
            "shed",
            "hash_checks",
            "frames_lost_total",
            "retries_total",
        ]
        .map(String::from)
        .to_vec();
        names.extend(
            SessionPlan::ALL
                .iter()
                .map(|p| format!("plan.{}", p.name())),
        );
        names
    }

    fn next_plan(&mut self, index: usize) -> Session {
        Session {
            index: index as u64,
            kind: plan_for(self.seed, index as u64),
        }
    }

    fn run(&mut self, session: &Session, log: &mut PlanLog) {
        let plan = session.kind;
        log.add(&format!("plan.{}", plan.name()), 1);
        let listen = &self.listen;
        match plan {
            SessionPlan::Stats => match fetch_stats(listen) {
                Ok(text) => {
                    if pm_obs::RunManifest::from_json(&text).is_err() {
                        log.violation("stats-unparsable", text);
                    }
                }
                Err(e) => log.violation("stats-io", e.to_string()),
            },
            SessionPlan::AbruptDisconnect => {
                let bytes = payload(self.seed, session.index, plan);
                match connect_stream(listen) {
                    Ok(mut conn) => {
                        // Best-effort write, then drop without half-close
                        // or reading: the client died. The server must
                        // absorb it (verified by the final zero-abort
                        // accounting and by every later session still
                        // being answered).
                        let _ = conn.write_all(&bytes);
                    }
                    Err(e) => log.violation("connect-failure", e.to_string()),
                }
            }
            SessionPlan::SlowLoris => {
                let bytes = payload(self.seed, session.index, plan);
                match connect_stream(listen) {
                    Ok(mut conn) => {
                        let _ = conn.set_read_timeout(Some(Duration::from_secs(30)));
                        // Trickle a few bytes, then stall well past the
                        // 500 ms session deadline before half-closing.
                        let mut sent = Vec::new();
                        for chunk in bytes.chunks(4).take(3) {
                            if conn.write_all(chunk).is_ok() {
                                sent.extend_from_slice(chunk);
                            }
                            std::thread::sleep(Duration::from_millis(40));
                        }
                        std::thread::sleep(Duration::from_millis(900));
                        let _ = conn.shutdown_write();
                        let mut text = String::new();
                        let _ = conn.read_to_string(&mut text);
                        match PushResponse::from_json(&text) {
                            Ok(response) => check_response(
                                log,
                                &sent,
                                &self.limits,
                                &response,
                                Some("deadline"),
                            ),
                            Err(e) => log.violation(
                                "no-response",
                                format!("slow-loris got no parsable answer: {e}"),
                            ),
                        }
                    }
                    Err(e) => log.violation("connect-failure", e.to_string()),
                }
            }
            _ => {
                let bytes = payload(self.seed, session.index, plan);
                match push_with_retry(listen, &bytes) {
                    Ok((response, sheds)) => {
                        log.add("shed", sheds);
                        check_response(log, &bytes, &self.limits, &response, None);
                    }
                    Err(e) => log.violation("push-io", e.to_string()),
                }
            }
        }
    }

    fn finish(&mut self, log: &mut PlanLog) {
        let Some(server) = self.server.take() else {
            return;
        };
        let summary = server.shutdown(Duration::from_secs(10));
        if summary.host_panics > 0 {
            log.abort(
                summary.host_panics,
                "host-panic",
                format!("{} session host panics", summary.host_panics),
            );
        }
    }
}

/// The per-answer contract check shared by every plan that reads a
/// response.
fn check_response(
    log: &mut PlanLog,
    sent: &[u8],
    limits: &IngestLimits,
    response: &PushResponse,
    expect_error_kind: Option<&str>,
) {
    log.add("retries_total", u64::from(response.retries));
    match response.status {
        SessionStatus::Ok => {
            log.add("ok_sessions", 1);
            if response.frames_lost != 0 {
                log.violation(
                    "loss-on-ok",
                    format!("ok response reports {} lost frames", response.frames_lost),
                );
            }
            if response.events_committed != response.frames_ok {
                log.violation(
                    "commit-gap-on-ok",
                    format!(
                        "committed {} of {} decoded frames",
                        response.events_committed, response.frames_ok
                    ),
                );
            }
            let events = batch_events(sent, limits).unwrap_or_default();
            log.add("hash_checks", 1);
            if response.frames_ok != events.len() as u64 {
                log.violation(
                    "frame-count-divergence",
                    format!(
                        "service decoded {} frames, batch {}",
                        response.frames_ok,
                        events.len()
                    ),
                );
            }
            let expected = full_hash(&events);
            if response.report_hash != expected {
                log.violation(
                    "hash-divergence",
                    format!(
                        "service hash {} != batch hash {expected} over {} events",
                        response.report_hash,
                        events.len()
                    ),
                );
            }
            if response.truncated.is_none() && response.bytes_read != sent.len() as u64 {
                log.violation(
                    "byte-count-divergence",
                    format!(
                        "service read {} bytes, client sent {}",
                        response.bytes_read,
                        sent.len()
                    ),
                );
            }
        }
        SessionStatus::Quarantined => {
            log.add("quarantined_sessions", 1);
            log.add("frames_lost_total", response.frames_lost);
            if let Some(expected_kind) = expect_error_kind {
                if response.error_kind.as_deref() != Some(expected_kind) {
                    log.violation(
                        "wrong-error-kind",
                        format!("expected `{expected_kind}`, got {:?}", response.error_kind),
                    );
                }
            }
            // Exact loss ledger: every decoded frame is either committed
            // or counted lost.
            if response.frames_lost != response.frames_ok.saturating_sub(response.events_committed)
            {
                log.violation(
                    "loss-mismatch",
                    format!(
                        "frames_lost {} != frames_ok {} - events_committed {}",
                        response.frames_lost, response.frames_ok, response.events_committed
                    ),
                );
            }
            // Committed results hash-match a batch re-feed of the
            // committed prefix (the service decodes a prefix of the
            // batch event sequence for these clean-byte plans).
            let events = batch_events(sent, limits).unwrap_or_default();
            if events.len() as u64 >= response.events_committed {
                log.add("hash_checks", 1);
                let expected = prefix_hash(&events, response.events_committed as usize);
                if response.report_hash != expected {
                    log.violation(
                        "quarantine-hash-divergence",
                        format!(
                            "committed-prefix hash {} != batch {expected} over first {} events",
                            response.report_hash, response.events_committed
                        ),
                    );
                }
            }
        }
        SessionStatus::Error => {
            log.add("errored_sessions", 1);
            log.violation(
                "error-status-in-degrade-mode",
                format!("{:?} ({:?})", response.error, response.error_kind),
            );
        }
        SessionStatus::Busy => {
            log.violation(
                "busy-after-retry",
                "server still shedding after honoring retry_after",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepReport};

    fn sweep(seed: u64, sessions: usize) -> SweepReport {
        run_sweep(&mut ServeSweep::start(seed).unwrap(), sessions, None)
    }

    #[test]
    fn small_sweep_is_clean_across_all_plans() {
        let report = sweep(0xD00D_F00D, 36);
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.plans_run, 36);
        assert_eq!(report.aborts, 0);
        assert_eq!(report.counter("errored_sessions"), 0);
        assert!(report.counter("hash_checks") > 0, "no hash checks ran");
        // The seeded mix must actually exercise the hostile plans.
        assert!(report.counter("plan.clean") > 0);
        assert!(
            report.counter("plan.panic_transient") + report.counter("plan.panic_permanent") > 0,
            "{}",
            report.to_json()
        );
    }

    #[test]
    fn permanent_faults_quarantine_with_exact_loss() {
        // Scan a window of seeds for one that includes permanent faults;
        // the oracle inside check_response does the heavy lifting.
        let report = sweep(0xBAD_5EED, 48);
        assert!(report.ok(), "{}", report.to_json());
        assert!(
            report.counter("quarantined_sessions") > 0,
            "sweep produced no quarantines: {}",
            report.to_json()
        );
        assert!(
            report.counter("frames_lost_total") > 0,
            "{}",
            report.to_json()
        );
    }
}
