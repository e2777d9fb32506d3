//! Memory-pressure chaos sweep for the governed serving daemon.
//!
//! Where [`mod@crate::serve_sweep`] tortures the serve *protocol* and
//! [`crate::daemon_crash`] tortures its *durability*, this module
//! tortures its *memory governance*: each seeded plan starts a fresh
//! in-process server with a [`pmdebugger::MemGovernor`] injected —
//! per-session budgets far under one session's bookkeeping footprint
//! (every batch boundary spills and rehydrates), generous budgets under
//! a herd of small sessions (governance must be invisible), a global
//! budget under the admission estimate (every connection shed with a
//! structured `bytes_wanted`), and a failing-allocator hook that vetoes
//! every other admission — then checks three oracles:
//!
//! * **zero aborts**: every connection is answered, the final summary
//!   reports zero host panics, and the server never dies to pressure;
//! * **zero verdict divergence**: every `ok` response's `report_hash`
//!   equals an unpressured offline batch run over the exact bytes the
//!   session pushed — spilling, rehydrating and pausing must be
//!   invisible to the verdict;
//! * **exact accounting**: the governor's rejection counter equals the
//!   memory sheds the clients observed, every spill on these
//!   run-to-completion plans is matched by a rehydration, and tracked
//!   bytes drain to exactly zero once the last session is torn down.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pm_serve::{push_bytes, Listen, PushResponse, ServeConfig, Server, SessionStatus};
use pm_trace::{
    ingest_bytes, report_hash, splitmix64, to_binary, IngestLimits, IngestMode, PmEvent,
};
use pm_workloads::{record_trace, BTree};
use pmdebugger::{DebuggerConfig, GovernorConfig, MemGovernor, PersistencyModel, PmDebugger};

use crate::sweep::{PlanLog, Suite, Sweep};

/// The memory scenario one plan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemPlan {
    /// One whale session over a per-session budget far under its
    /// bookkeeping footprint: it must spill, rehydrate, and answer
    /// byte-identically to the unpressured run.
    Whale,
    /// A herd of small sessions under a generous budget: no pressure, no
    /// spills, no rejections — governance must be invisible.
    ManySmall,
    /// Several sessions against a thrash-sized per-session budget:
    /// repeated spill/rehydrate cycles, every verdict still exact.
    SpillStorm,
    /// A failing-allocator hook vetoes every other admission: each
    /// session is shed exactly once with a structured `bytes_wanted`,
    /// then admitted on retry.
    RejectStorm,
    /// A global budget below the admission estimate: every connection is
    /// shed — structured, accounted, and without aborting the server.
    BudgetReject,
}

impl MemPlan {
    /// Stable lowercase name (JSON key in the plan-mix object).
    pub fn name(self) -> &'static str {
        match self {
            MemPlan::Whale => "whale",
            MemPlan::ManySmall => "many_small",
            MemPlan::SpillStorm => "spill_storm",
            MemPlan::RejectStorm => "reject_storm",
            MemPlan::BudgetReject => "budget_reject",
        }
    }

    /// Every plan, in the order `plan_mix` reports them.
    pub const ALL: [MemPlan; 5] = [
        MemPlan::Whale,
        MemPlan::ManySmall,
        MemPlan::SpillStorm,
        MemPlan::RejectStorm,
        MemPlan::BudgetReject,
    ];
}

/// The plan for sweep index `i` under `seed` — a pure function, so a
/// failing index can be replayed in isolation.
pub fn mem_plan_for(seed: u64, index: u64) -> MemPlan {
    let mut s = seed ^ index.wrapping_mul(0x2545_F491_4F6C_DD1D);
    match splitmix64(&mut s) % 100 {
        0..=24 => MemPlan::Whale,
        25..=44 => MemPlan::ManySmall,
        45..=69 => MemPlan::SpillStorm,
        70..=84 => MemPlan::RejectStorm,
        _ => MemPlan::BudgetReject,
    }
}

/// How one plan shapes its server and clients. Budgets are calibrated
/// against a live session's bookkeeping footprint (~128 KiB: the
/// location array's staging capacity dominates) and the seeded admission
/// estimate (256 KiB).
struct PlanShape {
    /// Injected global budget (`None` = unbudgeted).
    global_budget: Option<u64>,
    /// Injected per-session budget (`None` = uncapped).
    session_budget: Option<u64>,
    /// Sessions to push, as workload op counts (size knob).
    session_ops: Vec<usize>,
    /// Install the alternating failing-allocator hook.
    failing_allocator: bool,
}

fn shape_for(plan: MemPlan, s: &mut u64) -> PlanShape {
    match plan {
        MemPlan::Whale => PlanShape {
            global_budget: None,
            // Far under the ~128 KiB live footprint: the whale crosses
            // Hard session pressure at its first batch and must spill.
            session_budget: Some(16 * 1024 + splitmix64(s) % (32 * 1024)),
            session_ops: vec![160 + (splitmix64(s) % 120) as usize],
            failing_allocator: false,
        },
        MemPlan::ManySmall => PlanShape {
            global_budget: Some(256 * 1024 * 1024),
            session_budget: None,
            session_ops: (0..4 + (splitmix64(s) % 3) as usize)
                .map(|_| 8 + (splitmix64(s) % 16) as usize)
                .collect(),
            failing_allocator: false,
        },
        MemPlan::SpillStorm => PlanShape {
            global_budget: None,
            session_budget: Some(8 * 1024 + splitmix64(s) % (16 * 1024)),
            session_ops: (0..3).map(|_| 60 + (splitmix64(s) % 80) as usize).collect(),
            failing_allocator: false,
        },
        MemPlan::RejectStorm => PlanShape {
            global_budget: None,
            session_budget: None,
            session_ops: (0..3).map(|_| 8 + (splitmix64(s) % 16) as usize).collect(),
            failing_allocator: true,
        },
        MemPlan::BudgetReject => PlanShape {
            // Below the seeded 256 KiB admission estimate: nothing is
            // ever admitted, everything is shed in a structured answer.
            global_budget: Some(1024 + splitmix64(s) % 4096),
            session_budget: None,
            session_ops: (0..2).map(|_| 4 + (splitmix64(s) % 8) as usize).collect(),
            failing_allocator: false,
        },
    }
}

/// Hash of an unpressured batch detection over the exact pushed bytes.
fn batch_hash(bytes: &[u8], limits: &IngestLimits) -> Option<String> {
    let (trace, _) = ingest_bytes(bytes, IngestMode::Salvage, limits).ok()?;
    let events: Vec<PmEvent> = trace.events().to_vec();
    let mut det = PmDebugger::new(DebuggerConfig::for_model(PersistencyModel::Strict));
    Some(format!(
        "{:016x}",
        report_hash(&det.detect_stream(events.iter()))
    ))
}

/// Pushes `bytes`, absorbing memory sheds by honoring the advertised
/// back-off (bounded retries — the alternating allocator hook admits on
/// the next attempt). Returns the terminal response and the memory sheds
/// absorbed.
fn push_absorbing_sheds(listen: &Listen, bytes: &[u8]) -> std::io::Result<(PushResponse, u64)> {
    let mut sheds = 0u64;
    for _ in 0..4 {
        let response = push_bytes(listen, bytes)?;
        if response.status != SessionStatus::Busy {
            return Ok((response, sheds));
        }
        if response.bytes_wanted.is_some() {
            sheds += 1;
        }
        std::thread::sleep(Duration::from_millis(response.retry_after_ms.unwrap_or(5)));
    }
    Ok((push_bytes(listen, bytes)?, sheds))
}

/// One memory-pressure plan: sweep index `index` running `kind`.
#[derive(Debug, Clone, Copy)]
pub struct Pressure {
    index: usize,
    kind: MemPlan,
}

impl fmt::Display for Pressure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind.name())
    }
}

/// Runs seeded memory-pressure scenarios, each against a fresh governed
/// in-process server on a temp unix socket, checking the zero-abort,
/// zero-divergence and exact-accounting oracles (see the module docs).
/// Unexpected client I/O records a violation, not a crash.
///
/// Counters: `verdict_divergence` (ok responses whose hash diverged from
/// the unpressured batch run, always a violation), `sessions_total`,
/// `ok_sessions`, `memory_sheds` (busy answers with `bytes_wanted`), the
/// governor's `spills_total`, `rehydrations_total`, `rejections_total`,
/// `pauses_total` and `pause_ms_total` summed across plans, and
/// `plan.<kind>` per [`MemPlan`].
pub struct MemPressureSweep {
    seed: u64,
}

impl MemPressureSweep {
    /// A sweep whose plans derive from `seed`.
    pub fn new(seed: u64) -> MemPressureSweep {
        MemPressureSweep { seed }
    }
}

impl Sweep for MemPressureSweep {
    type Plan = Pressure;
    const SUITE: Suite = Suite::MemPressure;

    fn counters(&self) -> Vec<String> {
        let mut names: Vec<String> = [
            "verdict_divergence",
            "sessions_total",
            "ok_sessions",
            "memory_sheds",
            "spills_total",
            "rehydrations_total",
            "rejections_total",
            "pauses_total",
            "pause_ms_total",
        ]
        .map(String::from)
        .to_vec();
        names.extend(MemPlan::ALL.iter().map(|p| format!("plan.{}", p.name())));
        names
    }

    fn next_plan(&mut self, index: usize) -> Pressure {
        Pressure {
            index,
            kind: mem_plan_for(self.seed, index as u64),
        }
    }

    fn run(&mut self, plan: &Pressure, log: &mut PlanLog) {
        log.add(&format!("plan.{}", plan.kind.name()), 1);
        run_plan(log, self.seed, plan.index, plan.kind);
    }
}

fn run_plan(log: &mut PlanLog, seed: u64, index: usize, plan: MemPlan) {
    static NEXT_DIR: AtomicU32 = AtomicU32::new(0);
    let mut s = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let shape = shape_for(plan, &mut s);

    let spill_dir = std::env::temp_dir().join(format!(
        "pmdbg-memsweep-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    if let Err(e) = std::fs::create_dir_all(&spill_dir) {
        log.abort(1, "spill-dir-failure", e.to_string());
        return;
    }
    let socket = spill_dir.join("serve.sock");

    let governor = MemGovernor::new(GovernorConfig {
        global_budget: shape.global_budget,
        session_budget: shape.session_budget,
        ..GovernorConfig::default()
    });
    if shape.failing_allocator {
        // Alternating veto: every session is rejected exactly once with
        // a structured shed, then admitted on its retry.
        let calls = AtomicU64::new(0);
        governor.set_reserve_hook(Some(Arc::new(move |_bytes| {
            calls.fetch_add(1, Ordering::Relaxed) % 2 == 1
        })));
    }

    let mut cfg = ServeConfig::new(Listen::Unix(socket));
    cfg.checkpoint_every = 32;
    cfg.retry_backoff = Duration::from_millis(1);
    cfg.retry_after = Duration::from_millis(2);
    cfg.spill_dir = Some(spill_dir.clone());
    cfg.governor = Some(governor.clone());
    let limits = cfg.limits.clone();

    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            log.abort(1, "bind-failure", e.to_string());
            let _ = std::fs::remove_dir_all(&spill_dir);
            return;
        }
    };
    let listen = server.local_listen().clone();

    let mut sheds_observed = 0u64;
    for (n, &ops) in shape.session_ops.iter().enumerate() {
        log.add("sessions_total", 1);
        let trace_seed = splitmix64(&mut s) ^ n as u64;
        let bytes = to_binary(&record_trace(&BTree::new(trace_seed), ops));
        if plan == MemPlan::BudgetReject {
            // Nothing can be admitted: one push, one structured shed.
            match push_bytes(&listen, &bytes) {
                Ok(response) => {
                    if response.status != SessionStatus::Busy {
                        log.violation(
                            "admitted-over-budget",
                            format!("session {n} answered {:?}", response.status),
                        );
                    } else if response.bytes_wanted.is_none() {
                        log.violation(
                            "shed-without-bytes-wanted",
                            "memory shed carried no bytes_wanted".to_owned(),
                        );
                    } else {
                        sheds_observed += 1;
                        log.add("memory_sheds", 1);
                    }
                }
                Err(e) => log.violation("push-io", e.to_string()),
            }
            continue;
        }
        match push_absorbing_sheds(&listen, &bytes) {
            Ok((response, sheds)) => {
                sheds_observed += sheds;
                log.add("memory_sheds", sheds);
                match response.status {
                    SessionStatus::Ok => {
                        log.add("ok_sessions", 1);
                        let expected = batch_hash(&bytes, &limits).unwrap_or_default();
                        if response.report_hash != expected {
                            log.add("verdict_divergence", 1);
                            log.violation(
                                "verdict-divergence",
                                format!(
                                    "session {n}: pressured hash {} != batch hash {expected}",
                                    response.report_hash
                                ),
                            );
                        }
                    }
                    other => {
                        log.violation(
                            "non-ok-session",
                            format!(
                                "session {n} ended {other:?}: {:?} ({:?})",
                                response.error, response.error_kind
                            ),
                        );
                    }
                }
            }
            Err(e) => {
                log.violation("push-io", e.to_string());
            }
        }
    }

    let summary = server.shutdown(Duration::from_secs(10));
    if summary.host_panics > 0 {
        log.abort(
            summary.host_panics,
            "host-panic",
            format!("{} session host panics", summary.host_panics),
        );
    }

    // Exact accounting oracles over the injected governor.
    let counters = governor.counters();
    log.add("spills_total", counters.spills);
    log.add("rehydrations_total", counters.rehydrations);
    log.add("rejections_total", counters.rejections);
    log.add("pauses_total", counters.pauses);
    log.add("pause_ms_total", counters.pause_ms);
    if governor.tracked_bytes() != 0 || governor.session_count() != 0 {
        log.violation(
            "tracked-bytes-leak",
            format!(
                "{} bytes / {} sessions still tracked after shutdown",
                governor.tracked_bytes(),
                governor.session_count()
            ),
        );
    }
    if counters.spills != counters.rehydrations {
        log.violation(
            "spill-rehydrate-mismatch",
            format!(
                "{} spills vs {} rehydrations on run-to-completion sessions",
                counters.spills, counters.rehydrations
            ),
        );
    }
    if counters.rejections != sheds_observed {
        log.violation(
            "rejection-accounting-mismatch",
            format!(
                "governor counted {} rejections, clients observed {} memory sheds",
                counters.rejections, sheds_observed
            ),
        );
    }
    match plan {
        MemPlan::Whale | MemPlan::SpillStorm => {
            if counters.spills == 0 {
                log.violation(
                    "no-spill-under-hard-pressure",
                    format!(
                        "session budget {:?} produced zero spills",
                        shape.session_budget
                    ),
                );
            }
        }
        MemPlan::ManySmall => {
            if counters.spills != 0 || counters.rejections != 0 {
                log.violation(
                    "pressure-without-pressure",
                    format!(
                        "generous budget produced {} spills / {} rejections",
                        counters.spills, counters.rejections
                    ),
                );
            }
        }
        MemPlan::RejectStorm => {
            if counters.rejections != shape.session_ops.len() as u64 {
                log.violation(
                    "reject-count-mismatch",
                    format!(
                        "alternating allocator should reject each of {} sessions once, counted {}",
                        shape.session_ops.len(),
                        counters.rejections
                    ),
                );
            }
        }
        MemPlan::BudgetReject => {
            if counters.rejections != shape.session_ops.len() as u64 {
                log.violation(
                    "reject-count-mismatch",
                    format!(
                        "{} sessions over budget, governor counted {} rejections",
                        shape.session_ops.len(),
                        counters.rejections
                    ),
                );
            }
        }
    }
    if !summary.manifest_json.contains("\"mem.peak_bytes\"") {
        log.violation(
            "manifest-missing-mem-rows",
            "final manifest carries no mem.* gauges".to_owned(),
        );
    }
    let _ = std::fs::remove_dir_all(&spill_dir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_sweep;

    #[test]
    fn small_sweep_is_clean_across_all_plans() {
        let report = run_sweep(&mut MemPressureSweep::new(0xC0FF_EE00), 14, None);
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.plans_run, 14);
        assert_eq!(report.aborts, 0);
        assert_eq!(report.counter("verdict_divergence"), 0);
        assert!(
            report.counter("plan.whale") + report.counter("plan.spill_storm") > 0,
            "{}",
            report.to_json()
        );
        assert!(
            report.counter("spills_total") > 0,
            "whales must spill: {}",
            report.to_json()
        );
        assert_eq!(
            report.counter("spills_total"),
            report.counter("rehydrations_total")
        );
    }

    #[test]
    fn reject_plans_shed_with_exact_accounting() {
        // Run exactly enough plans to include a rejecting scenario; the
        // in-plan oracles assert the exact rejection counts and the
        // structured bytes_wanted sheds.
        let seed = 0xBEEF_CAFE;
        let first_reject = (0..200u64)
            .find(|&i| {
                matches!(
                    mem_plan_for(seed, i),
                    MemPlan::RejectStorm | MemPlan::BudgetReject
                )
            })
            .expect("seeded mix must include a rejecting plan") as usize;
        let report = run_sweep(&mut MemPressureSweep::new(seed), first_reject + 1, None);
        assert!(report.ok(), "{}", report.to_json());
        assert!(report.counter("memory_sheds") > 0, "{}", report.to_json());
        assert_eq!(
            report.counter("memory_sheds"),
            report.counter("rejections_total")
        );
    }
}
