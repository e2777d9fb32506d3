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

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm_serve::{push_bytes, Listen, PushResponse, ServeConfig, Server, SessionStatus};
use pm_trace::{
    ingest_bytes, report_hash, splitmix64, to_binary, IngestLimits, IngestMode, PmEvent,
};
use pm_workloads::{record_trace, BTree};
use pmdebugger::{DebuggerConfig, GovernorConfig, MemGovernor, PersistencyModel, PmDebugger};

use crate::budget::Truncation;
use crate::report::json_escape;

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

/// Tuning for one [`mem_pressure_sweep`].
#[derive(Debug, Clone)]
pub struct MemPressureOptions {
    /// Scenario plans to run.
    pub plans: usize,
    /// Base seed; plan `i` derives its scenario and payloads from it.
    pub seed: u64,
    /// Wall-clock ceiling for the whole sweep (`None` = unbounded).
    pub wall_clock: Option<Duration>,
}

impl Default for MemPressureOptions {
    fn default() -> Self {
        MemPressureOptions {
            plans: 100,
            seed: 0x5EED_0011,
            wall_clock: None,
        }
    }
}

/// One broken memory-governance invariant, with replay context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemViolation {
    /// Sweep index of the plan.
    pub index: usize,
    /// Its plan.
    pub plan: &'static str,
    /// Which invariant broke.
    pub kind: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

/// Outcome of one memory-pressure chaos sweep.
#[derive(Debug, Clone, Default)]
pub struct MemPressureReport {
    /// Plans the sweep was asked to run.
    pub plans_planned: usize,
    /// Plans actually run (less only under truncation).
    pub plans_run: usize,
    /// Server-side host panics plus startup failures — the zero-abort
    /// oracle.
    pub aborts: u64,
    /// Ok responses whose `report_hash` diverged from the unpressured
    /// batch run — the zero-divergence oracle.
    pub verdict_divergence: u64,
    /// Sessions pushed across all plans.
    pub sessions_total: u64,
    /// Sessions answered `ok`.
    pub ok_sessions: u64,
    /// Memory sheds observed by clients (busy + `bytes_wanted`).
    pub memory_sheds: u64,
    /// Governor spill count summed across plans.
    pub spills_total: u64,
    /// Governor rehydration count summed across plans.
    pub rehydrations_total: u64,
    /// Governor admission-rejection count summed across plans.
    pub rejections_total: u64,
    /// Governor soft-pressure pause count summed across plans.
    pub pauses_total: u64,
    /// Milliseconds spent in soft-pressure pauses, summed across plans.
    pub pause_ms_total: u64,
    /// Plans run per scenario kind, in [`MemPlan::ALL`] order.
    pub plan_mix: Vec<(&'static str, u64)>,
    /// Every broken invariant.
    pub violations: Vec<MemViolation>,
    /// Budget bounds that were hit.
    pub truncations: Vec<Truncation>,
    /// Sweep wall time in milliseconds.
    pub wall_ms: u128,
}

impl MemPressureReport {
    /// The sweep's verdict: no aborts, no divergence, no broken
    /// accounting.
    pub fn ok(&self) -> bool {
        self.aborts == 0 && self.verdict_divergence == 0 && self.violations.is_empty()
    }

    /// Serializes the report as one JSON object (hand-rolled like the
    /// other chaos reports; no serde in the workspace).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"ok\":{},", self.ok()));
        out.push_str(&format!("\"plans_planned\":{},", self.plans_planned));
        out.push_str(&format!("\"plans_run\":{},", self.plans_run));
        out.push_str(&format!("\"aborts\":{},", self.aborts));
        out.push_str(&format!(
            "\"verdict_divergence\":{},",
            self.verdict_divergence
        ));
        out.push_str(&format!("\"sessions_total\":{},", self.sessions_total));
        out.push_str(&format!("\"ok_sessions\":{},", self.ok_sessions));
        out.push_str(&format!("\"memory_sheds\":{},", self.memory_sheds));
        out.push_str(&format!("\"spills_total\":{},", self.spills_total));
        out.push_str(&format!(
            "\"rehydrations_total\":{},",
            self.rehydrations_total
        ));
        out.push_str(&format!("\"rejections_total\":{},", self.rejections_total));
        out.push_str(&format!("\"pauses_total\":{},", self.pauses_total));
        out.push_str(&format!("\"pause_ms_total\":{},", self.pause_ms_total));
        out.push_str(&format!("\"wall_ms\":{},", self.wall_ms));
        out.push_str("\"plan_mix\":{");
        for (i, (name, count)) in self.plan_mix.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{count}"));
        }
        out.push_str("},\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"plan\":\"{}\",\"kind\":\"{}\",\"detail\":\"{}\"}}",
                v.index,
                v.plan,
                json_escape(v.kind),
                json_escape(&v.detail),
            ));
        }
        out.push_str("],\"truncations\":[");
        for (i, t) in self.truncations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", json_escape(&t.to_string())));
        }
        out.push_str("]}");
        out
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

/// Runs `opts.plans` seeded memory-pressure scenarios, each against a
/// fresh governed in-process server on a temp unix socket, checking the
/// zero-abort, zero-divergence and exact-accounting oracles (see the
/// module docs). Never panics the sweep: unexpected client I/O records
/// a violation, not a crash.
pub fn mem_pressure_sweep(opts: &MemPressureOptions) -> MemPressureReport {
    static NEXT_SOCKET: AtomicU32 = AtomicU32::new(0);
    let started = Instant::now();
    let mut report = MemPressureReport {
        plans_planned: opts.plans,
        plan_mix: MemPlan::ALL.iter().map(|p| (p.name(), 0)).collect(),
        ..MemPressureReport::default()
    };

    for index in 0..opts.plans {
        if let Some(limit) = opts.wall_clock {
            if started.elapsed() >= limit {
                report.truncations.push(Truncation::WallClockExpired {
                    tested: index,
                    total: opts.plans,
                });
                break;
            }
        }
        let plan = mem_plan_for(opts.seed, index as u64);
        report.plans_run += 1;
        if let Some(slot) = report.plan_mix.iter_mut().find(|(n, _)| *n == plan.name()) {
            slot.1 += 1;
        }
        run_plan(&mut report, opts.seed, index, plan, &NEXT_SOCKET);
    }

    report.wall_ms = started.elapsed().as_millis();
    report
}

fn run_plan(
    report: &mut MemPressureReport,
    seed: u64,
    index: usize,
    plan: MemPlan,
    next_socket: &AtomicU32,
) {
    let violation = |kind: &'static str, detail: String| MemViolation {
        index,
        plan: plan.name(),
        kind,
        detail,
    };
    let mut s = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let shape = shape_for(plan, &mut s);

    let spill_dir = std::env::temp_dir().join(format!(
        "pmdbg-memsweep-{}-{}",
        std::process::id(),
        next_socket.fetch_add(1, Ordering::Relaxed)
    ));
    if let Err(e) = std::fs::create_dir_all(&spill_dir) {
        report.aborts += 1;
        report
            .violations
            .push(violation("spill-dir-failure", e.to_string()));
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
            report.aborts += 1;
            report
                .violations
                .push(violation("bind-failure", e.to_string()));
            let _ = std::fs::remove_dir_all(&spill_dir);
            return;
        }
    };
    let listen = server.local_listen().clone();

    let mut sheds_observed = 0u64;
    for (n, &ops) in shape.session_ops.iter().enumerate() {
        report.sessions_total += 1;
        let trace_seed = splitmix64(&mut s) ^ n as u64;
        let bytes = to_binary(&record_trace(&BTree::new(trace_seed), ops));
        if plan == MemPlan::BudgetReject {
            // Nothing can be admitted: one push, one structured shed.
            match push_bytes(&listen, &bytes) {
                Ok(response) => {
                    if response.status != SessionStatus::Busy {
                        report.violations.push(violation(
                            "admitted-over-budget",
                            format!("session {n} answered {:?}", response.status),
                        ));
                    } else if response.bytes_wanted.is_none() {
                        report.violations.push(violation(
                            "shed-without-bytes-wanted",
                            "memory shed carried no bytes_wanted".to_owned(),
                        ));
                    } else {
                        sheds_observed += 1;
                        report.memory_sheds += 1;
                    }
                }
                Err(e) => report.violations.push(violation("push-io", e.to_string())),
            }
            continue;
        }
        match push_absorbing_sheds(&listen, &bytes) {
            Ok((response, sheds)) => {
                sheds_observed += sheds;
                report.memory_sheds += sheds;
                match response.status {
                    SessionStatus::Ok => {
                        report.ok_sessions += 1;
                        let expected = batch_hash(&bytes, &limits).unwrap_or_default();
                        if response.report_hash != expected {
                            report.verdict_divergence += 1;
                            report.violations.push(violation(
                                "verdict-divergence",
                                format!(
                                    "session {n}: pressured hash {} != batch hash {expected}",
                                    response.report_hash
                                ),
                            ));
                        }
                    }
                    other => {
                        report.violations.push(violation(
                            "non-ok-session",
                            format!(
                                "session {n} ended {other:?}: {:?} ({:?})",
                                response.error, response.error_kind
                            ),
                        ));
                    }
                }
            }
            Err(e) => {
                report.violations.push(violation("push-io", e.to_string()));
            }
        }
    }

    let summary = server.shutdown(Duration::from_secs(10));
    report.aborts += summary.host_panics;
    if summary.host_panics > 0 {
        report.violations.push(violation(
            "host-panic",
            format!("{} session host panics", summary.host_panics),
        ));
    }

    // Exact accounting oracles over the injected governor.
    let counters = governor.counters();
    report.spills_total += counters.spills;
    report.rehydrations_total += counters.rehydrations;
    report.rejections_total += counters.rejections;
    report.pauses_total += counters.pauses;
    report.pause_ms_total += counters.pause_ms;
    if governor.tracked_bytes() != 0 || governor.session_count() != 0 {
        report.violations.push(violation(
            "tracked-bytes-leak",
            format!(
                "{} bytes / {} sessions still tracked after shutdown",
                governor.tracked_bytes(),
                governor.session_count()
            ),
        ));
    }
    if counters.spills != counters.rehydrations {
        report.violations.push(violation(
            "spill-rehydrate-mismatch",
            format!(
                "{} spills vs {} rehydrations on run-to-completion sessions",
                counters.spills, counters.rehydrations
            ),
        ));
    }
    if counters.rejections != sheds_observed {
        report.violations.push(violation(
            "rejection-accounting-mismatch",
            format!(
                "governor counted {} rejections, clients observed {} memory sheds",
                counters.rejections, sheds_observed
            ),
        ));
    }
    match plan {
        MemPlan::Whale | MemPlan::SpillStorm => {
            if counters.spills == 0 {
                report.violations.push(violation(
                    "no-spill-under-hard-pressure",
                    format!(
                        "session budget {:?} produced zero spills",
                        shape.session_budget
                    ),
                ));
            }
        }
        MemPlan::ManySmall => {
            if counters.spills != 0 || counters.rejections != 0 {
                report.violations.push(violation(
                    "pressure-without-pressure",
                    format!(
                        "generous budget produced {} spills / {} rejections",
                        counters.spills, counters.rejections
                    ),
                ));
            }
        }
        MemPlan::RejectStorm => {
            if counters.rejections != shape.session_ops.len() as u64 {
                report.violations.push(violation(
                    "reject-count-mismatch",
                    format!(
                        "alternating allocator should reject each of {} sessions once, counted {}",
                        shape.session_ops.len(),
                        counters.rejections
                    ),
                ));
            }
        }
        MemPlan::BudgetReject => {
            if counters.rejections != shape.session_ops.len() as u64 {
                report.violations.push(violation(
                    "reject-count-mismatch",
                    format!(
                        "{} sessions over budget, governor counted {} rejections",
                        shape.session_ops.len(),
                        counters.rejections
                    ),
                ));
            }
        }
    }
    if !summary.manifest_json.contains("\"mem.peak_bytes\"") {
        report.violations.push(violation(
            "manifest-missing-mem-rows",
            "final manifest carries no mem.* gauges".to_owned(),
        ));
    }
    let _ = std::fs::remove_dir_all(&spill_dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_clean_across_all_plans() {
        let opts = MemPressureOptions {
            plans: 14,
            seed: 0xC0FF_EE00,
            wall_clock: None,
        };
        let report = mem_pressure_sweep(&opts);
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.plans_run, 14);
        assert_eq!(report.aborts, 0);
        assert_eq!(report.verdict_divergence, 0);
        let count = |name: &str| {
            report
                .plan_mix
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, c)| *c)
        };
        assert!(
            count("whale") + count("spill_storm") > 0,
            "{}",
            report.to_json()
        );
        assert!(
            report.spills_total > 0,
            "whales must spill: {}",
            report.to_json()
        );
        assert_eq!(report.spills_total, report.rehydrations_total);
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
        let opts = MemPressureOptions {
            plans: first_reject + 1,
            seed,
            wall_clock: None,
        };
        let report = mem_pressure_sweep(&opts);
        assert!(report.ok(), "{}", report.to_json());
        assert!(report.memory_sheds > 0, "{}", report.to_json());
        assert_eq!(report.memory_sheds, report.rejections_total);
    }

    #[test]
    fn zero_wall_clock_truncates_cleanly() {
        let opts = MemPressureOptions {
            plans: 50,
            seed: 1,
            wall_clock: Some(Duration::ZERO),
        };
        let report = mem_pressure_sweep(&opts);
        assert_eq!(report.plans_run, 0);
        assert!(matches!(
            report.truncations.first(),
            Some(Truncation::WallClockExpired {
                tested: 0,
                total: 50
            })
        ));
        assert!(report.ok());
    }

    #[test]
    fn json_shape_is_stable() {
        let opts = MemPressureOptions {
            plans: 4,
            seed: 2,
            wall_clock: None,
        };
        let json = mem_pressure_sweep(&opts).to_json();
        assert!(json.starts_with("{\"ok\":"));
        for key in [
            "plans_planned",
            "plans_run",
            "aborts",
            "verdict_divergence",
            "sessions_total",
            "ok_sessions",
            "memory_sheds",
            "spills_total",
            "rehydrations_total",
            "rejections_total",
            "pauses_total",
            "pause_ms_total",
            "plan_mix",
            "violations",
            "truncations",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key}: {json}"
            );
        }
    }
}
