//! Detector-fault chaos sweep for the supervised parallel pipeline.
//!
//! Where [`crate::corrupt`] tortures the *ingestion* layer and
//! [`crate::scheduler`] tortures the *workloads*, this module tortures the
//! detection engine itself: hundreds of seeded
//! [`pmdebugger::FaultPlan`]s — panic, virtual-delay and alloc-pressure
//! faults compiled into the guarded worker loop — run against one trace
//! under varied supervision policies, asserting the supervisor's whole
//! contract at once:
//!
//! * **zero process aborts**: every run completes or fails *typed*, never
//!   by panic (each run sits behind its own `catch_unwind` so a violation
//!   is counted, not fatal to the sweep);
//! * **fault-free shards are byte-identical**: the surviving verdicts
//!   equal [`pmdebugger::expected_surviving_reports`] — the sequential
//!   reports owned by surviving shards, in sequential order;
//! * **casualties are named precisely**: the quarantined shard set and the
//!   lost-event total match [`pmdebugger::FaultPlan::dooms`]' prediction
//!   exactly, per plan.
//!
//! Budgets degrade gracefully in the house style: a wall-clock limit stops
//! the sweep early with an explicit [`Truncation`] marker instead of a
//! partial report that reads as complete.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pm_trace::{splitmix64, BugReport, Detector, Trace};
use pmdebugger::{
    detect_supervised, expected_surviving_reports, DebuggerConfig, FailMode, FaultPlan,
    ParallelConfig, PersistencyModel, PmDebugger, SupervisorConfig,
};

use crate::budget::Truncation;
use crate::report::json_escape;

/// Tuning for one [`supervisor_sweep`].
#[derive(Debug, Clone)]
pub struct SupervisorSweepOptions {
    /// Seeded fault plans to run.
    pub plans: usize,
    /// Base seed; plan `i` derives its own seed and policy from it.
    pub seed: u64,
    /// Thread counts cycled across plans.
    pub threads: Vec<usize>,
    /// Wall-clock ceiling for the whole sweep (`None` = unbounded).
    pub wall_clock: Option<Duration>,
}

impl Default for SupervisorSweepOptions {
    fn default() -> Self {
        SupervisorSweepOptions {
            plans: 200,
            seed: 0x5AFE_0001,
            threads: vec![2, 3, 4, 8],
            wall_clock: None,
        }
    }
}

/// One broken invariant, with enough context to replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepViolation {
    /// Index of the plan within the sweep.
    pub plan_index: usize,
    /// The plan's derived fault seed.
    pub plan_seed: u64,
    /// Worker threads the run used.
    pub threads: usize,
    /// Which invariant broke.
    pub kind: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

/// Outcome of one detector-fault sweep.
#[derive(Debug, Clone, Default)]
pub struct SupervisorSweepReport {
    /// Plans the sweep was asked to run.
    pub plans_planned: usize,
    /// Plans actually run (less than planned only under truncation).
    pub plans_run: usize,
    /// Runs whose `catch_unwind` caught an escaped panic — must be 0.
    pub aborts: u64,
    /// Runs that completed degraded (at least one quarantined shard).
    pub degraded_runs: u64,
    /// Quarantined shards summed over all runs.
    pub quarantined_shards: u64,
    /// Shard re-attempts summed over all runs.
    pub retries: u64,
    /// Routed events lost summed over all runs.
    pub lost_events: u64,
    /// Faults scheduled across all plans.
    pub faults_injected: u64,
    /// Every broken invariant.
    pub violations: Vec<SweepViolation>,
    /// Budget bounds that were hit.
    pub truncations: Vec<Truncation>,
    /// Sweep wall time in milliseconds.
    pub wall_ms: u128,
}

impl SupervisorSweepReport {
    /// The sweep's verdict: no aborts and no broken invariants.
    pub fn ok(&self) -> bool {
        self.aborts == 0 && self.violations.is_empty()
    }

    /// Serializes the report as one JSON object (hand-rolled like the
    /// other chaos reports; no serde in the workspace).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"ok\":{},", self.ok()));
        out.push_str(&format!("\"plans_planned\":{},", self.plans_planned));
        out.push_str(&format!("\"plans_run\":{},", self.plans_run));
        out.push_str(&format!("\"aborts\":{},", self.aborts));
        out.push_str(&format!("\"degraded_runs\":{},", self.degraded_runs));
        out.push_str(&format!(
            "\"quarantined_shards\":{},",
            self.quarantined_shards
        ));
        out.push_str(&format!("\"retries\":{},", self.retries));
        out.push_str(&format!("\"lost_events\":{},", self.lost_events));
        out.push_str(&format!("\"faults_injected\":{},", self.faults_injected));
        out.push_str(&format!("\"wall_ms\":{},", self.wall_ms));
        out.push_str("\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"plan_index\":{},\"plan_seed\":{},\"threads\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
                v.plan_index,
                v.plan_seed,
                v.threads,
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

fn sequential_reports(config: &DebuggerConfig, trace: &Trace) -> Vec<BugReport> {
    let mut det = PmDebugger::new(config.clone());
    for (seq, event) in trace.events().iter().enumerate() {
        det.on_event(seq as u64, event);
    }
    det.finish()
}

/// Derives plan `i`'s supervision policy from the sweep seed: retries in
/// 0..=2, sequential fallback on or off, and the deadline / memory-budget
/// limits toggled independently. Limits are sized so only injected faults
/// can trip them — that keeps [`FaultPlan::dooms`] an exact oracle.
fn derive_policy(state: &mut u64) -> SupervisorConfig {
    let r = splitmix64(state);
    let mut sup = SupervisorConfig::default()
        .with_max_retries((r % 3) as u32)
        .with_sequential_fallback(r & 8 != 0)
        .with_fail_mode(FailMode::Degrade);
    if r & 16 != 0 {
        sup = sup.with_shard_deadline(Duration::from_secs(30));
    }
    if r & 32 != 0 {
        sup = sup.with_max_shard_bytes(8 << 20);
    }
    sup
}

/// Runs `opts.plans` seeded detector-fault plans against `trace` under
/// `model`, checking the supervisor's full contract per plan (see the
/// module docs). Never panics: each run sits behind `catch_unwind`, and an
/// escaped panic increments [`SupervisorSweepReport::aborts`] instead of
/// killing the sweep.
pub fn supervisor_sweep(
    trace: &Trace,
    model: PersistencyModel,
    opts: &SupervisorSweepOptions,
) -> SupervisorSweepReport {
    let started = Instant::now();
    let config = DebuggerConfig::for_model(model);
    let sequential = sequential_reports(&config, trace);
    let thread_cycle: &[usize] = if opts.threads.is_empty() {
        &[4]
    } else {
        &opts.threads
    };

    let mut report = SupervisorSweepReport {
        plans_planned: opts.plans,
        ..SupervisorSweepReport::default()
    };
    let mut state = opts.seed ^ 0xC0FF_EE00_D15E_A5ED;

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
        let threads = thread_cycle[index % thread_cycle.len()];
        let sup = derive_policy(&mut state);
        let plan_seed = splitmix64(&mut state);
        let faults = FaultPlan::seeded(plan_seed, threads, sup.total_attempts());
        report.faults_injected += faults.faults().len() as u64;
        report.plans_run += 1;

        let violation = |kind: &'static str, detail: String| SweepViolation {
            plan_index: index,
            plan_seed,
            threads,
            kind,
            detail,
        };

        let run = catch_unwind(AssertUnwindSafe(|| {
            detect_supervised(
                &config,
                &ParallelConfig::with_threads(threads),
                &sup,
                Some(&faults),
                trace,
            )
        }));
        let result = match run {
            Ok(Ok(result)) => result,
            Ok(Err(err)) => {
                report.violations.push(violation(
                    "typed-error-in-degrade-mode",
                    format!("degrade mode returned an error: {err}"),
                ));
                continue;
            }
            Err(_) => {
                report.aborts += 1;
                report.violations.push(violation(
                    "abort",
                    "a panic escaped the supervised run".to_string(),
                ));
                continue;
            }
        };

        // Casualty precision: quarantined set == the oracle's prediction.
        let doomed = faults.doomed_workers(threads, &sup);
        let quarantined: Vec<u32> = result
            .degraded
            .as_ref()
            .map(|d| d.quarantined.iter().map(|q| q.worker).collect())
            .unwrap_or_default();
        if quarantined != doomed {
            report.violations.push(violation(
                "casualty-mismatch",
                format!("quarantined {quarantined:?}, predicted {doomed:?}"),
            ));
        }

        // Lost-event accounting matches the plan ledger exactly.
        let predicted_lost: u64 = doomed
            .iter()
            .filter_map(|&w| result.plan.worker_loads().get(w as usize))
            .sum();
        let reported_lost = result.degraded.as_ref().map_or(0, |d| d.lost_events);
        if reported_lost != predicted_lost {
            report.violations.push(violation(
                "lost-event-mismatch",
                format!("reported {reported_lost} lost events, predicted {predicted_lost}"),
            ));
        }

        // Fault-free shards byte-identical to sequential (and with no
        // casualties the whole verdict set must match exactly).
        let expected = expected_surviving_reports(&sequential, &result.plan, &doomed, threads);
        if result.outcome.reports != expected {
            report.violations.push(violation(
                "survivor-divergence",
                format!(
                    "surviving reports diverged: got {}, expected {} (doomed {doomed:?})",
                    result.outcome.reports.len(),
                    expected.len()
                ),
            ));
        }

        if result.is_degraded() {
            report.degraded_runs += 1;
        }
        report.quarantined_shards += quarantined.len() as u64;
        report.retries += result.retries;
        report.lost_events += reported_lost;
    }

    report.wall_ms = started.elapsed().as_millis();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_workloads::{record_trace, BTree};

    fn sample_trace(ops: usize) -> Trace {
        record_trace(&BTree::default(), ops)
    }

    #[test]
    fn small_sweep_is_clean_and_injects_faults() {
        let trace = sample_trace(40);
        let opts = SupervisorSweepOptions {
            plans: 24,
            ..SupervisorSweepOptions::default()
        };
        let report = supervisor_sweep(&trace, PersistencyModel::Strict, &opts);
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.plans_run, 24);
        assert_eq!(report.aborts, 0);
        assert!(report.faults_injected > 0, "sweep injected nothing");
        // Roughly half the workers per plan carry faults; across 24 varied
        // plans some shard must actually have been lost and some retried.
        assert!(report.degraded_runs > 0, "{}", report.to_json());
        assert!(report.retries > 0, "{}", report.to_json());
    }

    #[test]
    fn sweeps_are_deterministic_for_a_seed() {
        let trace = sample_trace(30);
        let opts = SupervisorSweepOptions {
            plans: 12,
            ..SupervisorSweepOptions::default()
        };
        let a = supervisor_sweep(&trace, PersistencyModel::Strict, &opts);
        let b = supervisor_sweep(&trace, PersistencyModel::Strict, &opts);
        assert_eq!(a.degraded_runs, b.degraded_runs);
        assert_eq!(a.quarantined_shards, b.quarantined_shards);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.lost_events, b.lost_events);
        assert_eq!(a.faults_injected, b.faults_injected);
    }

    #[test]
    fn zero_wall_clock_truncates_cleanly() {
        let trace = sample_trace(20);
        let opts = SupervisorSweepOptions {
            plans: 50,
            wall_clock: Some(Duration::ZERO),
            ..SupervisorSweepOptions::default()
        };
        let report = supervisor_sweep(&trace, PersistencyModel::Strict, &opts);
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
        let trace = sample_trace(10);
        let opts = SupervisorSweepOptions {
            plans: 4,
            ..SupervisorSweepOptions::default()
        };
        let json = supervisor_sweep(&trace, PersistencyModel::Strict, &opts).to_json();
        assert!(json.starts_with("{\"ok\":"));
        for key in [
            "plans_planned",
            "plans_run",
            "aborts",
            "degraded_runs",
            "quarantined_shards",
            "retries",
            "lost_events",
            "faults_injected",
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
