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
//!   by panic (the sweep driver runs each plan behind its own
//!   `catch_unwind`, so an abort is counted, not fatal to the sweep);
//! * **fault-free shards are byte-identical**: the surviving verdicts
//!   equal [`pmdebugger::expected_surviving_reports`] — the sequential
//!   reports owned by surviving shards, in sequential order;
//! * **casualties are named precisely**: the quarantined shard set and the
//!   lost-event total match [`pmdebugger::FaultPlan::dooms`]' prediction
//!   exactly, per plan.

use std::fmt;
use std::time::Duration;

use pm_trace::{splitmix64, BugReport, Detector, Trace};
use pmdebugger::{
    detect_supervised, expected_surviving_reports, DebuggerConfig, FailMode, FaultPlan,
    ParallelConfig, PersistencyModel, PmDebugger, SupervisorConfig,
};

use crate::sweep::{PlanLog, Suite, Sweep};

/// Worker-thread counts cycled across plans.
const THREAD_CYCLE: [usize; 4] = [2, 3, 4, 8];

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

/// One detector-fault plan: a supervision policy and the seeded faults
/// injected at a thread count.
pub struct FaultRun {
    threads: usize,
    plan_seed: u64,
    sup: SupervisorConfig,
    faults: FaultPlan,
}

impl fmt::Display for FaultRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {}, {} threads", self.plan_seed, self.threads)
    }
}

/// Runs seeded detector-fault plans against one trace under one
/// persistency model, checking the supervisor's full contract per plan
/// (see the module docs).
pub struct SupervisorSweep {
    trace: Trace,
    config: DebuggerConfig,
    sequential: Vec<BugReport>,
    state: u64,
}

impl SupervisorSweep {
    /// A sweep over `trace` under `model`, its plans derived from `seed`.
    pub fn new(trace: Trace, model: PersistencyModel, seed: u64) -> SupervisorSweep {
        let config = DebuggerConfig::for_model(model);
        let sequential = sequential_reports(&config, &trace);
        SupervisorSweep {
            trace,
            config,
            sequential,
            state: seed ^ 0xC0FF_EE00_D15E_A5ED,
        }
    }
}

impl Sweep for SupervisorSweep {
    type Plan = FaultRun;
    const SUITE: Suite = Suite::Supervise;

    fn counters(&self) -> Vec<String> {
        [
            "degraded_runs",
            "quarantined_shards",
            "retries",
            "lost_events",
            "faults_injected",
        ]
        .map(String::from)
        .to_vec()
    }

    fn next_plan(&mut self, index: usize) -> FaultRun {
        let threads = THREAD_CYCLE[index % THREAD_CYCLE.len()];
        let sup = derive_policy(&mut self.state);
        let plan_seed = splitmix64(&mut self.state);
        let faults = FaultPlan::seeded(plan_seed, threads, sup.total_attempts());
        FaultRun {
            threads,
            plan_seed,
            sup,
            faults,
        }
    }

    fn run(&mut self, plan: &FaultRun, log: &mut PlanLog) {
        let FaultRun {
            threads,
            ref sup,
            ref faults,
            ..
        } = *plan;
        log.add("faults_injected", faults.faults().len() as u64);
        let result = match detect_supervised(
            &self.config,
            &ParallelConfig::with_threads(threads),
            sup,
            Some(faults),
            &self.trace,
        ) {
            Ok(result) => result,
            Err(err) => {
                log.violation(
                    "typed-error-in-degrade-mode",
                    format!("degrade mode returned an error: {err}"),
                );
                return;
            }
        };

        // Casualty precision: quarantined set == the oracle's prediction.
        let doomed = faults.doomed_workers(threads, sup);
        let quarantined: Vec<u32> = result
            .degraded
            .as_ref()
            .map(|d| d.quarantined.iter().map(|q| q.worker).collect())
            .unwrap_or_default();
        if quarantined != doomed {
            log.violation(
                "casualty-mismatch",
                format!("quarantined {quarantined:?}, predicted {doomed:?}"),
            );
        }

        // Lost-event accounting matches the plan ledger exactly.
        let predicted_lost: u64 = doomed
            .iter()
            .filter_map(|&w| result.plan.worker_loads().get(w as usize))
            .sum();
        let reported_lost = result.degraded.as_ref().map_or(0, |d| d.lost_events);
        if reported_lost != predicted_lost {
            log.violation(
                "lost-event-mismatch",
                format!("reported {reported_lost} lost events, predicted {predicted_lost}"),
            );
        }

        // Fault-free shards byte-identical to sequential (and with no
        // casualties the whole verdict set must match exactly).
        let expected = expected_surviving_reports(&self.sequential, &result.plan, &doomed, threads);
        if result.outcome.reports != expected {
            log.violation(
                "survivor-divergence",
                format!(
                    "surviving reports diverged: got {}, expected {} (doomed {doomed:?})",
                    result.outcome.reports.len(),
                    expected.len()
                ),
            );
        }

        log.add("degraded_runs", u64::from(result.is_degraded()));
        log.add("quarantined_shards", quarantined.len() as u64);
        log.add("retries", result.retries);
        log.add("lost_events", reported_lost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepReport};
    use pm_workloads::{record_trace, BTree};

    fn sample_trace(ops: usize) -> Trace {
        record_trace(&BTree::default(), ops)
    }

    fn sweep(ops: usize, plans: usize) -> SweepReport {
        let mut sweep = SupervisorSweep::new(
            sample_trace(ops),
            PersistencyModel::Strict,
            Suite::Supervise.default_seed(),
        );
        run_sweep(&mut sweep, plans, None)
    }

    #[test]
    fn small_sweep_is_clean_and_injects_faults() {
        let report = sweep(40, 24);
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.plans_run, 24);
        assert_eq!(report.aborts, 0);
        assert!(
            report.counter("faults_injected") > 0,
            "sweep injected nothing"
        );
        // Roughly half the workers per plan carry faults; across 24 varied
        // plans some shard must actually have been lost and some retried.
        assert!(report.counter("degraded_runs") > 0, "{}", report.to_json());
        assert!(report.counter("retries") > 0, "{}", report.to_json());
    }

    #[test]
    fn sweeps_are_deterministic_for_a_seed() {
        assert_eq!(sweep(30, 12).counters, sweep(30, 12).counters);
    }
}
