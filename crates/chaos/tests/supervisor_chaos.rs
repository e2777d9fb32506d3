//! Acceptance sweep for the supervised detection pipeline: hundreds of
//! seeded detector-fault plans (panics, virtual delays, alloc pressure at
//! varied retry/fallback/deadline/budget policies and thread counts) must
//! produce zero process aborts, byte-identical verdicts from fault-free
//! shards, and degradation reports that name every injected casualty.

use pm_chaos::{run_sweep, Suite, SupervisorSweep};
use pm_workloads::{record_trace, BTree, HashmapTx};
use pmdebugger::PersistencyModel;

#[test]
fn two_hundred_fault_plans_zero_aborts_exact_casualties() {
    let trace = record_trace(&BTree::default(), 64);
    let mut sweep = SupervisorSweep::new(
        trace,
        PersistencyModel::Strict,
        Suite::Supervise.default_seed(),
    );
    let report = run_sweep(&mut sweep, 200, None);
    assert!(report.ok(), "sweep failed: {}", report.to_json());
    assert_eq!(report.plans_run, 200, "{}", report.to_json());
    assert_eq!(report.aborts, 0);
    assert!(report.truncations.is_empty(), "{}", report.to_json());
    // The seeded plans must actually exercise the degradation machinery,
    // not just clean runs: some shards die for good, some are retried.
    for counter in [
        "degraded_runs",
        "quarantined_shards",
        "retries",
        "lost_events",
    ] {
        assert!(
            report.counter(counter) > 0,
            "{counter}: {}",
            report.to_json()
        );
    }
}

#[test]
fn epoch_model_sweep_is_clean_too() {
    let trace = record_trace(&HashmapTx::default(), 48);
    let mut sweep = SupervisorSweep::new(trace, PersistencyModel::Epoch, 0xEB0C_4A11);
    let report = run_sweep(&mut sweep, 40, None);
    assert!(report.ok(), "sweep failed: {}", report.to_json());
    assert_eq!(report.plans_run, 40);
}
