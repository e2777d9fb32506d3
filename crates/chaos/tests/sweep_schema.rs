//! Every seeded sweep reports through one schema: a small run of each
//! suite must parse with pm-obs's JSON parser, carry the shared top-level
//! fields, and name exactly the suite's counters.

use pm_chaos::{
    run_sweep, CorruptionClass, DaemonCrashSweep, MemPressureSweep, ServeSweep, Suite,
    SupervisorSweep, Sweep, SweepReport, ThreadCrashSweep, TortureSweep,
};
use pm_obs::json::Value;
use pm_workloads::{record_trace, BTree};
use pmdebugger::PersistencyModel;

fn small<S: Sweep>(mut sweep: S) -> SweepReport {
    run_sweep(&mut sweep, 3, None)
}

fn names(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

fn with_plans(mut counters: Vec<String>, plans: &[&str]) -> Vec<String> {
    counters.extend(plans.iter().map(|p| format!("plan.{p}")));
    counters
}

#[test]
fn every_suite_reports_its_counters_in_the_shared_schema() {
    let torture_counters = {
        let mut counters = names(&["pristine_bytes", "pristine_frames"]);
        for class in CorruptionClass::ALL {
            for field in [
                "images",
                "floor_violations",
                "prefix_mismatches",
                "detector_mismatches",
                "differentials",
                "floor_frames",
                "salvaged_frames",
                "rejected",
            ] {
                counters.push(format!("{class}.{field}"));
            }
        }
        counters
    };
    type Runner = Box<dyn Fn() -> SweepReport>;
    let table: Vec<(Suite, Runner, Vec<String>)> = vec![
        (
            Suite::Torture,
            Box::new(|| {
                let trace = record_trace(&BTree::default(), 16);
                small(TortureSweep::new(trace, 1, 3).unwrap())
            }),
            torture_counters,
        ),
        (
            Suite::Supervise,
            Box::new(|| {
                let trace = record_trace(&BTree::default(), 16);
                small(SupervisorSweep::new(trace, PersistencyModel::Strict, 1))
            }),
            names(&[
                "degraded_runs",
                "quarantined_shards",
                "retries",
                "lost_events",
                "faults_injected",
            ]),
        ),
        (
            Suite::Serve,
            Box::new(|| small(ServeSweep::start(2).unwrap())),
            with_plans(
                names(&[
                    "ok_sessions",
                    "quarantined_sessions",
                    "errored_sessions",
                    "shed",
                    "hash_checks",
                    "frames_lost_total",
                    "retries_total",
                ]),
                &[
                    "clean",
                    "truncated_push",
                    "abrupt_disconnect",
                    "corrupt_bit_flip",
                    "corrupt_truncate",
                    "slow_loris",
                    "garbage_tiny",
                    "panic_transient",
                    "panic_permanent",
                    "budget_exceeded",
                    "stats",
                ],
            ),
        ),
        (
            Suite::ThreadCrash,
            Box::new(|| small(ThreadCrashSweep::new(1, 8))),
            names(&["killed_threads", "surviving_events", "reports_agreed"]),
        ),
        (
            Suite::DaemonCrash,
            Box::new(|| small(DaemonCrashSweep::new(2, None))),
            with_plans(
                names(&[
                    "verdicts_lost",
                    "verdicts_duplicated",
                    "replayed_from_ledger",
                    "resumed_from_checkpoint",
                    "torn_discarded_total",
                ]),
                &[
                    "clean_run",
                    "kill_mid_stream",
                    "torn_tail",
                    "dropped_fsync",
                    "short_write",
                    "enospc",
                    "kill9_subprocess",
                ],
            ),
        ),
        (
            Suite::MemPressure,
            Box::new(|| small(MemPressureSweep::new(2))),
            with_plans(
                names(&[
                    "verdict_divergence",
                    "sessions_total",
                    "ok_sessions",
                    "memory_sheds",
                    "spills_total",
                    "rehydrations_total",
                    "rejections_total",
                    "pauses_total",
                    "pause_ms_total",
                ]),
                &[
                    "whale",
                    "many_small",
                    "spill_storm",
                    "reject_storm",
                    "budget_reject",
                ],
            ),
        ),
    ];
    assert_eq!(
        table.iter().map(|(suite, ..)| *suite).collect::<Vec<_>>(),
        Suite::ALL,
        "the table covers every suite"
    );

    for (suite, run, mut expected) in table {
        let report = run();
        let json = Value::parse(&report.to_json())
            .unwrap_or_else(|e| panic!("{suite}: {e}: {}", report.to_json()));
        let top: Vec<&str> = json.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            top,
            [
                "aborts",
                "counters",
                "ok",
                "plans_planned",
                "plans_run",
                "suite",
                "truncations",
                "violations",
                "wall_ms"
            ],
            "{suite}"
        );
        assert_eq!(json.get("ok"), Some(&Value::Bool(true)), "{suite}: {json}");
        assert_eq!(
            json.get("suite").and_then(Value::as_str),
            Some(suite.name())
        );
        assert_eq!(json.get("plans_run").and_then(Value::as_u64), Some(3));
        let mut counters: Vec<String> = json
            .get("counters")
            .and_then(Value::as_obj)
            .unwrap()
            .keys()
            .cloned()
            .collect();
        counters.sort();
        expected.sort();
        assert_eq!(counters, expected, "{suite}");
    }
}
