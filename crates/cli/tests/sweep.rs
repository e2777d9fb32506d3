//! `pmdbg sweep` end to end: the exit code carries the gate, and the
//! deterministic suites still derive exactly the plans they always did.
//!
//! The pinned counter values below were produced by the sweeps' earlier
//! per-suite entry points (`pmdbg torture --images 10`, `pmdbg supervise
//! --plans 12`, `pmdbg chaos --thread-crash --plans 9 --ops 24`) before
//! they moved onto the shared sweep driver. Any change to how a plan is
//! derived from its seed shows up here as a counter mismatch.

use std::process::Command;

use pm_obs::json::Value;

const BTREE_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/btree_96.pmt2"
);

/// Runs `pmdbg sweep <args> --json`, returning the exit code and the
/// parsed report.
fn sweep(args: &[&str]) -> (i32, Value) {
    let output = Command::new(env!("CARGO_BIN_EXE_pmdbg"))
        .arg("sweep")
        .args(args)
        .arg("--json")
        .output()
        .expect("spawn pmdbg");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    let report = Value::parse(stdout.trim())
        .unwrap_or_else(|e| panic!("{e}: {stdout}\n{}", String::from_utf8_lossy(&output.stderr)));
    (output.status.code().expect("exit code"), report)
}

fn field(report: &Value, key: &str) -> u64 {
    report
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no {key} in {report}"))
}

/// Asserts a clean, complete run with exactly these counters.
fn assert_counters(code: i32, report: &Value, plans: u64, expected: &[(&str, u64)]) {
    assert_eq!(code, 0, "{report}");
    assert_eq!(report.get("ok"), Some(&Value::Bool(true)), "{report}");
    assert_eq!(field(report, "plans_run"), plans, "{report}");
    assert_eq!(field(report, "aborts"), 0, "{report}");
    let counters = report.get("counters").and_then(Value::as_obj).unwrap();
    let actual: Vec<(&str, u64)> = counters
        .iter()
        .map(|(name, value)| (name.as_str(), value.as_u64().unwrap()))
        .collect();
    let mut expected = expected.to_vec();
    expected.sort();
    assert_eq!(actual, expected);
}

#[test]
fn zero_budget_exits_degraded_with_no_plans_run() {
    let (code, report) = sweep(&["thread-crash", "--plans", "5", "--budget-ms", "0"]);
    assert_eq!(
        code, 4,
        "clean but truncated is the degraded exit: {report}"
    );
    assert_eq!(report.get("ok"), Some(&Value::Bool(true)), "{report}");
    assert_eq!(field(&report, "plans_run"), 0);
    assert_eq!(field(&report, "plans_planned"), 5);
    let truncations = report.get("truncations").and_then(Value::as_arr).unwrap();
    assert_eq!(truncations.len(), 1, "{report}");
}

#[test]
fn clean_small_sweep_exits_zero() {
    let (code, report) = sweep(&["mem-pressure", "--plans", "3"]);
    assert_eq!(code, 0, "{report}");
    assert_eq!(report.get("ok"), Some(&Value::Bool(true)), "{report}");
    assert_eq!(
        report.get("suite").and_then(Value::as_str),
        Some("mem-pressure")
    );
    assert_eq!(field(&report, "plans_run"), 3);
}

#[test]
fn torture_plans_match_the_pinned_counters() {
    let (code, report) = sweep(&[
        "torture",
        "--trace",
        BTREE_FIXTURE,
        "--plans",
        "40",
        "--seed",
        "806405",
    ]);
    let mut expected = vec![("pristine_bytes", 54955), ("pristine_frames", 2954)];
    // (class, differentials, floor_frames, salvaged_frames); every class
    // ran 10 images with no violations and no rejected images.
    let per_class: [(&'static str, u64, u64, u64); 4] = [
        ("bit_flip", 2, 15550, 29530),
        ("truncate", 2, 9221, 9221),
        ("splice", 2, 9998, 29524),
        ("garbage_prefix", 0, 0, 29540),
    ];
    let names: Vec<[String; 8]> = per_class
        .iter()
        .map(|(class, ..)| {
            [
                "images",
                "floor_violations",
                "prefix_mismatches",
                "detector_mismatches",
                "differentials",
                "floor_frames",
                "salvaged_frames",
                "rejected",
            ]
            .map(|field| format!("{class}.{field}"))
        })
        .collect();
    for ((_, differentials, floor, salvaged), names) in per_class.iter().zip(&names) {
        let values = [10, 0, 0, 0, *differentials, *floor, *salvaged, 0];
        expected.extend(names.iter().map(String::as_str).zip(values));
    }
    assert_counters(code, &report, 40, &expected);
}

#[test]
fn supervise_plans_match_the_pinned_counters() {
    let (code, report) = sweep(&[
        "supervise",
        "--workload",
        "hashmap_atomic",
        "--ops",
        "64",
        "--plans",
        "12",
    ]);
    assert_counters(
        code,
        &report,
        12,
        &[
            ("degraded_runs", 4),
            ("faults_injected", 45),
            ("lost_events", 194),
            ("quarantined_shards", 6),
            ("retries", 11),
        ],
    );
}

#[test]
fn thread_crash_plans_match_the_pinned_counters() {
    let (code, report) = sweep(&["thread-crash", "--plans", "9", "--ops", "24"]);
    assert_counters(
        code,
        &report,
        9,
        &[
            ("killed_threads", 26),
            ("reports_agreed", 24),
            ("surviving_events", 4898),
        ],
    );
}
