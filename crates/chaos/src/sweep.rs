//! One driver for the seeded chaos sweeps.
//!
//! Every sweep in this crate has the same shape: derive plan `i` from a
//! seeded state, run it against fixed inputs (a trace, a live server, a
//! fixture), check its oracles, and tally named counters. A [`Sweep`]
//! supplies only those parts. [`run_sweep`] owns the rest once: the plan
//! loop, the wall-clock [`Truncation`], one `catch_unwind` per plan (an
//! escaped panic counts as an abort and the sweep goes on), the verdict,
//! and the one [`SweepReport`] schema with its JSON and text renderings.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use pm_obs::json::escape;

use crate::budget::{Truncation, WallClock};

/// The six seeded sweeps, with the defaults `pmdbg sweep` runs them at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Corruption of a trace's v2 image against the salvage reader
    /// ([`crate::TortureSweep`]).
    Torture,
    /// Detector faults in the supervised parallel pipeline
    /// ([`crate::SupervisorSweep`]).
    Supervise,
    /// Hostile clients against a live server ([`crate::ServeSweep`]).
    Serve,
    /// Thread subsets killed mid-protocol ([`crate::ThreadCrashSweep`]).
    ThreadCrash,
    /// The serving daemon killed mid-stream ([`crate::DaemonCrashSweep`]).
    DaemonCrash,
    /// A governed server starved of memory ([`crate::MemPressureSweep`]).
    MemPressure,
}

impl Suite {
    /// Every suite, in `pmdbg sweep`'s usage order.
    pub const ALL: [Suite; 6] = [
        Suite::Torture,
        Suite::Supervise,
        Suite::Serve,
        Suite::ThreadCrash,
        Suite::DaemonCrash,
        Suite::MemPressure,
    ];

    /// The suite's command-line name (also the report's `suite`).
    pub fn name(self) -> &'static str {
        match self {
            Suite::Torture => "torture",
            Suite::Supervise => "supervise",
            Suite::Serve => "serve",
            Suite::ThreadCrash => "thread-crash",
            Suite::DaemonCrash => "daemon-crash",
            Suite::MemPressure => "mem-pressure",
        }
    }

    /// Looks a suite up by its command-line name.
    pub fn from_name(name: &str) -> Option<Suite> {
        Suite::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Plans run when none are given.
    pub fn default_plans(self) -> usize {
        match self {
            Suite::Torture => 500,
            Suite::Supervise | Suite::Serve => 200,
            Suite::ThreadCrash | Suite::DaemonCrash | Suite::MemPressure => 100,
        }
    }

    /// Seed used when none is given.
    pub fn default_seed(self) -> u64 {
        match self {
            Suite::Torture => 0xC4A05,
            Suite::Supervise => 0x5AFE_0001,
            Suite::Serve => 0x5E55_1085,
            Suite::ThreadCrash | Suite::DaemonCrash | Suite::MemPressure => 0x7C4A_5AD0,
        }
    }

    /// Default operation count for suites that record their own traces
    /// (`None`: the suite takes no `--ops`).
    pub fn default_ops(self) -> Option<usize> {
        match self {
            Suite::Torture => Some(256),
            Suite::Supervise => Some(64),
            Suite::ThreadCrash => Some(24),
            Suite::Serve | Suite::DaemonCrash | Suite::MemPressure => None,
        }
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded chaos sweep: its fixed inputs live in the implementing value
/// (built by the suite's constructor), and [`run_sweep`] drives it.
pub trait Sweep {
    /// Everything [`Sweep::run`] needs for one plan; its `Display` is the
    /// plan label violations carry.
    type Plan: fmt::Display;

    /// Which suite this is.
    const SUITE: Suite;

    /// Counter names reported even when zero, so a report's schema does
    /// not depend on which plans ran.
    fn counters(&self) -> Vec<String>;

    /// Derives plan `index`. Called once per index, in order, so a sweep
    /// may advance its own seeded state here.
    fn next_plan(&mut self, index: usize) -> Self::Plan;

    /// Runs one plan, recording counters and broken invariants in `log`.
    fn run(&mut self, plan: &Self::Plan, log: &mut PlanLog);

    /// Tears down shared inputs after the last plan (a live server's
    /// final accounting, say).
    fn finish(&mut self, _log: &mut PlanLog) {}
}

/// One broken invariant, with the plan that broke it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepViolation {
    /// Index of the plan within the sweep.
    pub plan_index: usize,
    /// The plan's label (enough to replay it).
    pub plan: String,
    /// Which invariant broke.
    pub kind: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

/// What plans record: named counters, broken invariants and aborts, each
/// violation stamped with the plan being run.
#[derive(Debug, Default)]
pub struct PlanLog {
    plan_index: usize,
    plan: String,
    aborts: u64,
    counters: BTreeMap<String, u64>,
    violations: Vec<SweepViolation>,
}

impl PlanLog {
    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_owned()).or_default() += n;
    }

    /// Records a broken invariant of the current plan.
    pub fn violation(&mut self, kind: &'static str, detail: impl Into<String>) {
        self.violations.push(SweepViolation {
            plan_index: self.plan_index,
            plan: self.plan.clone(),
            kind,
            detail: detail.into(),
        });
    }

    /// Records `count` aborts (process- or server-level panics) together
    /// with the violation that names them.
    pub fn abort(&mut self, count: u64, kind: &'static str, detail: impl Into<String>) {
        self.aborts += count;
        self.violation(kind, detail);
    }
}

/// Outcome of one sweep, in the schema every suite shares.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Which suite ran.
    pub suite: Suite,
    /// Plans the sweep was asked to run.
    pub plans_planned: usize,
    /// Plans actually run (less than planned only under truncation).
    pub plans_run: usize,
    /// Escaped panics and server host panics — must be 0.
    pub aborts: u64,
    /// Sweep wall time in milliseconds.
    pub wall_ms: u128,
    /// The suite's named counters.
    pub counters: BTreeMap<String, u64>,
    /// Every broken invariant.
    pub violations: Vec<SweepViolation>,
    /// Budget bounds that were hit.
    pub truncations: Vec<Truncation>,
}

impl SweepReport {
    /// The sweep's verdict: no aborts and no broken invariants. A
    /// truncated sweep can still be ok.
    pub fn ok(&self) -> bool {
        self.aborts == 0 && self.violations.is_empty()
    }

    /// Counter `name` (0 when the suite has no such counter).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Serializes the report as one JSON object.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, value)| format!("{}:{value}", escape(name)))
            .collect();
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                format!(
                    "{{\"plan_index\":{},\"plan\":{},\"kind\":{},\"detail\":{}}}",
                    v.plan_index,
                    escape(&v.plan),
                    escape(v.kind),
                    escape(&v.detail)
                )
            })
            .collect();
        let truncations: Vec<String> = self
            .truncations
            .iter()
            .map(|t| escape(&t.to_string()))
            .collect();
        format!(
            "{{\"ok\":{},\"suite\":{},\"plans_planned\":{},\"plans_run\":{},\"aborts\":{},\
             \"wall_ms\":{},\"counters\":{{{}}},\"violations\":[{}],\"truncations\":[{}]}}",
            self.ok(),
            escape(self.suite.name()),
            self.plans_planned,
            self.plans_run,
            self.aborts,
            self.wall_ms,
            counters.join(","),
            violations.join(","),
            truncations.join(","),
        )
    }
}

/// The human summary: a verdict line, then counters, violations and
/// truncations, one per line.
impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {}/{} plan(s), {} abort(s) in {} ms -> {}",
            self.suite,
            self.plans_run,
            self.plans_planned,
            self.aborts,
            self.wall_ms,
            if self.ok() { "OK" } else { "VIOLATIONS" },
        )?;
        for (name, value) in &self.counters {
            writeln!(f, "  {name}: {value}")?;
        }
        for v in &self.violations {
            writeln!(
                f,
                "  violation [{}] plan {} ({}): {}",
                v.kind, v.plan_index, v.plan, v.detail
            )?;
        }
        for truncation in &self.truncations {
            writeln!(f, "  truncated: {truncation}")?;
        }
        Ok(())
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Runs up to `plans` plans of `sweep`, stopping early with a
/// [`Truncation::WallClockExpired`] once `wall_clock` has passed. Never
/// panics: a plan (or the teardown) that panics counts as one abort.
pub fn run_sweep<S: Sweep>(
    sweep: &mut S,
    plans: usize,
    wall_clock: Option<Duration>,
) -> SweepReport {
    let clock = WallClock::start(wall_clock);
    let mut log = PlanLog::default();
    for name in sweep.counters() {
        log.counters.insert(name, 0);
    }
    let mut truncations = Vec::new();
    let mut plans_run = 0;
    for index in 0..plans {
        if clock.expired() {
            truncations.push(Truncation::WallClockExpired {
                tested: index,
                total: plans,
            });
            break;
        }
        let plan = sweep.next_plan(index);
        log.plan_index = index;
        log.plan = plan.to_string();
        plans_run += 1;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| sweep.run(&plan, &mut log))) {
            log.abort(1, "abort", panic_message(payload.as_ref()));
        }
    }
    log.plan_index = plans_run;
    log.plan = "teardown".to_owned();
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| sweep.finish(&mut log))) {
        log.abort(1, "abort", panic_message(payload.as_ref()));
    }
    SweepReport {
        suite: S::SUITE,
        plans_planned: plans,
        plans_run,
        aborts: log.aborts,
        wall_ms: clock.elapsed_ms(),
        counters: log.counters,
        violations: log.violations,
        truncations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_obs::json::Value;

    /// A sweep whose plans panic or break an invariant on request.
    struct Fake {
        panic_at: Option<usize>,
        violate_at: Option<usize>,
        finished: bool,
    }

    impl Sweep for Fake {
        type Plan = usize;
        const SUITE: Suite = Suite::Torture;

        fn counters(&self) -> Vec<String> {
            vec!["ran".to_owned(), "never".to_owned()]
        }

        fn next_plan(&mut self, index: usize) -> usize {
            index * 10
        }

        fn run(&mut self, plan: &usize, log: &mut PlanLog) {
            if Some(*plan / 10) == self.panic_at {
                panic!("plan {plan} blew up");
            }
            if Some(*plan / 10) == self.violate_at {
                log.violation("fake-oracle", "broke \"on purpose\"\n");
            }
            log.add("ran", 1);
        }

        fn finish(&mut self, _log: &mut PlanLog) {
            self.finished = true;
        }
    }

    fn fake(panic_at: Option<usize>, violate_at: Option<usize>) -> Fake {
        Fake {
            panic_at,
            violate_at,
            finished: false,
        }
    }

    #[test]
    fn a_panicking_plan_is_one_abort_and_later_plans_still_run() {
        let mut sweep = fake(Some(2), None);
        let report = run_sweep(&mut sweep, 6, None);
        assert_eq!(report.aborts, 1);
        assert_eq!(report.plans_run, 6);
        assert_eq!(report.counter("ran"), 5, "every other plan ran");
        assert!(sweep.finished);
        assert!(!report.ok());
        let abort = &report.violations[0];
        assert_eq!((abort.plan_index, abort.kind), (2, "abort"));
        assert!(abort.detail.contains("plan 20 blew up"), "{abort:?}");
    }

    #[test]
    fn a_violation_carries_its_plan_index_and_label() {
        let report = run_sweep(&mut fake(None, Some(3)), 5, None);
        assert_eq!(report.aborts, 0);
        assert!(!report.ok());
        assert_eq!(
            report.violations,
            vec![SweepViolation {
                plan_index: 3,
                plan: "30".to_owned(),
                kind: "fake-oracle",
                detail: "broke \"on purpose\"\n".to_owned(),
            }]
        );
    }

    #[test]
    fn zero_wall_clock_truncates_cleanly() {
        let mut sweep = fake(Some(0), None);
        let report = run_sweep(&mut sweep, 50, Some(Duration::ZERO));
        assert_eq!(report.plans_run, 0);
        assert_eq!(
            report.truncations,
            vec![Truncation::WallClockExpired {
                tested: 0,
                total: 50
            }]
        );
        assert!(report.ok(), "truncation alone is not a violation");
        assert!(sweep.finished, "teardown runs on a truncated sweep too");
        assert_eq!(report.counter("ran"), 0);
        assert!(report.counters.contains_key("never"));
    }

    #[test]
    fn json_parses_and_ok_is_the_top_level_verdict() {
        for (violate_at, ok) in [(None, true), (Some(1), false)] {
            let report = run_sweep(&mut fake(None, violate_at), 3, None);
            let json = Value::parse(&report.to_json()).expect("report JSON parses");
            assert_eq!(json.get("ok"), Some(&Value::Bool(ok)), "{json}");
            assert_eq!(json.get("suite").and_then(Value::as_str), Some("torture"));
            assert_eq!(json.get("plans_run").and_then(Value::as_u64), Some(3));
            assert_eq!(json.get("aborts").and_then(Value::as_u64), Some(0));
            let counters = json.get("counters").and_then(Value::as_obj).unwrap();
            assert_eq!(counters["ran"].as_u64(), Some(3));
            assert_eq!(counters["never"].as_u64(), Some(0));
            let violations = json.get("violations").and_then(Value::as_arr).unwrap();
            assert_eq!(violations.len(), usize::from(!ok));
            if let Some(v) = violations.first() {
                assert_eq!(v.get("plan_index").and_then(Value::as_u64), Some(1));
                assert_eq!(v.get("plan").and_then(Value::as_str), Some("10"));
                assert_eq!(
                    v.get("detail").and_then(Value::as_str),
                    Some("broke \"on purpose\"\n")
                );
            }
        }
    }

    #[test]
    fn suite_names_round_trip() {
        for suite in Suite::ALL {
            assert_eq!(Suite::from_name(suite.name()), Some(suite));
        }
        assert_eq!(Suite::from_name("all"), None);
    }
}
