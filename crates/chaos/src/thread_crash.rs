//! Thread-crash chaos sweep for the concurrent lock-free workloads.
//!
//! Real PM crash images rarely catch every thread at a quiescent point: a
//! power failure lands while some threads are mid-publication. Following
//! Memento-style thread-crash stress (§6.1), each seeded plan here builds
//! an interleaved multi-thread trace from one of the concurrent lock-free
//! workloads, picks a crash boundary, kills a random thread subset at
//! that boundary, and keeps only the survivors' events afterwards — a
//! crash image covering *partial-thread progress*, where killed threads
//! stop mid-protocol (stores flushed but never fenced, nodes published
//! but never persisted, and so on).
//!
//! Each truncated stream then runs through all four detection engines —
//! sequential, parallel, supervised and the streaming session (with a
//! checkpoint/resume mid-stream) — under two oracles:
//!
//! * **zero aborts**: every plan runs behind the sweep driver's
//!   `catch_unwind`; an escaped panic is counted, never fatal to the
//!   sweep;
//! * **survivor divergence**: all four engines must produce byte-identical
//!   reports ([`pm_trace::report_hash`]) on the survivor stream. Killed
//!   threads may legitimately leave bugs behind — the invariant is that
//!   every engine sees *the same* bugs.

use std::fmt;

use pm_trace::{report_hash, splitmix64, BugReport, Detector, PmEvent, Trace};
use pm_workloads::{
    concurrent_multithread_trace, CasHash, ConcurrentWorkload, MsQueue, TreiberStack,
};
use pmdebugger::{
    detect_parallel_from, detect_supervised_from, DebuggerConfig, DetectSession, ParallelConfig,
    PersistencyModel, PmDebugger, SupervisorConfig,
};

use crate::sweep::{PlanLog, Suite, Sweep};

/// Worker-thread widths cycled across plans.
const THREAD_CYCLE: [usize; 3] = [2, 4, 8];

/// The workload plan `index` exercises (cycled over the three lock-free
/// structures, each reseeded per plan).
fn workload_for(index: usize, seed: u64) -> Box<dyn ConcurrentWorkload> {
    match index % 3 {
        0 => Box::new(TreiberStack::new(seed)),
        1 => Box::new(MsQueue::new(seed)),
        _ => Box::new(CasHash::new(seed)),
    }
}

/// Applies a thread crash to `trace`: events before `boundary` happened
/// on every thread; after it, only `survivors`' events (and thread-less
/// events) remain.
pub fn crash_threads(trace: &Trace, boundary: usize, killed: &[u32]) -> Vec<PmEvent> {
    let boundary = boundary.min(trace.len());
    let mut out: Vec<PmEvent> = trace.events()[..boundary].to_vec();
    for event in &trace.events()[boundary..] {
        match event.tid() {
            Some(tid) if killed.contains(&tid.0) => {}
            _ => out.push(event.clone()),
        }
    }
    out
}

fn sequential_reports(config: &DebuggerConfig, events: &[PmEvent]) -> Vec<BugReport> {
    let mut det = PmDebugger::new(config.clone());
    for (seq, event) in events.iter().enumerate() {
        det.on_event(seq as u64, event);
    }
    det.finish()
}

/// Streaming-session reports over three chunks with a checkpoint/resume
/// between the first two — the crash image flows through the exact code a
/// long-lived detection service runs.
fn session_reports(config: &DebuggerConfig, events: &[PmEvent]) -> Vec<BugReport> {
    let third = events.len() / 3;
    let mut reports = Vec::new();
    let mut session = DetectSession::new(config.clone());
    reports.extend(session.feed(&events[..third]));
    let mut session = DetectSession::resume(session.checkpoint());
    reports.extend(session.feed(&events[third..2 * third]));
    reports.extend(session.feed(&events[2 * third..]));
    reports.extend(session.finish());
    reports
}

/// One thread-crash plan: a lock-free workload's interleaved trace,
/// crashed with `killed` threads dead after a boundary.
pub struct ThreadCrash {
    workload: &'static str,
    plan_seed: u64,
    threads: usize,
    killed: Vec<u32>,
    events: Vec<PmEvent>,
}

impl fmt::Display for ThreadCrash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}, seed {}, {} threads, killed {:?}",
            self.workload, self.plan_seed, self.threads, self.killed
        )
    }
}

/// Runs seeded thread-crash plans, checking the zero-abort and
/// survivor-divergence oracles per plan (see the module docs).
pub struct ThreadCrashSweep {
    config: DebuggerConfig,
    ops_per_thread: usize,
    state: u64,
}

impl ThreadCrashSweep {
    /// A sweep whose plans derive from `seed`, each worker thread running
    /// `ops_per_thread` operations.
    pub fn new(seed: u64, ops_per_thread: usize) -> ThreadCrashSweep {
        ThreadCrashSweep {
            config: DebuggerConfig::for_model(PersistencyModel::Strict),
            ops_per_thread,
            state: seed ^ 0x7D_C4A5_4D00_D15E,
        }
    }
}

impl Sweep for ThreadCrashSweep {
    type Plan = ThreadCrash;
    const SUITE: Suite = Suite::ThreadCrash;

    fn counters(&self) -> Vec<String> {
        ["killed_threads", "surviving_events", "reports_agreed"]
            .map(String::from)
            .to_vec()
    }

    fn next_plan(&mut self, index: usize) -> ThreadCrash {
        let threads = THREAD_CYCLE[index % THREAD_CYCLE.len()];
        let plan_seed = splitmix64(&mut self.state);
        let workload = workload_for(index, plan_seed);
        let trace = concurrent_multithread_trace(
            workload.as_ref(),
            threads,
            self.ops_per_thread,
            plan_seed,
            4,
        );

        // Crash boundary anywhere in the stream; kill 1..=threads workers.
        let boundary = (splitmix64(&mut self.state) as usize) % (trace.len() + 1);
        let kill_count = (splitmix64(&mut self.state) as usize) % threads + 1;
        let mut killed: Vec<u32> = Vec::with_capacity(kill_count);
        while killed.len() < kill_count {
            let victim = (splitmix64(&mut self.state) as usize % threads) as u32;
            if !killed.contains(&victim) {
                killed.push(victim);
            }
        }
        killed.sort_unstable();
        ThreadCrash {
            workload: workload.name(),
            plan_seed,
            threads,
            events: crash_threads(&trace, boundary, &killed),
            killed,
        }
    }

    fn run(&mut self, plan: &ThreadCrash, log: &mut PlanLog) {
        let config = &self.config;
        let events = &plan.events;
        log.add("killed_threads", plan.killed.len() as u64);
        log.add("surviving_events", events.len() as u64);

        let sequential = sequential_reports(config, events);
        let par = ParallelConfig::with_threads(plan.threads.min(pmdebugger::MAX_THREADS));
        let parallel = detect_parallel_from(config, &par, events, 0).reports;
        let supervised =
            detect_supervised_from(config, &par, &SupervisorConfig::default(), None, events, 0)
                .map(|outcome| outcome.outcome.reports);
        let session = session_reports(config, events);

        let baseline = report_hash(&sequential);
        let engines: [(&'static str, Option<u64>); 3] = [
            ("parallel", Some(report_hash(&parallel))),
            (
                "supervised",
                supervised.as_ref().ok().map(|r| report_hash(r)),
            ),
            ("session", Some(report_hash(&session))),
        ];
        for (engine, hash) in engines {
            match hash {
                Some(h) if h == baseline => {}
                Some(h) => log.violation(
                    "survivor-divergence",
                    format!(
                        "{engine} diverged from sequential on the survivor stream \
                         ({h:#018x} != {baseline:#018x}, {} sequential reports)",
                        sequential.len()
                    ),
                ),
                None => log.violation(
                    "survivor-divergence",
                    format!(
                        "{engine} returned an error on the survivor stream: {:?}",
                        supervised.as_ref().err()
                    ),
                ),
            }
        }
        log.add("reports_agreed", sequential.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepReport};

    fn sweep(ops_per_thread: usize, plans: usize) -> SweepReport {
        let mut sweep = ThreadCrashSweep::new(Suite::ThreadCrash.default_seed(), ops_per_thread);
        run_sweep(&mut sweep, plans, None)
    }

    #[test]
    fn small_sweep_is_clean_and_kills_threads() {
        let report = sweep(12, 12);
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.plans_run, 12);
        assert_eq!(report.aborts, 0);
        assert!(report.counter("killed_threads") >= 12);
        assert!(report.counter("surviving_events") > 0);
    }

    #[test]
    fn sweeps_are_deterministic_for_a_seed() {
        assert_eq!(sweep(10, 6).counters, sweep(10, 6).counters);
    }

    #[test]
    fn crash_preserves_prefix_and_filters_suffix() {
        let workload = TreiberStack::new(1);
        let trace = concurrent_multithread_trace(&workload, 2, 10, 1, 4);
        let boundary = trace.len() / 2;
        let events = crash_threads(&trace, boundary, &[1]);
        assert_eq!(&events[..boundary], &trace.events()[..boundary]);
        assert!(events[boundary..]
            .iter()
            .all(|e| e.tid().map(|t| t.0) != Some(1)));
        assert!(events.len() < trace.len());
    }

    #[test]
    fn partial_thread_progress_can_leave_bugs_every_engine_agrees_on() {
        // Killing a thread right after a flush (before its fence) leaves a
        // no-durability residual; the sweep's invariant is agreement, so a
        // clean report here must also come with surviving bugs somewhere
        // across seeds. Find one seed that produces reports.
        let config = DebuggerConfig::for_model(PersistencyModel::Strict);
        let mut found = false;
        for seed in 0..20u64 {
            let workload = TreiberStack::new(seed);
            let trace = concurrent_multithread_trace(&workload, 2, 10, seed, 4);
            for boundary in [trace.len() / 3, trace.len() / 2, 2 * trace.len() / 3] {
                let events = crash_threads(&trace, boundary, &[0]);
                if !sequential_reports(&config, &events).is_empty() {
                    found = true;
                }
            }
        }
        assert!(found, "no crash point ever left a residual bug");
    }
}
