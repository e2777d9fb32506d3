//! Crash-point torture campaigns for the PMDebugger reproduction.
//!
//! The paper validates detectors against *known* bug injections (§7.4); this
//! crate turns the question around and stress-tests both the detectors and
//! the recovery story of every workload:
//!
//! * [`Campaign`] replays any [`pm_trace::Trace`] prefix into a simulated
//!   [`pmem_sim::PmPool`], crashes at every fence/flush/store boundary
//!   (exhaustively below a budget threshold, by deterministic seeded
//!   sampling above it), enumerates the post-crash images the hardware
//!   could produce, and runs per-workload recovery validators over each
//!   image. Unrecoverable states come back with a minimized reproducing
//!   trace prefix.
//! * [`perturb`] mutates a clean trace one event at a time — dropped or
//!   duplicated flushes and fences, reordered flush/fence pairs, torn
//!   stores, swapped epoch markers — and cross-checks every injected fault
//!   class against PMDebugger and the pmemcheck/PMTest/XFDetector baselines,
//!   producing a [`SensitivityMatrix`].
//! * [`corrupt`] tortures the ingestion layer itself: it sweeps
//!   deterministic bit-flips, truncations, splices and garbage prefixes
//!   over a trace's serialized v2 binary image and asserts the salvage
//!   reader never panics, always terminates in budget, and recovers every
//!   frame preceding the first corrupted byte (with a sampled detector
//!   differential over the salvaged prefix).
//! * [`supervise`] tortures the detection engine itself: seeded
//!   [`pmdebugger::FaultPlan`]s inject panics, delays and alloc pressure
//!   into the supervised parallel pipeline's workers, and the sweep asserts
//!   zero aborts, byte-identical verdicts from fault-free shards, and
//!   precisely named casualties in every degradation report.
//! * [`thread_crash`] crashes *thread subsets*: seeded plans build
//!   interleaved lock-free traces (Treiber stack, Michael-Scott queue,
//!   CAS-published hash), kill a random set of threads at a crash
//!   boundary, and assert that all four detection engines agree
//!   byte-for-byte on the surviving partial-thread-progress stream, with
//!   zero aborts.
//! * [`daemon_crash`] crashes the *serving daemon*: seeded plans run
//!   keyed (journaled) sessions, kill the server mid-stream — in-process
//!   hard stops over a fault-injecting journal filesystem ([`FaultFs`]:
//!   torn writes, dropped fsyncs, short writes, ENOSPC) or a real
//!   `kill -9` of a `pmdbg serve` subprocess — restart it over the same
//!   journal directory, and assert zero verdict loss, zero duplication,
//!   and byte-identical recovery against an uninterrupted batch run.
//! * [`mem_pressure`] starves the daemon of *memory*: seeded plans inject
//!   a [`pmdebugger::MemGovernor`] with whale-sized sessions over tiny
//!   per-session budgets, herds of small sessions, spill-storm thrash,
//!   failing-allocator vetoes and under-estimate global budgets, then
//!   assert zero aborts, zero verdict divergence against unpressured
//!   batch runs, and exact paused/spilled/rejected accounting.
//! * [`sweep`] is the one driver the six seeded sweeps above run on
//!   ([`corrupt`], [`supervise`], [`serve_sweep`], [`thread_crash`],
//!   [`daemon_crash`], [`mem_pressure`]): a [`Sweep`] derives and runs
//!   plans, and [`run_sweep`] owns the plan loop, the wall clock, panic
//!   catching and the one [`SweepReport`] schema.
//! * Everything degrades gracefully: budgets ([`Budget`]) bound crash
//!   points, images per point, replayed trace length, pool size and wall
//!   clock, and exceeding any of them yields a partial report carrying
//!   explicit [`Truncation`] markers instead of a panic.

pub mod budget;
pub mod corrupt;
pub mod daemon_crash;
pub mod error;
pub mod mem_pressure;
pub mod perturb;
pub mod replay;
pub mod report;
pub mod scheduler;
pub mod serve_sweep;
pub mod supervise;
pub mod sweep;
pub mod thread_crash;
pub mod validate;

pub use budget::{Budget, Truncation};
pub use corrupt::{CorruptionClass, TortureSweep};
pub use daemon_crash::{crash_plan_for, CrashPlan, DaemonCrashSweep, FaultFs, FaultSpec};
pub use error::ChaosError;
pub use mem_pressure::{mem_plan_for, MemPlan, MemPressureSweep};
pub use perturb::{
    apply, perturbations, sensitivity_matrix, ClassRow, FaultClass, Perturbation, SensitivityMatrix,
};
pub use replay::ReplayContext;
pub use report::{CampaignReport, UnrecoverableState};
pub use scheduler::Campaign;
pub use serve_sweep::{plan_for, ServeSweep, SessionPlan};
pub use supervise::SupervisorSweep;
pub use sweep::{run_sweep, PlanLog, Suite, Sweep, SweepReport, SweepViolation};
pub use thread_crash::{crash_threads, ThreadCrashSweep};
pub use validate::{
    semantic_fingerprint, EpochCommitValidator, Fingerprint, RecoveryValidator,
    StrictOverwriteValidator, TxLogValidator, ValidatorSet, Violation,
};
