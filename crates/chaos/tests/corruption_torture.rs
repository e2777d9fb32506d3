//! Acceptance sweep for the corruption-torture harness: at least 500
//! mutated images across all four corruption classes, with zero panics,
//! zero hangs (every image bounded by the per-image deadline), a perfect
//! salvage floor — every frame preceding the first corrupted byte
//! recovered — and detector reports over the salvaged clean prefix
//! identical to replaying that prefix directly.

use std::time::Duration;

use pm_chaos::{run_sweep, CorruptionClass, Suite, SweepReport, TortureSweep};
use pm_trace::Trace;
use pm_workloads::{record_trace, BTree, HashmapAtomic};

fn torture(trace: Trace, seed: u64, plans: usize, wall_clock: Option<Duration>) -> SweepReport {
    let mut sweep = TortureSweep::new(trace, seed, plans).unwrap();
    run_sweep(&mut sweep, plans, wall_clock)
}

#[test]
fn five_hundred_images_uphold_every_invariant() {
    let trace = record_trace(&BTree::default(), 96);
    let report = torture(trace, Suite::Torture.default_seed(), 500, None);
    assert_eq!(
        report.plans_run, 500,
        "125 images per class across 4 classes"
    );
    assert_eq!(report.aborts, 0, "{}", report.to_json());
    assert!(report.ok(), "{}", report.to_json());
    assert!(
        report.truncations.is_empty(),
        "sweep must finish inside the default budget: {:?}",
        report.truncations
    );
    let mut differentials = 0;
    for class in CorruptionClass::ALL {
        let stat = |field: &str| report.counter(&format!("{class}.{field}"));
        assert_eq!(stat("images"), 125, "{class} ran every image");
        assert_eq!(
            stat("floor_violations"),
            0,
            "{class} lost pre-corruption frames"
        );
        assert_eq!(
            stat("prefix_mismatches"),
            0,
            "{class} altered salvaged events"
        );
        assert_eq!(
            stat("detector_mismatches"),
            0,
            "{class} detector differential"
        );
        assert!(
            stat("salvaged_frames") >= stat("floor_frames"),
            "{class} salvaged {} < floor {}",
            stat("salvaged_frames"),
            stat("floor_frames")
        );
        differentials += stat("differentials");
    }
    // The detector differential actually exercised something: at least one
    // class ran sampled differentials over non-empty prefixes.
    assert!(differentials > 0, "{}", report.to_json());
}

#[test]
fn torture_is_deterministic_per_seed_and_workload() {
    let trace = record_trace(&HashmapAtomic::default(), 48);
    let a = torture(trace.clone(), 0xDEAD_BEEF, 100, None);
    let b = torture(trace, 0xDEAD_BEEF, 100, None);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.plans_run, 100);
    assert!(a.ok(), "{}", a.to_json());
}

#[test]
fn starved_wall_clock_truncates_instead_of_hanging() {
    let trace = record_trace(&BTree::default(), 64);
    let report = torture(trace, 1, 500, Some(Duration::from_millis(0)));
    assert!(
        !report.truncations.is_empty(),
        "zero wall clock must surface a truncation marker"
    );
    assert!(
        report.plans_run < 500,
        "starved sweep stops early, got {}",
        report.plans_run
    );
    assert!(report.ok(), "partial results stay violation-free");
}

#[test]
fn every_class_is_reachable_by_name() {
    let names: Vec<&str> = CorruptionClass::ALL.iter().map(|c| c.name()).collect();
    assert_eq!(
        names,
        ["bit_flip", "truncate", "splice", "garbage_prefix"],
        "stable names feed the report's counters"
    );
}
