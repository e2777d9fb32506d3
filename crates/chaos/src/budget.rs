//! Resource budgets and truncation reporting.
//!
//! A torture campaign is combinatorial in three directions at once — crash
//! points × post-crash images × validators — so every axis is bounded and
//! every bound that actually bites is reported as a [`Truncation`] on the
//! (partial but still useful) result. This is the "graceful degradation"
//! half of the crate: running out of budget is an expected outcome, not a
//! panic.

use std::fmt;
use std::time::{Duration, Instant};

/// Resource bounds for a campaign or perturbation sweep.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Crash points tested per trace. When the trace has more boundaries
    /// than this, a deterministic seeded sample is taken.
    pub max_crash_points: usize,
    /// Post-crash images enumerated per crash point (see
    /// [`pmem_sim::CrashImage::enumerate`]).
    pub max_images_per_point: usize,
    /// Events replayed from the trace; longer traces are cut at this length
    /// and the cut reported.
    pub max_trace_len: usize,
    /// Distinct cache lines the compacted replay pool may hold. Traces
    /// touching more lines fail with [`crate::ChaosError::PoolExhausted`].
    pub max_pool_lines: usize,
    /// Single-event perturbations evaluated per sensitivity sweep.
    pub max_perturbations: usize,
    /// Wall-clock ceiling; `None` means unbounded. An expired clock stops
    /// the sweep and returns the partial report.
    pub wall_clock: Option<Duration>,
    /// Seed for crash-point sampling, so truncated campaigns replay
    /// identically.
    pub seed: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_crash_points: 256,
            max_images_per_point: 16,
            max_trace_len: 200_000,
            max_pool_lines: 1 << 16,
            max_perturbations: 512,
            wall_clock: None,
            seed: 0xC4A05,
        }
    }
}

impl Budget {
    /// Sets the crash-point cap.
    pub fn with_crash_points(mut self, n: usize) -> Self {
        self.max_crash_points = n;
        self
    }

    /// Sets the images-per-crash-point cap.
    pub fn with_images_per_point(mut self, n: usize) -> Self {
        self.max_images_per_point = n;
        self
    }

    /// Sets the replayed trace-length cap.
    pub fn with_trace_len(mut self, n: usize) -> Self {
        self.max_trace_len = n;
        self
    }

    /// Sets the cap on perturbations judged per sensitivity matrix.
    pub fn with_perturbations(mut self, n: usize) -> Self {
        self.max_perturbations = n;
        self
    }

    /// Sets the wall-clock ceiling.
    pub fn with_wall_clock(mut self, limit: Duration) -> Self {
        self.wall_clock = Some(limit);
        self
    }

    /// Sets the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Starts the wall clock for one run.
    pub(crate) fn start_clock(&self) -> WallClock {
        WallClock::start(self.wall_clock)
    }
}

/// A running wall-clock budget.
#[derive(Debug, Clone)]
pub(crate) struct WallClock {
    start: Instant,
    limit: Option<Duration>,
}

impl WallClock {
    pub(crate) fn start(limit: Option<Duration>) -> WallClock {
        WallClock {
            start: Instant::now(),
            limit,
        }
    }

    pub(crate) fn expired(&self) -> bool {
        self.limit.is_some_and(|l| self.start.elapsed() >= l)
    }

    pub(crate) fn elapsed_ms(&self) -> u128 {
        self.start.elapsed().as_millis()
    }
}

/// A bound that was actually hit during a sweep. Every truncation names
/// what was dropped so a partial report never silently reads as complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Truncation {
    /// Only `tested` of `total` crash boundaries were visited (seeded
    /// sampling).
    CrashPointsSampled {
        /// Boundaries actually tested.
        tested: usize,
        /// Boundaries the trace exposes.
        total: usize,
    },
    /// Image enumeration was incomplete at this many crash points (either
    /// the per-point cap or the 63-line subset-mask bound).
    ImagesTruncated {
        /// Crash points with an incomplete image walk.
        points: usize,
    },
    /// The wall clock expired after `tested` of `total` planned boundaries.
    WallClockExpired {
        /// Boundaries tested before expiry.
        tested: usize,
        /// Boundaries planned.
        total: usize,
    },
    /// Only the first `replayed` of `len` trace events were replayed.
    TraceTruncated {
        /// Events replayed.
        replayed: usize,
        /// Events in the trace.
        len: usize,
    },
    /// Only `tested` of `total` candidate perturbations were evaluated.
    PerturbationsSampled {
        /// Perturbations evaluated.
        tested: usize,
        /// Candidate perturbations.
        total: usize,
    },
}

impl fmt::Display for Truncation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Truncation::CrashPointsSampled { tested, total } => {
                write!(f, "crash points sampled: {tested} of {total} boundaries")
            }
            Truncation::ImagesTruncated { points } => {
                write!(f, "image enumeration incomplete at {points} crash points")
            }
            Truncation::WallClockExpired { tested, total } => {
                write!(f, "wall clock expired after {tested} of {total} boundaries")
            }
            Truncation::TraceTruncated { replayed, len } => {
                write!(f, "trace cut: replayed {replayed} of {len} events")
            }
            Truncation::PerturbationsSampled { tested, total } => {
                write!(f, "perturbations sampled: {tested} of {total} candidates")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use pm_trace::splitmix64;

    use super::*;

    #[test]
    fn default_budget_is_bounded_everywhere_but_wall_clock() {
        let b = Budget::default();
        assert!(b.max_crash_points > 0);
        assert!(b.max_images_per_point > 0);
        assert!(b.wall_clock.is_none());
    }

    #[test]
    fn wall_clock_expiry() {
        let b = Budget::default().with_wall_clock(Duration::ZERO);
        assert!(b.start_clock().expired());
        let unbounded = Budget::default().start_clock();
        assert!(!unbounded.expired());
    }

    #[test]
    fn truncations_render_their_numbers() {
        let t = Truncation::CrashPointsSampled {
            tested: 10,
            total: 99,
        };
        assert!(t.to_string().contains("10"));
        assert!(t.to_string().contains("99"));
    }

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = 7;
        let mut b = 7;
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        assert_ne!(splitmix64(&mut a), splitmix64(&mut b).wrapping_add(1));
    }
}
