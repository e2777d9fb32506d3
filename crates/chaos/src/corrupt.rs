//! Corruption torture campaign over serialized trace images.
//!
//! The crash-point campaigns in this crate stress what detectors conclude
//! from *clean* event streams; this module stresses the layer underneath —
//! can the ingestion path in `pm_trace::ingest` survive damaged inputs at
//! all? It serializes a recorded trace to the v2 binary format, sweeps
//! deterministic corruption over the image (bit-flips, truncations,
//! splices, garbage prefixes), feeds every mutant through the salvage
//! reader, and checks three invariants per image:
//!
//! 1. **Never panic** — a panic escapes to the sweep driver, which
//!    counts it as an abort.
//! 2. **Always terminate in budget** — each image gets a per-image event
//!    and wall-clock budget; the driver's wall clock bounds the sweep.
//! 3. **Salvage floor** — the reader must recover at least (and
//!    byte-for-byte exactly) every frame that precedes the first corrupted
//!    byte.
//!
//! A sampled fourth check runs the detector differential: PMDebugger's
//! reports over the salvaged clean prefix must be identical to replaying
//! that prefix of the pristine trace directly — salvage must not invent or
//! suppress bugs.

use std::fmt;
use std::time::Duration;

use pm_trace::{
    frame_spans, ingest_bytes, replay_finish, splitmix64, to_binary, IngestLimits, IngestMode,
    Trace,
};
use pmdebugger::PmDebugger;

use crate::error::ChaosError;
use crate::sweep::{PlanLog, Suite, Sweep};

/// Per-image wall-clock ceiling handed to the salvage reader. Generous —
/// the fixtures are small — but finite, so a reader bug that loops shows
/// up as a truncated ingest rather than a hung campaign.
const PER_IMAGE_DEADLINE: Duration = Duration::from_secs(5);

/// Every `DIFFERENTIAL_STRIDE`-th image with a non-empty clean prefix also
/// runs the detector differential.
const DIFFERENTIAL_STRIDE: u64 = 5;

/// The corruption classes swept over each image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CorruptionClass {
    /// Flip one bit at a seeded offset.
    BitFlip,
    /// Cut the image at a seeded offset (recorder died mid-write).
    Truncate,
    /// Overwrite a seeded span with bytes copied from elsewhere in the
    /// image (misdirected write / torn sector).
    Splice,
    /// Prepend seeded garbage bytes (log head overwritten).
    GarbagePrefix,
}

impl CorruptionClass {
    /// All classes, in sweep order.
    pub const ALL: [CorruptionClass; 4] = [
        CorruptionClass::BitFlip,
        CorruptionClass::Truncate,
        CorruptionClass::Splice,
        CorruptionClass::GarbagePrefix,
    ];

    /// Stable lowercase name (JSON key).
    pub fn name(self) -> &'static str {
        match self {
            CorruptionClass::BitFlip => "bit_flip",
            CorruptionClass::Truncate => "truncate",
            CorruptionClass::Splice => "splice",
            CorruptionClass::GarbagePrefix => "garbage_prefix",
        }
    }
}

impl fmt::Display for CorruptionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One deterministic mutation: the bytes, and the offset of the first
/// corrupted byte (the salvage floor is the frame count before it).
struct Mutant {
    bytes: Vec<u8>,
    first_corrupt: usize,
}

fn mutate(class: CorruptionClass, pristine: &[u8], rng: &mut u64) -> Mutant {
    let len = pristine.len();
    match class {
        CorruptionClass::BitFlip => {
            let offset = (splitmix64(rng) % len as u64) as usize;
            let bit = (splitmix64(rng) % 8) as u8;
            let mut bytes = pristine.to_vec();
            bytes[offset] ^= 1 << bit;
            Mutant {
                bytes,
                first_corrupt: offset,
            }
        }
        CorruptionClass::Truncate => {
            let cut = (splitmix64(rng) % (len as u64 + 1)) as usize;
            Mutant {
                bytes: pristine[..cut].to_vec(),
                first_corrupt: cut,
            }
        }
        CorruptionClass::Splice => {
            let span = 1 + (splitmix64(rng) % 64) as usize;
            let src = (splitmix64(rng) % len as u64) as usize;
            let dst = (splitmix64(rng) % len as u64) as usize;
            let span = span.min(len - src).min(len - dst);
            let mut bytes = pristine.to_vec();
            bytes.copy_within(src..src + span, dst);
            Mutant {
                bytes,
                first_corrupt: dst,
            }
        }
        CorruptionClass::GarbagePrefix => {
            let count = 1 + (splitmix64(rng) % 64) as usize;
            let mut bytes = Vec::with_capacity(count + len);
            for _ in 0..count {
                bytes.push((splitmix64(rng) & 0xFF) as u8);
            }
            bytes.extend_from_slice(pristine);
            Mutant {
                bytes,
                first_corrupt: 0,
            }
        }
    }
}

/// Per-class counters, each reported as `<class>.<field>`:
///
/// * `images` — mutated images fed to the reader;
/// * `floor_violations` — images where salvage recovered fewer frames
///   than precede the first corrupted byte (must stay 0);
/// * `prefix_mismatches` — images whose salvaged clean prefix differed
///   event-for-event from the pristine prefix (must stay 0);
/// * `detector_mismatches` — sampled images where PMDebugger's reports
///   over the salvaged prefix differed from replaying the pristine prefix
///   (must stay 0);
/// * `differentials` — detector differentials actually run;
/// * `floor_frames` / `salvaged_frames` — frames before the first
///   corruption, and frames the reader recovered, summed over images;
/// * `rejected` — images the reader rejected outright (legitimate when
///   the floor is 0).
const CLASS_COUNTERS: [&str; 8] = [
    "images",
    "floor_violations",
    "prefix_mismatches",
    "detector_mismatches",
    "differentials",
    "floor_frames",
    "salvaged_frames",
    "rejected",
];

/// One torture plan: image `image` of corruption class `class`.
#[derive(Debug, Clone, Copy)]
pub struct Mutation {
    class: CorruptionClass,
    image: usize,
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.class, self.image)
    }
}

/// Sweeps deterministic corruptions of each [`CorruptionClass`] over a
/// trace's v2 binary image and checks the never-panic /
/// always-terminate / salvage-floor invariants (plus the sampled detector
/// differential) on every mutant. Plans run class by class, in
/// [`CorruptionClass::ALL`] order; mutant `(class, image)` depends only
/// on the seed, so a sweep replays identically.
pub struct TortureSweep {
    trace: Trace,
    pristine: Vec<u8>,
    spans: Vec<(usize, usize)>,
    limits: IngestLimits,
    seed: u64,
    images_per_class: usize,
}

impl TortureSweep {
    /// A sweep over `trace` whose `plans` images are split evenly across
    /// the four classes.
    ///
    /// # Errors
    ///
    /// [`ChaosError::EmptyTrace`] when the trace has no events (no frames
    /// to salvage means nothing to torture).
    pub fn new(trace: Trace, seed: u64, plans: usize) -> Result<TortureSweep, ChaosError> {
        if trace.is_empty() {
            return Err(ChaosError::EmptyTrace);
        }
        let pristine = to_binary(&trace);
        let spans = frame_spans(&pristine).expect("a freshly encoded image is well-formed");
        let limits = IngestLimits::default()
            .with_max_events(trace.len() as u64 + 16)
            .with_deadline(PER_IMAGE_DEADLINE);
        Ok(TortureSweep {
            trace,
            pristine,
            spans,
            limits,
            seed,
            images_per_class: plans.div_ceil(CorruptionClass::ALL.len()).max(1),
        })
    }
}

impl Sweep for TortureSweep {
    type Plan = Mutation;
    const SUITE: Suite = Suite::Torture;

    fn counters(&self) -> Vec<String> {
        let mut names = vec!["pristine_bytes".to_owned(), "pristine_frames".to_owned()];
        for class in CorruptionClass::ALL {
            names.extend(
                CLASS_COUNTERS
                    .iter()
                    .map(|field| format!("{class}.{field}")),
            );
        }
        names
    }

    fn next_plan(&mut self, index: usize) -> Mutation {
        // Plans past the constructor's count stay in the last class.
        let class = (index / self.images_per_class).min(CorruptionClass::ALL.len() - 1);
        Mutation {
            class: CorruptionClass::ALL[class],
            image: index - class * self.images_per_class,
        }
    }

    fn run(&mut self, plan: &Mutation, log: &mut PlanLog) {
        let class = plan.class;
        let count =
            |log: &mut PlanLog, field: &str, n: u64| log.add(&format!("{class}.{field}"), n);
        let mut rng = self
            .seed
            .wrapping_add((class as u64) << 32)
            .wrapping_add(plan.image as u64);
        let mutant = mutate(class, &self.pristine, &mut rng);
        // The floor: frames wholly before the first corrupted byte.
        let floor = self
            .spans
            .iter()
            .take_while(|(_, end)| *end <= mutant.first_corrupt)
            .count();
        count(log, "images", 1);

        let salvaged = match ingest_bytes(&mutant.bytes, IngestMode::Salvage, &self.limits) {
            Err(_) => {
                count(log, "rejected", 1);
                Trace::new()
            }
            Ok((salvaged, _report)) => salvaged,
        };
        count(log, "floor_frames", floor as u64);
        count(log, "salvaged_frames", salvaged.len() as u64);
        if salvaged.len() < floor {
            count(log, "floor_violations", 1);
            log.violation(
                "floor-violation",
                format!(
                    "salvaged {} frames, {floor} precede the first corrupt byte",
                    salvaged.len()
                ),
            );
            return;
        }
        if salvaged.events()[..floor] != self.trace.events()[..floor] {
            count(log, "prefix_mismatches", 1);
            log.violation(
                "prefix-mismatch",
                format!("the salvaged prefix of {floor} frames differs from the pristine one"),
            );
            return;
        }
        if floor > 0 && (plan.image as u64).is_multiple_of(DIFFERENTIAL_STRIDE) {
            count(log, "differentials", 1);
            let from_salvage = PmDebugger::strict().detect_stream(&salvaged.events()[..floor]);
            let prefix: Trace = self.trace.events()[..floor].iter().cloned().collect();
            let direct = replay_finish(&prefix, &mut PmDebugger::strict());
            if format!("{from_salvage:?}") != format!("{direct:?}") {
                count(log, "detector_mismatches", 1);
                log.violation(
                    "detector-mismatch",
                    format!("reports over the salvaged {floor}-frame prefix differ from a direct replay"),
                );
            }
        }
    }

    fn finish(&mut self, log: &mut PlanLog) {
        log.add("pristine_frames", self.trace.len() as u64);
        log.add("pristine_bytes", self.pristine.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepReport};
    use pm_trace::{FenceKind, PmEvent, ThreadId};

    fn sample_trace(n: u64) -> Trace {
        (0..n)
            .flat_map(|i| {
                [
                    PmEvent::Store {
                        addr: i * 64,
                        size: 8,
                        tid: ThreadId(0),
                        strand: None,
                        in_epoch: false,
                    },
                    PmEvent::Fence {
                        kind: FenceKind::Sfence,
                        tid: ThreadId(0),
                        strand: None,
                        in_epoch: false,
                    },
                ]
            })
            .collect()
    }

    fn torture(trace: Trace, seed: u64, plans: usize) -> SweepReport {
        run_sweep(
            &mut TortureSweep::new(trace, seed, plans).unwrap(),
            plans,
            None,
        )
    }

    #[test]
    fn empty_trace_is_rejected() {
        let err = TortureSweep::new(Trace::new(), 1, 16).err().unwrap();
        assert!(matches!(err, ChaosError::EmptyTrace));
    }

    #[test]
    fn small_sweep_holds_all_invariants() {
        let report = torture(sample_trace(25), Suite::Torture.default_seed(), 80);
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.plans_run, 80);
        assert_eq!(report.aborts, 0);
        assert!(report.truncations.is_empty());
        // The sweep must have exercised every class.
        for class in CorruptionClass::ALL {
            assert_eq!(report.counter(&format!("{class}.images")), 20, "{class}");
        }
        let sum = |field: &str| -> u64 {
            CorruptionClass::ALL
                .iter()
                .map(|class| report.counter(&format!("{class}.{field}")))
                .sum()
        };
        // Bit flips land inside frames often enough that salvage actually
        // worked for a living: some frames were recovered somewhere.
        assert!(sum("salvaged_frames") > 0);
        // And the differential oracle genuinely ran.
        assert!(sum("differentials") > 0);
    }

    #[test]
    fn sweeps_are_deterministic_for_a_seed() {
        let a = torture(sample_trace(10), 9, 32);
        let b = torture(sample_trace(10), 9, 32);
        assert_eq!(a.counters, b.counters);
        let c = torture(sample_trace(10), 10, 32);
        // A different seed mutates different offsets; floors differ.
        let floors = |r: &SweepReport| -> Vec<u64> {
            CorruptionClass::ALL
                .iter()
                .map(|class| r.counter(&format!("{class}.floor_frames")))
                .collect()
        };
        assert_ne!(floors(&a), floors(&c));
    }
}
