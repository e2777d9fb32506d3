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
//! 1. **Never panic** — every ingest call runs under `catch_unwind`; a
//!    panic is a hard failure.
//! 2. **Always terminate in budget** — each image gets a per-image event
//!    and wall-clock budget; the campaign itself honors the
//!    [`Budget::wall_clock`] ceiling with an explicit [`Truncation`].
//! 3. **Salvage floor** — the reader must recover at least (and
//!    byte-for-byte exactly) every frame that precedes the first corrupted
//!    byte.
//!
//! A sampled fourth check runs the detector differential: PMDebugger's
//! reports over the salvaged clean prefix must be identical to replaying
//! that prefix of the pristine trace directly — salvage must not invent or
//! suppress bugs.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::time::Duration;

use pm_trace::{
    frame_spans, ingest_bytes, replay_finish, splitmix64, to_binary, IngestLimits, IngestMode,
    Trace,
};
use pmdebugger::PmDebugger;

use crate::budget::{Budget, Truncation};
use crate::error::ChaosError;
use crate::report::json_escape;

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

/// Outcome counters for one corruption class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Mutated images fed to the reader.
    pub images: u64,
    /// Images whose ingest panicked (must stay 0).
    pub panics: u64,
    /// Images where salvage recovered fewer frames than precede the first
    /// corrupted byte (must stay 0).
    pub floor_violations: u64,
    /// Images where the salvaged clean prefix differed event-for-event
    /// from the pristine prefix (must stay 0).
    pub prefix_mismatches: u64,
    /// Sampled images where PMDebugger's reports over the salvaged prefix
    /// differed from replaying the pristine prefix (must stay 0).
    pub detector_mismatches: u64,
    /// Detector differentials actually run.
    pub differentials: u64,
    /// Sum over images of the salvage floor (frames before the first
    /// corruption).
    pub floor_frames: u64,
    /// Sum over images of frames the salvage reader recovered.
    pub salvaged_frames: u64,
    /// Images the reader rejected outright (empty/unknown input after the
    /// mutation) — legitimate when the floor is 0.
    pub rejected: u64,
}

impl ClassStats {
    fn clean(&self) -> bool {
        self.panics == 0
            && self.floor_violations == 0
            && self.prefix_mismatches == 0
            && self.detector_mismatches == 0
    }
}

/// Result of one corruption torture sweep.
#[derive(Debug, Clone)]
pub struct CorruptionReport {
    /// Per-class outcome counters, in [`CorruptionClass::ALL`] order.
    pub per_class: Vec<(CorruptionClass, ClassStats)>,
    /// Frames in the pristine image.
    pub pristine_frames: u64,
    /// Bytes in the pristine image.
    pub pristine_bytes: u64,
    /// Budgets that bit during the sweep.
    pub truncations: Vec<Truncation>,
    /// Wall-clock time for the whole sweep, in milliseconds.
    pub wall_ms: u128,
}

impl CorruptionReport {
    /// Total mutated images tested.
    pub fn images_total(&self) -> u64 {
        self.per_class.iter().map(|(_, s)| s.images).sum()
    }

    /// Total panics across classes.
    pub fn panics_total(&self) -> u64 {
        self.per_class.iter().map(|(_, s)| s.panics).sum()
    }

    /// `true` when every invariant held on every image: no panics, no
    /// salvage-floor violations, no prefix or detector mismatches.
    pub fn ok(&self) -> bool {
        self.per_class.iter().all(|(_, s)| s.clean())
    }

    /// Hand-rolled JSON (the workspace has no serde), consumed by the CI
    /// `ingest-torture` stage.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"ok\":{},", self.ok()));
        out.push_str(&format!("\"images_total\":{},", self.images_total()));
        out.push_str(&format!("\"pristine_frames\":{},", self.pristine_frames));
        out.push_str(&format!("\"pristine_bytes\":{},", self.pristine_bytes));
        out.push_str(&format!("\"wall_ms\":{},", self.wall_ms));
        out.push_str("\"classes\":{");
        for (i, (class, s)) in self.per_class.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"images\":{},\"panics\":{},\"floor_violations\":{},\
                 \"prefix_mismatches\":{},\"detector_mismatches\":{},\"differentials\":{},\
                 \"floor_frames\":{},\"salvaged_frames\":{},\"rejected\":{}}}",
                class.name(),
                s.images,
                s.panics,
                s.floor_violations,
                s.prefix_mismatches,
                s.detector_mismatches,
                s.differentials,
                s.floor_frames,
                s.salvaged_frames,
                s.rejected,
            ));
        }
        out.push_str("},\"truncations\":[");
        for (i, t) in self.truncations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", json_escape(&t.to_string())));
        }
        out.push_str("]}");
        out
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

/// Sweeps `images_per_class` deterministic corruptions of each
/// [`CorruptionClass`] over the trace's v2 binary image and checks the
/// never-panic / always-terminate / salvage-floor invariants (plus the
/// sampled detector differential) on every mutant.
///
/// Seeded by [`Budget::seed`]; honors [`Budget::wall_clock`] by recording
/// a [`Truncation::WallClockExpired`] and returning the partial report.
///
/// # Errors
///
/// [`ChaosError::EmptyTrace`] when the trace has no events (no frames to
/// salvage means nothing to torture).
pub fn corruption_torture(
    trace: &Trace,
    budget: &Budget,
    images_per_class: usize,
) -> Result<CorruptionReport, ChaosError> {
    if trace.is_empty() {
        return Err(ChaosError::EmptyTrace);
    }
    let pristine = to_binary(trace);
    let spans = frame_spans(&pristine).expect("a freshly encoded image is well-formed");
    let clock = budget.start_clock();
    let limits = IngestLimits::default()
        .with_max_events(trace.len() as u64 + 16)
        .with_deadline(PER_IMAGE_DEADLINE);

    let planned = CorruptionClass::ALL.len() * images_per_class;
    let mut tested = 0usize;
    let mut truncations = Vec::new();
    let mut per_class: Vec<(CorruptionClass, ClassStats)> = CorruptionClass::ALL
        .iter()
        .map(|&c| (c, ClassStats::default()))
        .collect();

    'sweep: for (class_idx, (class, stats)) in per_class.iter_mut().enumerate() {
        for image_idx in 0..images_per_class {
            if clock.expired() {
                truncations.push(Truncation::WallClockExpired {
                    tested,
                    total: planned,
                });
                break 'sweep;
            }
            let mut rng = budget
                .seed
                .wrapping_add((class_idx as u64) << 32)
                .wrapping_add(image_idx as u64);
            let mutant = mutate(*class, &pristine, &mut rng);
            // The floor: frames wholly before the first corrupted byte.
            let floor = spans
                .iter()
                .take_while(|(_, end)| *end <= mutant.first_corrupt)
                .count();
            stats.images += 1;
            tested += 1;

            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                ingest_bytes(&mutant.bytes, IngestMode::Salvage, &limits)
            }));
            let salvaged = match outcome {
                Err(_) => {
                    stats.panics += 1;
                    continue;
                }
                Ok(Err(_)) => {
                    stats.rejected += 1;
                    Trace::new()
                }
                Ok(Ok((salvaged, _report))) => salvaged,
            };
            stats.floor_frames += floor as u64;
            stats.salvaged_frames += salvaged.len() as u64;
            if salvaged.len() < floor {
                stats.floor_violations += 1;
                continue;
            }
            if salvaged.events()[..floor] != trace.events()[..floor] {
                stats.prefix_mismatches += 1;
                continue;
            }
            if floor > 0 && (image_idx as u64).is_multiple_of(DIFFERENTIAL_STRIDE) {
                stats.differentials += 1;
                let from_salvage = PmDebugger::strict().detect_stream(&salvaged.events()[..floor]);
                let prefix: Trace = trace.events()[..floor].iter().cloned().collect();
                let direct = replay_finish(&prefix, &mut PmDebugger::strict());
                if format!("{from_salvage:?}") != format!("{direct:?}") {
                    stats.detector_mismatches += 1;
                }
            }
        }
    }

    Ok(CorruptionReport {
        per_class,
        pristine_frames: trace.len() as u64,
        pristine_bytes: pristine.len() as u64,
        truncations,
        wall_ms: clock.elapsed_ms(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn empty_trace_is_rejected() {
        let err = corruption_torture(&Trace::new(), &Budget::default(), 4).unwrap_err();
        assert!(matches!(err, ChaosError::EmptyTrace));
    }

    #[test]
    fn small_sweep_holds_all_invariants() {
        let trace = sample_trace(25);
        let report = corruption_torture(&trace, &Budget::default(), 20).unwrap();
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.images_total(), 80);
        assert_eq!(report.panics_total(), 0);
        assert!(report.truncations.is_empty());
        // The sweep must have exercised every class.
        for (class, stats) in &report.per_class {
            assert_eq!(stats.images, 20, "{class}");
        }
        // Bit flips land inside frames often enough that salvage actually
        // worked for a living: some frames were recovered somewhere.
        assert!(report.per_class.iter().any(|(_, s)| s.salvaged_frames > 0));
        // And the differential oracle genuinely ran.
        assert!(report.per_class.iter().any(|(_, s)| s.differentials > 0));
    }

    #[test]
    fn sweeps_are_deterministic_for_a_seed() {
        let trace = sample_trace(10);
        let a = corruption_torture(&trace, &Budget::default().with_seed(9), 8).unwrap();
        let b = corruption_torture(&trace, &Budget::default().with_seed(9), 8).unwrap();
        assert_eq!(a.per_class, b.per_class);
        let c = corruption_torture(&trace, &Budget::default().with_seed(10), 8).unwrap();
        // A different seed mutates different offsets; floors differ.
        assert_ne!(
            a.per_class
                .iter()
                .map(|(_, s)| s.floor_frames)
                .collect::<Vec<_>>(),
            c.per_class
                .iter()
                .map(|(_, s)| s.floor_frames)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_wall_clock_truncates_cleanly() {
        let trace = sample_trace(10);
        let budget = Budget::default().with_wall_clock(Duration::ZERO);
        let report = corruption_torture(&trace, &budget, 50).unwrap();
        assert!(matches!(
            report.truncations.as_slice(),
            [Truncation::WallClockExpired { .. }]
        ));
        assert!(report.images_total() < 200);
    }

    #[test]
    fn json_report_is_well_formed() {
        let trace = sample_trace(5);
        let report = corruption_torture(&trace, &Budget::default(), 3).unwrap();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        for class in CorruptionClass::ALL {
            assert!(json.contains(class.name()), "{json}");
        }
        assert!(json.contains("\"ok\":true"), "{json}");
    }
}
