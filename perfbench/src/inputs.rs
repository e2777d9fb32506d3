//! Seeded input generation and the sequential verdict oracle.
//!
//! Everything the program under test sees is produced here from the
//! `--seed` argument and handed over as pm-trace v2 bytes. The oracle is
//! the sequential `PmDebugger::detect_stream` over the owned events, run
//! before any measurement.

use pm_trace::{report_hash, BugSummary, FenceKind, FlushKind, PmEvent, ThreadId, Trace};
use pm_workloads::{record_trace, Memcached, Ycsb, YcsbLoad};
use pmdebugger::{DebuggerConfig, PersistencyModel, PmDebugger};

/// Operations recorded for the replay trace (about 2.75M events).
pub const MEMCACHED_OPS: usize = 5_000_000;

/// Session sizes in events. Each seed permutes the same ladder for both
/// session kinds, so the size distribution (and with it the latency
/// percentiles) does not depend on the seed; only the content does.
pub const SESSION_SIZES: [usize; 8] = [
    50_000, 70_000, 90_000, 110_000, 130_000, 150_000, 175_000, 200_000,
];

/// splitmix64: small, seedable and stable across releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a stream tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The sequential engine's verdict on one input.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Events in the input.
    pub events: u64,
    /// `pm_trace::report_hash` of the sequential engine's reports.
    pub report_hash: u64,
    /// Number of reports.
    pub reports: u64,
    /// The bug summary `pmdbg replay` prints for these reports.
    pub summary: String,
}

impl Oracle {
    /// Runs the sequential engine over `trace`.
    pub fn of(trace: &Trace) -> Oracle {
        let reports = PmDebugger::new(config()).detect_stream(trace.events());
        Oracle {
            events: trace.len() as u64,
            report_hash: report_hash(&reports),
            reports: reports.len() as u64,
            summary: BugSummary::from_reports(reports).to_string(),
        }
    }

    /// The hash as the serve protocol prints it.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.report_hash)
    }
}

/// The detector configuration every path here runs: strict persistency,
/// no order spec — what `pmdbg replay` and `pmdbg serve` default to.
pub fn config() -> DebuggerConfig {
    DebuggerConfig::for_model(PersistencyModel::Strict)
}

/// The memcached trace `pmdbg record --workload memcached --ops <ops>`
/// records, with the workload RNG seeded from `seed`.
pub fn memcached_trace(seed: u64, ops: usize) -> Trace {
    record_trace(&Memcached::new(seed), ops)
}

/// A complete a_YCSB recording of roughly `events` events: a load phase
/// plus as many operations as fill the rest. Recorded whole (never cut),
/// so every store is flushed and fenced and the session is clean.
pub fn ycsb_trace(seed: u64, events: usize) -> Trace {
    let workload = Ycsb::new(YcsbLoad::A, seed);
    // The load phase stores and flushes every record and fences every 64;
    // operations then cost about 1.5 events each (half are reads).
    let records = workload.records as usize;
    let load_events = records * 2 + records / 64;
    let ops = events.saturating_sub(load_events).max(1_000) * 2 / 3;
    record_trace(&workload, ops)
}

/// A trace in the paper's instruction mix, with the string-carrying and
/// bug-carrying frames of the decode benchmark's synthetic mix:
/// stores flushed and fenced in short bursts, `FuncEnter` on ~1 in 8
/// stores, `NameRange` on ~1 in 127, and leaked (never flushed) lines
/// that make the detector emit reports.
pub fn synthetic_trace(seed: u64, events: usize) -> Trace {
    // One leaked store per this many stores: 5-8 reports per 1k events.
    const LEAK_EVERY: u64 = 128;
    // Pool mapped high, as DAX mappings are, so addresses cost the varint
    // coder real trace sizes.
    const POOL_BASE: u64 = 0x1000_0000_0000;
    let mut rng = Rng::new(seed, 0x5717);
    let leak_phase = rng.below(LEAK_EVERY);
    let mut out = Vec::with_capacity(events + 8);
    let mut i = 0u64;
    while out.len() < events {
        let tid = ThreadId((i % 3) as u32);
        let addr = POOL_BASE + (rng.below(1 << 22) * 64);
        out.push(PmEvent::Store {
            addr,
            size: 8 + rng.below(7) as u32 * 8,
            tid,
            strand: None,
            in_epoch: false,
        });
        if i % LEAK_EVERY == leak_phase {
            out.push(PmEvent::Store {
                addr: POOL_BASE + (1 << 30) + (i / LEAK_EVERY % 16) * 64,
                size: 8,
                tid,
                strand: None,
                in_epoch: false,
            });
        }
        out.push(PmEvent::Flush {
            kind: FlushKind::Clwb,
            addr: addr & !63,
            size: 64,
            tid,
            strand: None,
        });
        if i % 4 == 3 {
            out.push(PmEvent::Fence {
                kind: FenceKind::Sfence,
                tid,
                strand: None,
                in_epoch: false,
            });
        }
        if rng.below(8) == 0 {
            out.push(PmEvent::FuncEnter {
                name: format!("fn_{}", rng.below(23)),
                tid,
            });
        }
        if rng.below(127) == 0 {
            out.push(PmEvent::NameRange {
                name: format!("obj_{}", rng.below(31)),
                addr,
                size: 64,
            });
        }
        i += 1;
    }
    out.truncate(events);
    out.into_iter().collect()
}

/// One serve session: its v2 image and the oracle verdict on it.
#[derive(Debug, Clone)]
pub struct SessionInput {
    /// `ycsb` or `synthetic`.
    pub kind: &'static str,
    /// The pm-trace v2 image pushed to the server.
    pub bytes: Vec<u8>,
    /// Sequential verdict on the same events.
    pub oracle: Oracle,
}

/// The fixed session sequence of the serve workloads: a_YCSB and
/// synthetic sessions alternate, each kind running the size ladder
/// (divided by `divisor`; 1 in every measured run) in a seed-chosen order.
pub fn session_list(seed: u64, divisor: usize) -> Vec<SessionInput> {
    let mut rng = Rng::new(seed, 0x5E55);
    let mut ycsb_sizes = SESSION_SIZES;
    let mut synth_sizes = SESSION_SIZES;
    rng.shuffle(&mut ycsb_sizes);
    rng.shuffle(&mut synth_sizes);
    let mut sessions = Vec::with_capacity(2 * SESSION_SIZES.len());
    for (ycsb_events, synth_events) in ycsb_sizes.into_iter().zip(synth_sizes) {
        for (kind, trace) in [
            ("ycsb", ycsb_trace(rng.next_u64(), ycsb_events / divisor)),
            (
                "synthetic",
                synthetic_trace(rng.next_u64(), synth_events / divisor),
            ),
        ] {
            sessions.push(SessionInput {
                kind,
                bytes: pm_trace::to_binary(&trace),
                oracle: Oracle::of(&trace),
            });
        }
    }
    sessions
}

/// FNV-1a over a sequence of words: the combined per-workload digest of
/// inputs and oracle verdicts that pins detector and generator drift.
pub fn fold_digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Digest of one input: its size, its bytes' CRC and its oracle verdict.
pub fn input_digest(bytes: &[u8], oracle: &Oracle) -> u64 {
    fold_digest([
        bytes.len() as u64,
        u64::from(pm_trace::crc32_fast(bytes)),
        oracle.events,
        oracle.report_hash,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seeded() {
        let a = synthetic_trace(1, 5_000);
        assert_eq!(a.len(), 5_000);
        assert_eq!(a.events(), synthetic_trace(1, 5_000).events());
        assert_ne!(a.events(), synthetic_trace(2, 5_000).events());
        let y = ycsb_trace(1, 20_000);
        assert_eq!(y.events(), ycsb_trace(1, 20_000).events());
        assert_ne!(y.events(), ycsb_trace(2, 20_000).events());
    }

    #[test]
    fn ycsb_sessions_are_clean_and_synthetic_ones_carry_reports() {
        assert_eq!(Oracle::of(&ycsb_trace(3, 20_000)).reports, 0);
        let synth = Oracle::of(&synthetic_trace(3, 20_000));
        assert!(synth.reports > 0);
    }
}
