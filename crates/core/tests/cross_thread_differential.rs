//! Differential oracle for the line-indexed [`CrossThreadTracker`]: a plain
//! scanning tracker — every flush walks every pending store, every fence
//! filters the whole pending set — is the reference. Over seeded random
//! streams both must emit identical reports at every CAS and write
//! identical checkpoint bytes after every event batch, including across a
//! checkpoint round-trip in the middle of the stream.

use std::collections::BTreeMap;

use pm_trace::events::ranges_overlap;
use pm_trace::{Addr, BugKind, BugReport, ThreadId, CAS_PUBLISH_WINDOW};
use pmdebugger::CrossThreadTracker;

/// One store awaiting durability (reference tracker).
#[derive(Debug, Clone)]
struct PendingStore {
    store_tid: ThreadId,
    store_seq: u64,
    flushed_by: Option<(ThreadId, u64)>,
    reported: bool,
}

/// The reference: the scanning implementation, kept verbatim in
/// behaviour, plus the checkpoint encoding it shares with the real one.
#[derive(Debug, Clone, Default)]
struct ScanningTracker {
    fence_epochs: BTreeMap<ThreadId, u64>,
    pending: BTreeMap<(Addr, u64), PendingStore>,
}

impl ScanningTracker {
    fn epoch(&self, tid: ThreadId) -> u64 {
        self.fence_epochs.get(&tid).copied().unwrap_or(0)
    }

    fn on_store(&mut self, seq: u64, addr: Addr, size: u64, tid: ThreadId) {
        self.pending.insert(
            (addr, size),
            PendingStore {
                store_tid: tid,
                store_seq: seq,
                flushed_by: None,
                reported: false,
            },
        );
    }

    fn on_flush(&mut self, addr: Addr, len: u64, tid: ThreadId) {
        let epoch = self.epoch(tid);
        for (&(sa, sl), entry) in self.pending.iter_mut() {
            if entry.flushed_by.is_none() && ranges_overlap(sa, sl, addr, len) {
                entry.flushed_by = Some((tid, epoch));
            }
        }
    }

    fn on_fence(&mut self, tid: ThreadId) {
        *self.fence_epochs.entry(tid).or_insert(0) += 1;
        self.pending
            .retain(|_, entry| entry.flushed_by.map(|(t, _)| t) != Some(tid));
    }

    fn on_cas(
        &mut self,
        seq: u64,
        addr: Addr,
        size: u64,
        tid: ThreadId,
        new: u64,
        success: bool,
    ) -> Vec<BugReport> {
        if !success {
            return Vec::new();
        }
        let mut reports = Vec::new();
        for (&(sa, sl), entry) in self.pending.iter_mut() {
            if entry.reported
                || entry.store_seq == seq
                || !ranges_overlap(sa, sl, new, CAS_PUBLISH_WINDOW)
            {
                continue;
            }
            entry.reported = true;
            let report = match entry.flushed_by {
                None => BugReport::new(
                    BugKind::PublishedUnflushed,
                    format!(
                        "CAS on thread {} publishes {new:#x}, exposing a store by \
                         thread {} (event #{}) that was never flushed",
                        tid.0, entry.store_tid.0, entry.store_seq
                    ),
                ),
                Some((flusher, flush_epoch)) => BugReport::new(
                    BugKind::UnpublishedVisible,
                    format!(
                        "CAS on thread {} publishes {new:#x}, exposing a store by \
                         thread {} (event #{}) flushed by thread {} (fence epoch \
                         {flush_epoch}) whose fence has not yet happened on thread {}",
                        tid.0, entry.store_tid.0, entry.store_seq, flusher.0, flusher.0
                    ),
                ),
            };
            reports.push(report.with_range(sa, sl).with_event(seq));
        }
        self.on_store(seq, addr, size, tid);
        reports
    }

    /// The tracker's checkpoint section: LEB128 varints, fence epochs by
    /// thread, then pending stores by key.
    fn checkpoint_bytes(&self) -> Vec<u8> {
        fn varint(out: &mut Vec<u8>, mut v: u64) {
            while v >= 0x80 {
                out.push((v as u8) | 0x80);
                v >>= 7;
            }
            out.push(v as u8);
        }
        let mut out = Vec::new();
        varint(&mut out, self.fence_epochs.len() as u64);
        for (tid, epoch) in &self.fence_epochs {
            varint(&mut out, u64::from(tid.0));
            varint(&mut out, *epoch);
        }
        varint(&mut out, self.pending.len() as u64);
        for (&(addr, size), entry) in &self.pending {
            varint(&mut out, addr);
            varint(&mut out, size);
            varint(&mut out, u64::from(entry.store_tid.0));
            varint(&mut out, entry.store_seq);
            match entry.flushed_by {
                None => out.push(0),
                Some((tid, epoch)) => {
                    out.push(1);
                    varint(&mut out, u64::from(tid.0));
                    varint(&mut out, epoch);
                }
            }
            out.push(u8::from(entry.reported));
        }
        out
    }
}

/// Deterministic splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Store(Addr, u64, ThreadId),
    Flush(Addr, u64, ThreadId),
    Fence(ThreadId),
    Cas(Addr, ThreadId, u64, bool),
}

const BASE: Addr = 0x10_000;

/// A random stream over `threads` threads: stores of 0, 8, 64 and 8192
/// bytes (some at unaligned addresses, a third repeating an earlier key),
/// flushes by any thread, fences, and CASes whose publish windows often
/// straddle two lines.
fn stream(seed: u64, threads: u32, len: usize) -> Vec<Op> {
    let mut rng = Rng(seed);
    let mut keys: Vec<(Addr, u64)> = Vec::new();
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let tid = ThreadId(rng.below(u64::from(threads)) as u32);
        // A 16 KiB region: 8 KiB stores overlap most of it.
        let addr = BASE + rng.below(256) * 64 + rng.pick(&[0, 0, 8, 24, 56]);
        ops.push(match rng.below(20) {
            0..=6 => {
                let key = if !keys.is_empty() && rng.below(3) == 0 {
                    rng.pick(&keys)
                } else {
                    let size = match rng.below(40) {
                        0 => 8192,
                        1..=4 => 0,
                        5..=12 => 64,
                        _ => 8,
                    };
                    (addr, size)
                };
                keys.push(key);
                Op::Store(key.0, key.1, tid)
            }
            7..=12 => {
                let target = if !keys.is_empty() && rng.below(2) == 0 {
                    rng.pick(&keys).0
                } else {
                    addr
                };
                Op::Flush(target & !63, rng.pick(&[64, 64, 8, 0, 128, 8192]), tid)
            }
            13..=16 => Op::Fence(tid),
            _ => {
                let new = if !keys.is_empty() && rng.below(2) == 0 {
                    rng.pick(&keys).0 + rng.pick(&[0, 8, 32, 60])
                } else {
                    addr
                };
                Op::Cas(BASE - 64, tid, new, rng.below(5) != 0)
            }
        });
    }
    ops
}

fn apply_reference(t: &mut ScanningTracker, seq: u64, op: Op) -> Vec<BugReport> {
    match op {
        Op::Store(addr, size, tid) => t.on_store(seq, addr, size, tid),
        Op::Flush(addr, len, tid) => t.on_flush(addr, len, tid),
        Op::Fence(tid) => t.on_fence(tid),
        Op::Cas(addr, tid, new, success) => return t.on_cas(seq, addr, 8, tid, new, success),
    }
    Vec::new()
}

fn apply(t: &mut CrossThreadTracker, seq: u64, op: Op) -> Vec<BugReport> {
    match op {
        Op::Store(addr, size, tid) => t.on_store(seq, addr, size, tid),
        Op::Flush(addr, len, tid) => t.on_flush(addr, len, tid),
        Op::Fence(tid) => t.on_fence(tid),
        Op::Cas(addr, tid, new, success) => return t.on_cas(seq, addr, 8, tid, new, success),
    }
    Vec::new()
}

/// Runs one stream through both trackers in batches, comparing reports at
/// every event and checkpoint bytes after every batch; round-trips the
/// line-indexed tracker through its checkpoint halfway. Returns the
/// number of reports, so callers can check the streams exercise CASes.
fn check_stream(seed: u64, threads: u32) -> usize {
    let ops = stream(seed, threads, 600);
    let mut reference = ScanningTracker::default();
    let mut tracker = CrossThreadTracker::new();
    let mut rng = Rng(seed ^ 0xBA7C);
    let mut seq = 0usize;
    let mut reports = 0;
    while seq < ops.len() {
        let batch = (1 + rng.below(16) as usize).min(ops.len() - seq);
        for (offset, &op) in ops[seq..seq + batch].iter().enumerate() {
            let at = (seq + offset) as u64;
            let want = apply_reference(&mut reference, at, op);
            let got = apply(&mut tracker, at, op);
            assert_eq!(got, want, "seed {seed}, event {at}: {op:?}");
            reports += want.len();
        }
        seq += batch;
        let bytes = tracker.checkpoint_bytes();
        assert_eq!(
            bytes,
            reference.checkpoint_bytes(),
            "seed {seed}: checkpoint after event {seq}"
        );
        if seq >= ops.len() / 2 && seq - batch < ops.len() / 2 {
            tracker = CrossThreadTracker::from_checkpoint_bytes(&bytes).expect("round-trip");
            assert_eq!(tracker.checkpoint_bytes(), bytes);
        }
    }
    reports
}

#[test]
fn line_indexed_tracker_matches_scanning_reference() {
    let mut reports = 0;
    for threads in 1..=4 {
        for seed in 0..40 {
            reports += check_stream(seed * 4 + u64::from(threads), threads);
        }
    }
    assert!(
        reports > 100,
        "streams must reach the CAS rules: {reports} reports"
    );
}

#[test]
fn checkpoint_bytes_reject_trailing_and_corrupt_input() {
    let mut tracker = CrossThreadTracker::new();
    tracker.on_store(0, BASE, 8, ThreadId(0));
    tracker.on_flush(BASE, 64, ThreadId(1));
    let mut bytes = tracker.checkpoint_bytes();
    let back = CrossThreadTracker::from_checkpoint_bytes(&bytes).unwrap();
    assert_eq!(back.checkpoint_bytes(), bytes);
    assert_eq!(back.tracked_bytes(), tracker.tracked_bytes());
    bytes.push(0);
    assert!(CrossThreadTracker::from_checkpoint_bytes(&bytes).is_err());
    bytes.truncate(bytes.len() - 3);
    assert!(CrossThreadTracker::from_checkpoint_bytes(&bytes).is_err());
    // No event carries a size above u32::MAX, so no checkpoint does.
    let mut huge = ScanningTracker::default();
    huge.on_store(0, BASE, 1 << 40, ThreadId(0));
    assert!(CrossThreadTracker::from_checkpoint_bytes(&huge.checkpoint_bytes()).is_err());
}
