//! CLF-interval metadata (paper §4.1, Figure 5 right).
//!
//! Store instructions between two neighbouring CLF instructions form a CLF
//! interval. Per interval PMDebugger keeps: the array index range of its
//! stores, the min/max address of the locations it updated, and a collective
//! flushing state. The metadata enables collective O(1) state updates when a
//! single CLF covers the whole interval (pattern 2) and collective O(1)
//! deletion at fences (pattern 1).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use pm_trace::Addr;

use crate::ckpt::{self, CheckpointDecodeError, CkptReader, CkptWriter};

/// A multiplicative hasher for cache-line addresses and other integer
/// keys; the store path runs once per store, so SipHash would dominate it.
///
/// `finish` rotates the product: a cache-line base has its low 6 bits
/// zero, so the raw product does too, and the hash table picks buckets
/// from the low bits. The rotation brings well-mixed high bits down.
#[derive(Debug, Default, Clone, Copy)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0 ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A `HashMap` keyed by cache lines (or other integers) under [`LineHasher`].
pub(crate) type LineHashMap<K, V> = HashMap<K, V, BuildHasherDefault<LineHasher>>;

/// End-of-chain marker for slot chains.
pub(crate) const NIL: u32 = u32::MAX;

/// A `Vec` index as a compact chain link. Every slot is heap memory, so
/// allocation fails long before 2^32 - 1 of them exist.
pub(crate) fn slot_index(idx: usize) -> u32 {
    u32::try_from(idx)
        .ok()
        .filter(|&i| i != NIL)
        .expect("fewer than 2^32 - 1 slots")
}

/// One link of a per-line chain: an interval that stored to the line, and
/// the next (older) link.
#[derive(Debug, Clone, Copy)]
struct LineSlot {
    interval: u32,
    next: u32,
}

/// Collective flushing state of a CLF interval (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntervalState {
    /// No location updated in the interval has been flushed.
    NotFlushed,
    /// Some but not all locations have been flushed.
    PartiallyFlushed,
    /// Every location updated in the interval has been flushed.
    AllFlushed,
}

/// Metadata for one CLF interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalMeta {
    /// Array index of the interval's first store.
    pub start: usize,
    /// Array index of the interval's last store (inclusive).
    pub end: usize,
    /// Minimum address updated in the interval.
    pub min_addr: Addr,
    /// One past the maximum address updated in the interval.
    pub max_end: Addr,
    /// Collective flushing state.
    pub state: IntervalState,
}

impl IntervalMeta {
    /// Returns `true` when `[addr, addr+len)` covers the interval's whole
    /// address range.
    #[inline]
    pub fn covered_by(&self, addr: Addr, len: u64) -> bool {
        addr <= self.min_addr
            && self.min_addr < self.max_end
            && self.max_end <= addr.saturating_add(len)
    }

    /// Returns `true` when `[addr, addr+len)` overlaps the interval's
    /// address range at all.
    #[inline]
    pub fn overlaps(&self, addr: Addr, len: u64) -> bool {
        self.min_addr < addr.saturating_add(len) && addr < self.max_end
    }
}

/// The per-fence-interval list of CLF-interval metadata.
///
/// The paper uses a linked list; a `Vec` preserves the same access pattern
/// (append at tail, in-order traversal, wholesale clear at fences) without
/// pointer chasing.
#[derive(Debug, Clone, Default)]
pub struct IntervalList {
    intervals: Vec<IntervalMeta>,
    /// Whether the tail interval is still accepting stores (no CLF seen
    /// since its first store).
    open: bool,
    /// Cache line → intervals that stored to it. CLF processing visits only
    /// the intervals whose stores the flush can actually touch, keeping
    /// giant transactions (thousands of CLF intervals per fence interval,
    /// e.g. a hashmap rehash) linear instead of quadratic. An interval's
    /// bounding box can only be covered by a flush that also covers its
    /// store lines, so the index loses no state transitions.
    ///
    /// Each line maps to the head of a chain in `line_slots`, newest
    /// interval first. Both containers are cleared, not freed, at fences,
    /// so a steady-state fence interval allocates nothing.
    line_map: LineHashMap<Addr, u32>,
    line_slots: Vec<LineSlot>,
}

impl IntervalList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a store at array index `idx` updating `[addr, addr+size)`.
    ///
    /// Opens a new interval if the previous one was closed by a CLF.
    pub fn record_store(&mut self, idx: usize, addr: Addr, size: u64) {
        let end_addr = addr.saturating_add(size);
        if self.open {
            let tail = self
                .intervals
                .last_mut()
                .expect("open flag implies a tail interval");
            tail.end = idx;
            tail.min_addr = tail.min_addr.min(addr);
            tail.max_end = tail.max_end.max(end_addr);
        } else {
            self.intervals.push(IntervalMeta {
                start: idx,
                end: idx,
                min_addr: addr,
                max_end: end_addr,
                state: IntervalState::NotFlushed,
            });
            self.open = true;
        }
        let interval = slot_index(self.intervals.len() - 1);
        for line in pmem_sim::lines_covering(addr, size as usize) {
            let head = self.line_map.entry(line).or_insert(NIL);
            if *head != NIL && self.line_slots[*head as usize].interval == interval {
                continue;
            }
            self.line_slots.push(LineSlot {
                interval,
                next: *head,
            });
            *head = slot_index(self.line_slots.len() - 1);
        }
    }

    /// Chain of intervals that stored to `line`, newest first.
    fn line_chain(&self, line: Addr) -> impl Iterator<Item = usize> + '_ {
        let mut slot = self.line_map.get(&line).copied().unwrap_or(NIL);
        std::iter::from_fn(move || {
            let link = self.line_slots.get(slot as usize)?;
            slot = link.next;
            Some(link.interval as usize)
        })
    }

    /// Fills `out` with the indices of intervals that stored to any line of
    /// `[addr, addr+len)`, ascending and deduplicated. `out` is a buffer
    /// the caller reuses across flushes.
    pub fn candidates(&self, addr: Addr, len: u64, out: &mut Vec<usize>) {
        out.clear();
        for line in pmem_sim::lines_covering(addr, len as usize) {
            out.extend(self.line_chain(line));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Closes the current interval: the next store starts a new one.
    /// Called when processing a CLF (§4.3: "PMDebugger starts a new CLF
    /// interval").
    pub fn close_current(&mut self) {
        self.open = false;
    }

    /// The recorded intervals in order.
    pub fn intervals(&self) -> &[IntervalMeta] {
        &self.intervals
    }

    /// Mutable access to the recorded intervals.
    pub fn intervals_mut(&mut self) -> &mut [IntervalMeta] {
        &mut self.intervals
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Removes all metadata (end of fence interval, §4.4).
    pub fn clear(&mut self) {
        self.intervals.clear();
        self.line_map.clear();
        self.line_slots.clear();
        self.open = false;
    }

    /// Heap bytes held by the interval metadata and the line index: one
    /// map entry (line + chain head) per indexed line plus the live chain
    /// slots. Slot storage kept for reuse after a fence is not counted.
    pub fn tracked_bytes(&self) -> u64 {
        let intervals = self.intervals.capacity() * std::mem::size_of::<IntervalMeta>();
        let map_entries =
            self.line_map.len() * (std::mem::size_of::<Addr>() + std::mem::size_of::<u32>());
        let slots = self.line_slots.len() * std::mem::size_of::<LineSlot>();
        (intervals + map_entries + slots) as u64
    }

    pub(crate) fn encode_into(&self, w: &mut CkptWriter) {
        w.bool(self.open);
        w.usize(self.intervals.len());
        for meta in &self.intervals {
            w.usize(meta.start);
            w.usize(meta.end);
            w.varint(meta.min_addr);
            w.varint(meta.max_end);
            w.u8(match meta.state {
                IntervalState::NotFlushed => 0,
                IntervalState::PartiallyFlushed => 1,
                IntervalState::AllFlushed => 2,
            });
        }
        // The line map cannot be reconstructed from the intervals (flush
        // splits rewrite entry ranges after the map was populated from the
        // original store arguments), so it travels explicitly — in sorted
        // line order for a deterministic encoding.
        let lines = ckpt::sorted_entries(&self.line_map);
        w.usize(lines.len());
        let mut chain = Vec::new();
        for (&line, _) in lines {
            chain.clear();
            chain.extend(self.line_chain(line));
            w.varint(line);
            w.usize(chain.len());
            // Chains run newest first; the encoding lists slots ascending.
            for &interval in chain.iter().rev() {
                w.usize(interval);
            }
        }
    }

    pub(crate) fn decode_from(r: &mut CkptReader) -> Result<Self, CheckpointDecodeError> {
        let open = r.bool()?;
        let interval_count = r.count()?;
        if open && interval_count == 0 {
            return Err(ckpt::corrupt("interval list open with no tail interval"));
        }
        let mut intervals = Vec::with_capacity(interval_count.min(4096));
        for _ in 0..interval_count {
            let start = r.varint()? as usize;
            let end = r.varint()? as usize;
            let min_addr = r.varint()?;
            let max_end = r.varint()?;
            let state = match r.u8()? {
                0 => IntervalState::NotFlushed,
                1 => IntervalState::PartiallyFlushed,
                2 => IntervalState::AllFlushed,
                b => {
                    return Err(ckpt::corrupt(format!(
                        "invalid interval-state byte {b:#04x}"
                    )))
                }
            };
            intervals.push(IntervalMeta {
                start,
                end,
                min_addr,
                max_end,
                state,
            });
        }
        let line_count = r.count()?;
        let mut line_map = LineHashMap::default();
        let mut line_slots = Vec::new();
        for _ in 0..line_count {
            let line = r.varint()?;
            let slot_count = r.count()?;
            let mut head = NIL;
            for _ in 0..slot_count {
                let slot = r.varint()? as usize;
                if slot >= intervals.len() {
                    return Err(ckpt::corrupt(format!(
                        "line-map slot {slot} references a missing interval"
                    )));
                }
                line_slots.push(LineSlot {
                    interval: slot_index(slot),
                    next: head,
                });
                head = slot_index(line_slots.len() - 1);
            }
            line_map.insert(line, head);
        }
        Ok(IntervalList {
            intervals,
            open,
            line_map,
            line_slots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_accumulate_into_open_interval() {
        let mut list = IntervalList::new();
        list.record_store(0, 100, 8);
        list.record_store(1, 50, 4);
        list.record_store(2, 200, 16);
        assert_eq!(list.len(), 1);
        let meta = list.intervals()[0];
        assert_eq!(meta.start, 0);
        assert_eq!(meta.end, 2);
        assert_eq!(meta.min_addr, 50);
        assert_eq!(meta.max_end, 216);
    }

    #[test]
    fn clf_closes_interval_and_next_store_opens_new() {
        let mut list = IntervalList::new();
        list.record_store(0, 0, 8);
        list.close_current();
        list.record_store(1, 64, 8);
        assert_eq!(list.len(), 2);
        assert_eq!(list.intervals()[1].start, 1);
    }

    #[test]
    fn covered_by_requires_full_containment() {
        let mut list = IntervalList::new();
        list.record_store(0, 10, 10);
        list.record_store(1, 30, 10);
        let meta = list.intervals()[0];
        assert!(meta.covered_by(0, 64));
        assert!(meta.covered_by(10, 30));
        assert!(!meta.covered_by(10, 20));
        assert!(!meta.covered_by(15, 64));
    }

    #[test]
    fn overlaps_is_partial() {
        let mut list = IntervalList::new();
        list.record_store(0, 100, 50);
        let meta = list.intervals()[0];
        assert!(meta.overlaps(140, 20));
        assert!(meta.overlaps(0, 101));
        assert!(!meta.overlaps(0, 100));
        assert!(!meta.overlaps(150, 10));
    }

    #[test]
    fn clear_resets_everything() {
        let mut list = IntervalList::new();
        list.record_store(0, 0, 8);
        list.clear();
        assert!(list.is_empty());
        list.record_store(5, 64, 8);
        assert_eq!(list.intervals()[0].start, 5);
    }

    #[test]
    fn candidates_index_finds_storing_intervals() {
        let mut list = IntervalList::new();
        list.record_store(0, 0, 8); // interval 0: line 0
        list.close_current();
        list.record_store(1, 128, 8); // interval 1: line 128
        list.close_current();
        list.record_store(2, 8, 8); // interval 2: line 0 again
        let mut out = Vec::new();
        list.candidates(0, 64, &mut out);
        assert_eq!(out, vec![0, 2]);
        list.candidates(128, 8, &mut out);
        assert_eq!(out, vec![1]);
        list.candidates(256, 64, &mut out);
        assert!(out.is_empty());
        list.candidates(0, 256, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn candidates_cleared_with_list() {
        let mut list = IntervalList::new();
        list.record_store(0, 0, 8);
        list.clear();
        let mut out = vec![7];
        list.candidates(0, 64, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn line_hash_spreads_consecutive_lines_over_low_bits() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<LineHasher>::default();
        for base in [0u64, 0x1000_0000, 0x7f00_0000_0000] {
            let low: std::collections::HashSet<u64> = (0..64)
                .map(|i| build.hash_one(base + i * 64) & 63)
                .collect();
            assert!(low.len() >= 32, "base {base:#x}: {} distinct", low.len());
        }
    }

    #[test]
    fn tracked_bytes_counts_live_slots_and_returns_after_clear() {
        let mut list = IntervalList::new();
        list.record_store(0, 0, 8);
        list.clear();
        let empty = list.tracked_bytes();
        list.record_store(0, 0, 8192); // 128 lines
        let wide = list.tracked_bytes();
        let per_line = (std::mem::size_of::<Addr>()
            + std::mem::size_of::<u32>()
            + std::mem::size_of::<LineSlot>()) as u64;
        assert_eq!(wide - empty, 128 * per_line);
        list.clear();
        assert_eq!(list.tracked_bytes(), empty);
    }

    #[test]
    fn line_chains_survive_checkpoint_in_ascending_order() {
        let mut list = IntervalList::new();
        for (idx, addr) in [0u64, 128, 8, 16].into_iter().enumerate() {
            list.record_store(idx, addr, 8);
            list.close_current();
        }
        let mut w = CkptWriter::new();
        list.encode_into(&mut w);
        let bytes = w.into_bytes();
        let back = IntervalList::decode_from(&mut CkptReader::new(&bytes)).unwrap();
        let mut out = Vec::new();
        back.candidates(0, 64, &mut out);
        assert_eq!(out, vec![0, 2, 3]);
        let mut again = CkptWriter::new();
        back.encode_into(&mut again);
        assert_eq!(again.into_bytes(), bytes);
        // Decoding rebuilds the chain newest first.
        let line0: Vec<usize> = back.line_chain(0).collect();
        assert_eq!(line0, vec![3, 2, 0]);
    }

    #[test]
    fn consecutive_clfs_do_not_create_empty_intervals() {
        let mut list = IntervalList::new();
        list.record_store(0, 0, 8);
        list.close_current();
        list.close_current();
        list.close_current();
        assert_eq!(list.len(), 1);
    }
}
