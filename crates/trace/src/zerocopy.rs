//! Zero-copy ingestion for pm-trace v2: detection directly over framed
//! bytes.
//!
//! For a complete v2 trace already in memory (or mapped into it), copying
//! bytes through a rolling buffer and materializing owned
//! [`PmEvent`](crate::PmEvent)s is pure overhead. [`MappedTrace`] maps (or
//! reads) a trace file as one borrowable slice; [`zero_copy`] classifies it
//! with [`ingest_bytes`](crate::ingest_bytes)'s sniffer; and
//! [`FrameWalker`] runs the crate's one v2 frame reader ([`crate::binfmt`])
//! over it, yielding borrowed [`PmEventRef`]s with **zero per-event
//! allocations**. Since the owned readers drive the same frame reader, a
//! full walk yields `ingest_bytes`'s events and a bit-identical
//! [`IngestReport`] (property-tested in
//! `crates/trace/tests/zerocopy_properties.rs`).

use std::time::Instant;

use crate::binfmt::{FrameReader, Step};
use crate::events::PmEventRef;
use crate::ingest::{
    classify, IngestError, IngestLimits, IngestMode, IngestReport, TraceFormat, CHUNK,
};

/// How [`zero_copy`] classified the input.
// The walker variant is large (the frame reader's state and report live
// inline), but the enum is a transient return value that every caller
// destructures on the spot — boxing it would put a heap allocation on the
// entry path to save stack bytes nothing ever stores.
#[allow(clippy::large_enum_variant)]
pub enum ZeroCopy<'a> {
    /// A v2 binary image (or, in salvage mode, a headerless one with frame
    /// magics to lock onto): walk it in place.
    Binary(FrameWalker<'a>),
    /// v1 text (or salvage-accepted headerless text). Text parsing builds
    /// owned strings line by line anyway, so there is no zero-copy win:
    /// callers fall back to [`crate::ingest_bytes`].
    Text,
}

/// Classifies an in-memory trace image exactly like
/// [`crate::ingest_bytes`] and, for v2 binary input, returns the zero-copy
/// [`FrameWalker`] over it.
///
/// # Errors
///
/// [`IngestError::Empty`] and [`IngestError::UnknownFormat`] under exactly
/// the conditions [`crate::ingest_bytes`] produces them.
pub fn zero_copy<'a>(
    bytes: &'a [u8],
    mode: IngestMode,
    limits: &IngestLimits,
) -> Result<ZeroCopy<'a>, IngestError> {
    let start = Instant::now();
    // The owned reader sniffs its first read chunk, never more than the
    // byte budget: classify the same window.
    let head = usize::try_from(limits.max_bytes).map_or(CHUNK, |cap| cap.min(CHUNK));
    if classify(&bytes[..bytes.len().min(head)], mode)? == TraceFormat::TextV1 {
        return Ok(ZeroCopy::Text);
    }
    let mut walker = FrameWalker {
        data: bytes,
        reader: FrameReader::new(mode, limits, start),
    };
    walker.grow();
    Ok(ZeroCopy::Binary(walker))
}

/// An in-place walk over a v2 binary image, yielding borrowed events. The
/// frame reader's window grows one simulated 64 KiB read chunk at a time,
/// like the owned reader's refills, so even `bytes_read` matches it.
pub struct FrameWalker<'a> {
    data: &'a [u8],
    reader: FrameReader<PmEventRef<'a>>,
}

impl<'a> FrameWalker<'a> {
    /// Simulates one owned-reader refill: the window grows by one read
    /// chunk, capped by the byte budget.
    fn grow(&mut self) {
        let read = self.reader.bytes_read() as usize;
        self.reader.admit(CHUNK.min(self.data.len() - read));
        if self.reader.bytes_read() as usize == self.data.len() {
            self.reader.finish();
        }
    }

    /// Pulls the next decoded event, borrowed from the underlying bytes.
    /// `Ok(None)` means the walk is over (drained, truncated by a budget,
    /// or previously errored); consult [`FrameWalker::report`].
    ///
    /// # Errors
    ///
    /// In [`IngestMode::Strict`] only: [`IngestError::Corrupt`] at the
    /// first bad frame, with the same locus and reason as the owned
    /// reader.
    #[inline]
    pub fn next_ref(&mut self) -> Result<Option<PmEventRef<'a>>, IngestError> {
        // Served ahead of the `Step` plumbing: the per-event fast path.
        if let Some(event) = self.reader.serve() {
            return Ok(Some(event));
        }
        let data: &'a [u8] = self.data;
        loop {
            let window = &data[..self.reader.bytes_read() as usize];
            match self.reader.next(window, |event| event)? {
                Step::Event(event) => return Ok(Some(event)),
                Step::NeedMore => self.grow(),
                Step::Done => return Ok(None),
            }
        }
    }

    /// Drives the walk to completion, invoking `f` on every remaining
    /// event — observably the same as a [`FrameWalker::next_ref`] loop, but
    /// whole prevalidated batches are served with batch-wide accounting.
    ///
    /// # Errors
    ///
    /// Exactly [`FrameWalker::next_ref`]'s: [`IngestError::Corrupt`] at
    /// the first bad frame in [`IngestMode::Strict`].
    pub fn for_each_ref<F>(&mut self, mut f: F) -> Result<(), IngestError>
    where
        F: FnMut(PmEventRef<'a>),
    {
        loop {
            self.reader.drain_batch(&mut f);
            // Refill (or finish) through the reader; this also serves the
            // first event of the next batch.
            match self.next_ref()? {
                Some(event) => f(event),
                None => return Ok(()),
            }
        }
    }

    /// The accounting so far; final (and bit-identical to the owned
    /// reader's) once [`FrameWalker::next_ref`] has returned `Ok(None)`.
    pub fn report(&self) -> &IngestReport {
        self.reader.report()
    }

    /// Consumes the walker and returns its final report, finalizing the
    /// accounting if the walk was abandoned mid-stream.
    pub fn into_report(mut self) -> IngestReport {
        if !self.reader.is_done() {
            self.reader.refresh();
        }
        self.reader.report().clone()
    }
}

/// A trace file made borrowable: memory-mapped when the platform allows,
/// read into an owned buffer otherwise. Either way the bytes are reachable
/// as one `&[u8]` for [`zero_copy`].
pub struct MappedTrace {
    inner: Mapping,
}

enum Mapping {
    #[cfg(unix)]
    Mmap {
        ptr: *mut std::ffi::c_void,
        len: usize,
    },
    Owned(Vec<u8>),
}

// The mapping is read-only and owned exclusively by this struct.
#[cfg(unix)]
unsafe impl Send for MappedTrace {}
#[cfg(unix)]
unsafe impl Sync for MappedTrace {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl MappedTrace {
    /// Opens `path` for zero-copy reading. On Unix this memory-maps the
    /// file (read-only, private), so multi-GB traces cost address space,
    /// not RSS; anywhere the map cannot be established (empty file, map
    /// failure, non-Unix platform) it falls back to reading the file into
    /// memory, which preserves the API at the cost of one copy.
    ///
    /// # Errors
    ///
    /// Any I/O error from opening or reading the file.
    pub fn open(path: &std::path::Path) -> std::io::Result<Self> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if len > 0 && len <= usize::MAX as u64 {
                let len = len as usize;
                // SAFETY: mapping a freshly opened file descriptor
                // read-only/private; the fd may be closed after mmap
                // returns (the mapping keeps its own reference), and the
                // pointer is unmapped exactly once in Drop.
                let ptr = unsafe {
                    sys::mmap(
                        std::ptr::null_mut(),
                        len,
                        sys::PROT_READ,
                        sys::MAP_PRIVATE,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if ptr as isize != -1 && !ptr.is_null() {
                    return Ok(MappedTrace {
                        inner: Mapping::Mmap { ptr, len },
                    });
                }
            }
            // Empty file or failed map: fall through to an owned read.
        }
        Ok(MappedTrace {
            inner: Mapping::Owned(std::fs::read(path)?),
        })
    }

    /// Wraps an already-owned byte image (useful for tests and for inputs
    /// that arrived over a socket).
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        MappedTrace {
            inner: Mapping::Owned(bytes),
        }
    }

    /// The trace bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            // SAFETY: ptr/len come from a successful mmap that lives until
            // Drop; the mapping is never written through.
            Mapping::Mmap { ptr, len } => unsafe {
                std::slice::from_raw_parts((*ptr).cast::<u8>(), *len)
            },
            Mapping::Owned(v) => v,
        }
    }

    /// Whether the bytes are an OS memory map (false: owned fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Mapping::Mmap { .. } => true,
            Mapping::Owned(_) => false,
        }
    }
}

impl Drop for MappedTrace {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Mapping::Mmap { ptr, len } = self.inner {
            // SAFETY: exactly one unmap of a successful map.
            unsafe {
                sys::munmap(ptr, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::to_binary;
    use crate::events::{FenceKind, PmEvent, ThreadId};
    use crate::ingest::ingest_bytes;
    use crate::recorder::Trace;

    fn store(addr: u64) -> PmEvent {
        PmEvent::Store {
            addr,
            size: 8,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        }
    }

    fn fence() -> PmEvent {
        PmEvent::Fence {
            kind: FenceKind::Sfence,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        }
    }

    fn sample_trace(n: u64) -> Trace {
        (0..n).flat_map(|i| [store(i * 64), fence()]).collect()
    }

    /// Drains a walker into owned events plus its final report.
    fn drain(
        bytes: &[u8],
        mode: IngestMode,
        limits: &IngestLimits,
    ) -> (Vec<PmEvent>, IngestReport) {
        match zero_copy(bytes, mode, limits).expect("classifies as binary") {
            ZeroCopy::Binary(mut walker) => {
                let mut events = Vec::new();
                while let Some(event) = walker.next_ref().expect("no strict error") {
                    events.push(event.to_owned());
                }
                let report = walker.report().clone();
                (events, report)
            }
            ZeroCopy::Text => panic!("expected binary"),
        }
    }

    fn assert_identical(bytes: &[u8], mode: IngestMode, limits: &IngestLimits) {
        let (events, mut report) = drain(bytes, mode, limits);
        let (trace, mut owned_report) = ingest_bytes(bytes, mode, limits).expect("owned ingests");
        assert_eq!(events, trace.events());
        // Wall-clock is the one inherently run-dependent field; everything
        // else must match bit for bit.
        assert!(report.elapsed > std::time::Duration::ZERO);
        assert!(owned_report.elapsed > std::time::Duration::ZERO);
        report.elapsed = std::time::Duration::ZERO;
        owned_report.elapsed = std::time::Duration::ZERO;
        assert_eq!(report, owned_report);
    }

    #[test]
    fn clean_image_walks_identically_to_owned_ingest() {
        let bytes = to_binary(&sample_trace(500));
        assert_identical(&bytes, IngestMode::Strict, &IngestLimits::default());
        assert_identical(&bytes, IngestMode::Salvage, &IngestLimits::default());
    }

    #[test]
    fn corrupt_frame_salvages_identically() {
        let mut bytes = to_binary(&sample_trace(50));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_identical(&bytes, IngestMode::Salvage, &IngestLimits::default());
    }

    #[test]
    fn strict_error_matches_owned_reader() {
        let mut bytes = to_binary(&sample_trace(50));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let walker_err = match zero_copy(&bytes, IngestMode::Strict, &IngestLimits::default()) {
            Ok(ZeroCopy::Binary(mut walker)) => loop {
                match walker.next_ref() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("expected a strict error"),
                    Err(e) => break e,
                }
            },
            _ => panic!("expected binary"),
        };
        let owned_err =
            ingest_bytes(&bytes, IngestMode::Strict, &IngestLimits::default()).unwrap_err();
        assert_eq!(walker_err.to_string(), owned_err.to_string());
    }

    #[test]
    fn headerless_binary_salvage_entry_matches() {
        let clean = to_binary(&sample_trace(10));
        let mut bytes = b"garbage prefix!".to_vec();
        bytes.extend_from_slice(&clean);
        assert_identical(&bytes, IngestMode::Salvage, &IngestLimits::default());
    }

    #[test]
    fn event_budget_matches_chunked_bytes_read() {
        // A trace spanning several 64 KiB chunks, stopped early by the
        // event budget: `bytes_read` must reproduce the owned reader's
        // chunk-granular refill accounting.
        let bytes = to_binary(&sample_trace(4_000));
        assert!(bytes.len() > 2 * CHUNK);
        for cap in [1u64, 25, 1000, 7999, 8000] {
            let limits = IngestLimits::default().with_max_events(cap);
            assert_identical(&bytes, IngestMode::Salvage, &limits);
        }
    }

    #[test]
    fn byte_budget_matches_including_exact_boundary() {
        let bytes = to_binary(&sample_trace(200));
        for budget in [
            9u64,
            100,
            bytes.len() as u64 / 2,
            bytes.len() as u64 - 1,
            bytes.len() as u64, // equality still reports Bytes truncation
            bytes.len() as u64 + 1,
        ] {
            let limits = IngestLimits::default().with_max_bytes(budget);
            assert_identical(&bytes, IngestMode::Salvage, &limits);
        }
    }

    #[test]
    fn classification_errors_match_owned_reader() {
        let cases: &[&[u8]] = &[
            b"",
            b"\x7fELF\x02\x01\x01\0junk",
            b"once upon a time\nthere was a trace\n",
            b"# pm-trace v9\nstore addr=0x0 size=8 tid=0\n",
        ];
        for case in cases {
            for mode in [IngestMode::Strict, IngestMode::Salvage] {
                let zc = zero_copy(case, mode, &IngestLimits::default())
                    .map(|_| ())
                    .expect_err("classification error")
                    .to_string();
                let owned = ingest_bytes(case, mode, &IngestLimits::default())
                    .map(|_| ())
                    .expect_err("classification error")
                    .to_string();
                assert_eq!(zc, owned);
            }
        }
    }

    #[test]
    fn text_inputs_route_to_the_owned_reader() {
        let text = b"# pm-trace v1\nstore addr=0x0 size=8 tid=0\n";
        assert!(matches!(
            zero_copy(text, IngestMode::Strict, &IngestLimits::default()),
            Ok(ZeroCopy::Text)
        ));
        // Headerless text is a salvage-only entry, like the owned reader.
        let headerless = b"store addr=0x0 size=8 tid=0\n";
        assert!(matches!(
            zero_copy(headerless, IngestMode::Salvage, &IngestLimits::default()),
            Ok(ZeroCopy::Text)
        ));
        assert!(zero_copy(headerless, IngestMode::Strict, &IngestLimits::default()).is_err());
    }

    #[test]
    fn walker_events_borrow_from_the_input() {
        let trace: Trace = vec![PmEvent::FuncEnter {
            name: "recover".into(),
            tid: ThreadId(0),
        }]
        .into_iter()
        .collect();
        let bytes = to_binary(&trace);
        let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        match zero_copy(&bytes, IngestMode::Strict, &IngestLimits::default()).unwrap() {
            ZeroCopy::Binary(mut walker) => {
                match walker.next_ref().unwrap() {
                    Some(PmEventRef::FuncEnter { name, .. }) => {
                        assert!(range.contains(&(name.as_ptr() as usize)));
                        assert_eq!(name, "recover");
                    }
                    other => panic!("unexpected {other:?}"),
                }
                assert!(walker.next_ref().unwrap().is_none());
                assert!(walker.report().clean());
            }
            ZeroCopy::Text => panic!("expected binary"),
        }
    }

    #[test]
    fn mapped_trace_round_trips_a_file() {
        let trace = sample_trace(64);
        let bytes = to_binary(&trace);
        let path = std::env::temp_dir().join(format!("pmdbg-zc-{}.pmt2", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = MappedTrace::open(&path).unwrap();
        assert_eq!(mapped.bytes(), &bytes[..]);
        let (events, report) = {
            match zero_copy(mapped.bytes(), IngestMode::Strict, &IngestLimits::default()).unwrap() {
                ZeroCopy::Binary(mut walker) => {
                    let mut events = Vec::new();
                    while let Some(event) = walker.next_ref().unwrap() {
                        events.push(event.to_owned());
                    }
                    (events, walker.report().clone())
                }
                ZeroCopy::Text => panic!("expected binary"),
            }
        };
        assert_eq!(events, trace.events());
        assert!(report.clean());
        assert!(report.elapsed > std::time::Duration::ZERO || report.frames_ok > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_uses_the_owned_fallback() {
        let path = std::env::temp_dir().join(format!("pmdbg-zc-empty-{}", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let mapped = MappedTrace::open(&path).unwrap();
        assert!(mapped.bytes().is_empty());
        assert!(!mapped.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }
}
