//! Bounded-memory streaming trace ingestion with graceful degradation.
//!
//! `pmdbg` consumes recorded traces that may be multi-GB, partially
//! written (a recorder that died mid-run), or bit-rotted. This module is
//! the entry point for reading them:
//!
//! * **Auto-sniffing** — one classifier looks at the first read chunk and
//!   picks the v1 text parser or the v2 binary frame reader; unknown input
//!   produces a diagnostic naming both expected formats and what was
//!   found instead. [`crate::zero_copy`] calls the same classifier.
//! * **Two modes** — [`IngestMode::Strict`] aborts on the first corrupt
//!   frame/line (with offset and reason); [`IngestMode::Salvage`] skips
//!   it, resynchronizes on the next frame magic (binary) or line boundary
//!   (text), and keeps going. Salvage always recovers every frame that
//!   precedes the first corruption point — the invariant the corruption
//!   torture harness in `pm-chaos` sweeps.
//! * **Hard budgets** — [`IngestLimits`] caps decoded events, consumed
//!   bytes and wall-clock time, so no input — however adversarial — can
//!   hang or OOM the CLI. Hitting a budget is reported as a truncation on
//!   a useful partial result, never an error.
//! * **Accounting** — every read returns an [`IngestReport`]
//!   (frames ok/skipped, resyncs, bytes salvaged, first/last error), which
//!   the CLI surfaces as `ingest.*` metrics in the run manifest.
//!
//! v2 frames go through the crate's one frame reader ([`crate::binfmt`]):
//! [`StreamDecoder`] runs it over a rolling buffer, and [`ingest_reader`]'s
//! binary branch pushes read chunks into a `StreamDecoder`. Memory stays
//! bounded by one maximum frame plus one read chunk regardless of input
//! size; the decoded [`Trace`] is bounded by `max_events`.

use std::fmt;
use std::io::Read;
use std::time::{Duration, Instant};

use crate::binfmt::{contains_frame_magic, FrameReader, Step, FILE_MAGIC};
use crate::events::PmEvent;
use crate::format;
use crate::recorder::Trace;

/// Read chunk size for the rolling buffer (shared with the zero-copy
/// walker, which simulates these refills for bit-identical accounting).
pub(crate) const CHUNK: usize = 64 * 1024;

/// Longest text line the streaming reader accepts before declaring the
/// line corrupt (the text format's analogue of [`crate::binfmt::MAX_FRAME_LEN`]).
const MAX_LINE_LEN: usize = 64 * 1024;

/// Bytes inspected when sniffing the format.
const SNIFF_LEN: usize = 4096;

/// On-disk trace formats the reader understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// `# pm-trace v1` line-oriented text ([`crate::format`]).
    TextV1,
    /// `PMTRACE2` framed binary ([`crate::binfmt`]).
    BinV2,
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormat::TextV1 => write!(f, "pm-trace v1 (text)"),
            TraceFormat::BinV2 => write!(f, "pm-trace v2 (binary)"),
        }
    }
}

/// How the reader treats corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// Abort on the first corrupt frame or line.
    Strict,
    /// Skip corrupt frames, resync on the next frame magic (binary) or
    /// line boundary (text), and return what was recovered.
    Salvage,
}

/// Hard resource budgets for one ingestion. Every budget that bites turns
/// into an [`IngestTruncation`] on the report rather than an error: a
/// partial trace with explicit accounting beats an OOM kill.
#[derive(Debug, Clone)]
pub struct IngestLimits {
    /// Maximum events decoded into the returned [`Trace`].
    pub max_events: u64,
    /// Maximum bytes consumed from the input.
    pub max_bytes: u64,
    /// Wall-clock ceiling for the whole read; `None` means unbounded.
    pub deadline: Option<Duration>,
}

impl Default for IngestLimits {
    fn default() -> Self {
        IngestLimits {
            // ~50M events ≈ a few GB of decoded trace: far above every
            // workload here, low enough to keep a laptop alive.
            max_events: 50_000_000,
            max_bytes: 4 << 30,
            deadline: None,
        }
    }
}

impl IngestLimits {
    /// Sets the decoded-event cap.
    pub fn with_max_events(mut self, n: u64) -> Self {
        self.max_events = n;
        self
    }

    /// Sets the consumed-byte cap.
    pub fn with_max_bytes(mut self, n: u64) -> Self {
        self.max_bytes = n;
        self
    }

    /// Sets the wall-clock ceiling.
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// The deadline truncation, once a read begun at `start` is out of time.
    pub(crate) fn expired(&self, start: Instant) -> Option<IngestTruncation> {
        let limit = self.deadline.filter(|&d| start.elapsed() >= d)?;
        Some(IngestTruncation::Deadline {
            limit_ms: limit.as_millis() as u64,
        })
    }
}

/// A budget that actually bit during ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestTruncation {
    /// The decoded-event cap was reached.
    Events {
        /// The configured cap.
        limit: u64,
    },
    /// The consumed-byte cap was reached.
    Bytes {
        /// The configured cap.
        limit: u64,
    },
    /// The wall-clock ceiling expired.
    Deadline {
        /// The configured ceiling, in milliseconds.
        limit_ms: u64,
    },
}

impl fmt::Display for IngestTruncation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestTruncation::Events { limit } => {
                write!(f, "stopped at the {limit}-event budget")
            }
            IngestTruncation::Bytes { limit } => {
                write!(f, "stopped at the {limit}-byte budget")
            }
            IngestTruncation::Deadline { limit_ms } => {
                write!(f, "stopped at the {limit_ms} ms deadline")
            }
        }
    }
}

/// One corruption the reader observed: where, and what was wrong. For the
/// binary format `locus` is a byte offset; for text it is a 1-based line
/// number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// Byte offset (binary) or 1-based line number (text).
    pub locus: u64,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}: {}", self.locus, self.reason)
    }
}

/// Accounting for one ingestion, shared between the binary and text paths
/// (and mirrored by [`format::from_text_salvage`]'s error list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Detected (or forced) input format.
    pub format: TraceFormat,
    /// Mode the read ran under.
    pub mode: IngestMode,
    /// Frames (binary) or event lines (text) decoded successfully.
    pub frames_ok: u64,
    /// Frames/lines decoded before any corruption was observed — the
    /// stream's pristine prefix. `frames_ok = frames_clean +
    /// frames_resynced`, so a session's salvage decisions are auditable
    /// from the report alone.
    pub frames_clean: u64,
    /// Frames/lines decoded *after* at least one corruption, i.e. frames
    /// that exist in the output only because salvage mode re-locked onto
    /// the stream instead of aborting.
    pub frames_resynced: u64,
    /// Corrupt frames/lines skipped (Salvage mode only).
    pub frames_skipped: u64,
    /// Times the binary reader re-locked onto a frame magic after
    /// corruption (text recovers at line granularity and never counts
    /// resyncs).
    pub resyncs: u64,
    /// Total bytes consumed from the input.
    pub bytes_read: u64,
    /// Bytes of frames/lines successfully decoded into events.
    pub bytes_salvaged: u64,
    /// Wall-clock time the ingestion took.
    pub elapsed: Duration,
    /// The budget that stopped the read early, if any.
    pub truncated: Option<IngestTruncation>,
    /// First corruption observed.
    pub first_error: Option<FrameError>,
    /// Last corruption observed.
    pub last_error: Option<FrameError>,
}

impl IngestReport {
    pub(crate) fn new(format: TraceFormat, mode: IngestMode) -> Self {
        IngestReport {
            format,
            mode,
            frames_ok: 0,
            frames_clean: 0,
            frames_resynced: 0,
            frames_skipped: 0,
            resyncs: 0,
            bytes_read: 0,
            bytes_salvaged: 0,
            elapsed: Duration::ZERO,
            truncated: None,
            first_error: None,
            last_error: None,
        }
    }

    /// Counts one corrupt frame/line skipped at `locus`.
    pub(crate) fn record_skip(&mut self, locus: u64, reason: String) {
        self.frames_skipped += 1;
        let err = FrameError { locus, reason };
        if self.first_error.is_none() {
            self.first_error = Some(err.clone());
        }
        self.last_error = Some(err);
    }

    /// Counts decoded frames/lines and their bytes toward the clean prefix
    /// or, after the first error, the resynced tail.
    pub(crate) fn record_frames(&mut self, frames: u64, bytes: u64) {
        self.frames_ok += frames;
        self.bytes_salvaged += bytes;
        if self.first_error.is_none() {
            self.frames_clean += frames;
        } else {
            self.frames_resynced += frames;
        }
    }

    /// End-of-read bookkeeping shared by the text and v2 frame readers:
    /// total bytes pulled from the input, wall-clock elapsed since `start`,
    /// and, when no other budget stopped the read, the byte cap
    /// `capped_at` if it cut the input short.
    pub(crate) fn finalize(&mut self, bytes_read: u64, start: Instant, capped_at: Option<u64>) {
        self.bytes_read = bytes_read;
        self.elapsed = start.elapsed();
        if self.truncated.is_none() {
            self.truncated = capped_at.map(|limit| IngestTruncation::Bytes { limit });
        }
    }

    /// `true` when nothing was skipped or truncated — the input was
    /// wholly clean within budget.
    pub fn clean(&self) -> bool {
        self.frames_skipped == 0 && self.truncated.is_none() && self.first_error.is_none()
    }

    /// One-line human summary for the CLI.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "ingest [{}, {}]: {} frame(s) ok, {} skipped, {} resync(s), {} of {} byte(s) salvaged",
            self.format,
            match self.mode {
                IngestMode::Strict => "strict",
                IngestMode::Salvage => "salvage",
            },
            self.frames_ok,
            self.frames_skipped,
            self.resyncs,
            self.bytes_salvaged,
            self.bytes_read,
        );
        if let Some(t) = &self.truncated {
            out.push_str(&format!("; {t}"));
        }
        if let Some(e) = &self.first_error {
            out.push_str(&format!("; first error {e}"));
        }
        if let (Some(first), Some(last)) = (&self.first_error, &self.last_error) {
            if first != last {
                out.push_str(&format!("; last error {last}"));
            }
        }
        out
    }
}

/// Why an ingestion failed outright (as opposed to degrading).
#[derive(Debug)]
pub enum IngestError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The input is empty.
    Empty,
    /// The input matches neither known format.
    UnknownFormat {
        /// What the sniffer saw.
        detail: String,
    },
    /// Strict mode hit corruption.
    Corrupt {
        /// Format being parsed when the corruption appeared.
        format: TraceFormat,
        /// Byte offset (binary) or line number (text).
        locus: u64,
        /// Frames/lines decoded before the corruption.
        frames_ok: u64,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "trace read failed: {e}"),
            IngestError::Empty => write!(
                f,
                "empty trace file: expected a `{}` text header or `PMTRACE2` binary magic",
                format::HEADER
            ),
            IngestError::UnknownFormat { detail } => write!(
                f,
                "unrecognized trace format: expected a `{}` text header or `PMTRACE2` \
                 binary magic; {detail}",
                format::HEADER
            ),
            IngestError::Corrupt {
                format,
                locus,
                frames_ok,
                reason,
            } => {
                let where_ = match format {
                    TraceFormat::TextV1 => format!("line {locus}"),
                    TraceFormat::BinV2 => format!("byte {locus}"),
                };
                write!(
                    f,
                    "corrupt {format} input at {where_} (after {frames_ok} clean frame(s)): \
                     {reason}; re-run with --salvage to recover the readable frames"
                )
            }
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

/// Sniffs the format from the first bytes of an input. `None` means
/// neither format matched.
pub fn sniff_format(head: &[u8]) -> Option<TraceFormat> {
    if head.starts_with(&FILE_MAGIC) {
        return Some(TraceFormat::BinV2);
    }
    let first_line = first_line_of(head);
    if first_line.trim() == format::HEADER {
        return Some(TraceFormat::TextV1);
    }
    None
}

fn first_line_of(head: &[u8]) -> String {
    let window = &head[..head.len().min(SNIFF_LEN)];
    let line = match window.iter().position(|&b| b == b'\n') {
        Some(idx) => &window[..idx],
        None => window,
    };
    String::from_utf8_lossy(line).trim_end_matches('\r').into()
}

/// Whether a (non-empty) sniff window is mostly printable text.
fn looks_textual(head: &[u8]) -> bool {
    let window = &head[..head.len().min(SNIFF_LEN)];
    let printable = window
        .iter()
        .filter(|&&b| b == b'\n' || b == b'\r' || b == b'\t' || (0x20..0x7F).contains(&b))
        .count();
    printable * 10 >= window.len() * 9
}

/// Classifies an input from its first read chunk — the one sniffer behind
/// both [`ingest_reader`] and [`crate::zero_copy`]. Salvage mode also
/// accepts headerless v1 text whose first line parses as an event, and
/// binary images with a damaged file header but frame magics to lock onto.
pub(crate) fn classify(head: &[u8], mode: IngestMode) -> Result<TraceFormat, IngestError> {
    if head.is_empty() {
        return Err(IngestError::Empty);
    }
    if let Some(format) = sniff_format(head) {
        return Ok(format);
    }
    let first_line = first_line_of(head);
    if first_line.trim_start().starts_with("# pm-trace") {
        return Err(IngestError::UnknownFormat {
            detail: format!("found unsupported header `{}`", first_line.trim()),
        });
    }
    let headerless_event = format::parse_line(1, &first_line).ok().flatten().is_some();
    if mode == IngestMode::Salvage {
        if headerless_event {
            return Ok(TraceFormat::TextV1);
        }
        if contains_frame_magic(head).is_some() {
            return Ok(TraceFormat::BinV2);
        }
    }
    let detail = if headerless_event {
        format!(
            "first line `{}` parses as a trace event, so this looks like headerless v1 \
             text (--salvage accepts it)",
            first_line.trim()
        )
    } else if looks_textual(head) {
        format!("input is text whose first line is `{}`", first_line.trim())
    } else {
        "input looks like unrecognized binary data".to_owned()
    };
    Err(IngestError::UnknownFormat { detail })
}

/// Rolling input buffer: reads in chunks and enforces the byte budget at
/// the source.
struct Pump<R> {
    reader: R,
    buf: Vec<u8>,
    /// Reusable read destination, so short reads don't re-zero a chunk.
    scratch: Vec<u8>,
    /// Total bytes pulled from the reader.
    bytes_read: u64,
    /// No more input (true EOF).
    eof: bool,
    /// The byte budget stopped us before true EOF.
    capped: bool,
    max_bytes: u64,
}

impl<R: Read> Pump<R> {
    fn new(reader: R, max_bytes: u64) -> Self {
        Pump {
            reader,
            buf: Vec::with_capacity(CHUNK),
            scratch: vec![0; CHUNK],
            bytes_read: 0,
            eof: false,
            capped: false,
            max_bytes,
        }
    }

    /// Whether the parser should treat the buffer end as final.
    fn at_end(&self) -> bool {
        self.eof || self.capped
    }

    /// Reads one more chunk (respecting the byte budget). Returns the
    /// number of bytes appended; 0 means EOF or budget exhaustion.
    fn refill(&mut self) -> std::io::Result<usize> {
        if self.eof || self.capped {
            return Ok(0);
        }
        let room = (self.max_bytes - self.bytes_read).min(CHUNK as u64) as usize;
        if room == 0 {
            self.capped = true;
            return Ok(0);
        }
        let n = self.reader.read(&mut self.scratch[..room])?;
        self.buf.extend_from_slice(&self.scratch[..n]);
        self.bytes_read += n as u64;
        if n == 0 {
            self.eof = true;
        }
        Ok(n)
    }
}

/// Streams a trace from `reader`, auto-sniffing the format.
///
/// Salvage mode additionally accepts two degraded inputs strict mode
/// rejects: headerless v1 text whose first line parses as an event, and
/// binary images whose file header is damaged but that still contain
/// frame magics to lock onto.
///
/// # Errors
///
/// [`IngestError::Empty`] / [`IngestError::UnknownFormat`] when the input
/// can't be identified, [`IngestError::Io`] on read failure, and
/// [`IngestError::Corrupt`] in strict mode only.
pub fn ingest_reader<R: Read>(
    reader: R,
    mode: IngestMode,
    limits: &IngestLimits,
) -> Result<(Trace, IngestReport), IngestError> {
    let start = Instant::now();
    let mut pump = Pump::new(reader, limits.max_bytes);
    while pump.buf.len() < SNIFF_LEN && !pump.at_end() {
        pump.refill()?;
    }
    match classify(&pump.buf, mode)? {
        TraceFormat::BinV2 => ingest_frames(pump, mode, limits, start),
        TraceFormat::TextV1 => ingest_text(pump, mode, limits, start),
    }
}

/// Streams a trace from an in-memory byte image (see [`ingest_reader`]).
///
/// # Errors
///
/// Same contract as [`ingest_reader`].
pub fn ingest_bytes(
    bytes: &[u8],
    mode: IngestMode,
    limits: &IngestLimits,
) -> Result<(Trace, IngestReport), IngestError> {
    ingest_reader(bytes, mode, limits)
}

/// The binary branch of [`ingest_reader`]: pushes read chunks into a
/// [`StreamDecoder`], reading the next chunk only when the frame reader
/// asks for more input — so `bytes_read` stays chunk-granular.
fn ingest_frames<R: Read>(
    mut pump: Pump<R>,
    mode: IngestMode,
    limits: &IngestLimits,
    start: Instant,
) -> Result<(Trace, IngestReport), IngestError> {
    let mut decoder = StreamDecoder {
        buf: Vec::with_capacity(CHUNK),
        reader: FrameReader::new(mode, limits, start),
    };
    let mut trace = Trace::new();
    loop {
        decoder.push(&pump.buf);
        pump.buf.clear();
        if pump.eof {
            decoder.finish();
        }
        loop {
            decoder.reader.drain_batch(|event| trace.push(event));
            match decoder.step()? {
                Step::Event(event) => trace.push(event),
                Step::NeedMore => break,
                Step::Done => return Ok((trace, decoder.report().clone())),
            }
        }
        pump.refill()?;
    }
}

fn ingest_text<R: Read>(
    mut pump: Pump<R>,
    mode: IngestMode,
    limits: &IngestLimits,
    start: Instant,
) -> Result<(Trace, IngestReport), IngestError> {
    let mut trace = Trace::new();
    let mut report = IngestReport::new(TraceFormat::TextV1, mode);
    let mut line_no = 0u64;
    loop {
        if let Some(deadline) = limits.expired(start) {
            report.truncated = Some(deadline);
            break;
        }
        if report.frames_ok >= limits.max_events {
            report.truncated = Some(IngestTruncation::Events {
                limit: limits.max_events,
            });
            break;
        }
        // Pull until the buffer holds a full line (or the input ends).
        let nl = loop {
            match pump.buf.iter().position(|&b| b == b'\n') {
                Some(idx) => break Some(idx),
                None if pump.at_end() => break None,
                None => {
                    if pump.buf.len() > MAX_LINE_LEN {
                        break None; // handled as an oversized line below
                    }
                    pump.refill()?;
                }
            }
        };
        let (line_end, consumed) = match nl {
            Some(idx) => (idx, idx + 1),
            None if pump.buf.is_empty() => break,
            None if pump.buf.len() > MAX_LINE_LEN && !pump.at_end() => {
                // A line longer than any legitimate event: corrupt. Skip
                // to the next newline without buffering the monster.
                line_no += 1;
                let reason = format!("line exceeds the {MAX_LINE_LEN}-byte cap");
                if mode == IngestMode::Strict {
                    return Err(IngestError::Corrupt {
                        format: TraceFormat::TextV1,
                        locus: line_no,
                        frames_ok: report.frames_ok,
                        reason,
                    });
                }
                report.record_skip(line_no, reason);
                // Drain until the newline shows up.
                loop {
                    pump.buf.clear();
                    pump.refill()?;
                    if let Some(idx) = pump.buf.iter().position(|&b| b == b'\n') {
                        pump.buf.drain(..=idx);
                        break;
                    }
                    if pump.at_end() {
                        pump.buf.clear();
                        break;
                    }
                    if limits.expired(start).is_some() {
                        break;
                    }
                }
                continue;
            }
            None => (pump.buf.len(), pump.buf.len()),
        };
        line_no += 1;
        let raw = &pump.buf[..line_end];
        let parsed = match std::str::from_utf8(raw) {
            Ok(text) => format::parse_line(line_no as usize, text).map_err(|e| e.to_string()),
            Err(_) => Err(format!("trace line {line_no}: line is not UTF-8")),
        };
        match parsed {
            Ok(Some(event)) => {
                report.record_frames(1, consumed as u64);
                trace.push(event);
            }
            Ok(None) => {}
            Err(reason) => {
                if mode == IngestMode::Strict {
                    return Err(IngestError::Corrupt {
                        format: TraceFormat::TextV1,
                        locus: line_no,
                        frames_ok: report.frames_ok,
                        reason,
                    });
                }
                report.record_skip(line_no, reason);
            }
        }
        pump.buf.drain(..consumed);
    }
    let capped_at = pump.capped.then_some(limits.max_bytes);
    report.finalize(pump.bytes_read, start, capped_at);
    Ok((trace, report))
}

/// Push-based incremental decoder for the v2 binary frame stream, for
/// callers that do not own the read loop (the `pmdbg serve` session host
/// feeds it socket chunks and drains events between reads).
///
/// It keeps a rolling buffer and runs the crate's one v2 frame reader over
/// it, handing out each event as `PmEventRef::to_owned`. So under any
/// chunking it yields the same events, budgets and [`IngestReport`] as
/// [`ingest_bytes`] over the whole image (property-tested in
/// `crates/trace/tests/ingest_properties.rs`).
#[derive(Debug)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    reader: FrameReader<PmEvent>,
}

impl StreamDecoder {
    /// A decoder for one v2 binary stream. The deadline in `limits`
    /// starts counting immediately.
    pub fn new(mode: IngestMode, limits: IngestLimits) -> Self {
        StreamDecoder {
            buf: Vec::with_capacity(CHUNK),
            reader: FrameReader::new(mode, &limits, Instant::now()),
        }
    }

    /// Appends a chunk of the stream. Bytes beyond the `max_bytes` budget
    /// are dropped (and the report marked truncated) rather than buffered;
    /// pushing after [`StreamDecoder::finish`] is ignored, and after an
    /// event-budget or deadline stop the bytes are only counted.
    pub fn push(&mut self, bytes: &[u8]) {
        let admitted = self.reader.admit(bytes.len());
        if self.reader.is_done() {
            return;
        }
        // Drop the consumed prefix before the buffer grows.
        let consumed = self.reader.pos();
        if consumed > 0 {
            self.buf.drain(..consumed);
            self.reader.rebase(consumed);
        }
        self.buf.extend_from_slice(&bytes[..admitted]);
    }

    /// Declares end of stream: a trailing partial frame becomes corruption
    /// (truncation) on the next [`StreamDecoder::next_event`] drain.
    pub fn finish(&mut self) {
        self.reader.finish();
    }

    /// Bytes currently buffered but not yet consumed — the session host's
    /// backpressure signal.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len() - self.reader.pos()
    }

    /// Live accounting so far. `elapsed` is refreshed on every call; the
    /// call never changes the final truncation verdict.
    pub fn report(&mut self) -> &IngestReport {
        self.reader.refresh()
    }

    /// Pulls the next decoded event. `Ok(None)` means "need more input"
    /// (or, after [`StreamDecoder::finish`] / a budget stop, "stream
    /// drained").
    ///
    /// # Errors
    ///
    /// In [`IngestMode::Strict`] only: [`IngestError::Corrupt`] at the
    /// first bad frame, [`IngestError::UnknownFormat`] / [`IngestError::Empty`]
    /// when the stream does not open with the `PMTRACE2` magic.
    pub fn next_event(&mut self) -> Result<Option<PmEvent>, IngestError> {
        // Served ahead of the `Step` plumbing: the per-event fast path.
        if let Some(event) = self.reader.serve() {
            return Ok(Some(event));
        }
        match self.step()? {
            Step::Event(event) => Ok(Some(event)),
            Step::NeedMore | Step::Done => Ok(None),
        }
    }

    fn step(&mut self) -> Result<Step<PmEvent>, IngestError> {
        self.reader.next(&self.buf, |event| event.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::to_binary;
    use crate::events::{FenceKind, PmEvent, ThreadId};
    use crate::format::to_text;

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

    #[test]
    fn sniffs_both_formats() {
        let trace = sample_trace(2);
        assert_eq!(sniff_format(&to_binary(&trace)), Some(TraceFormat::BinV2));
        assert_eq!(
            sniff_format(to_text(&trace).as_bytes()),
            Some(TraceFormat::TextV1)
        );
        assert_eq!(sniff_format(b"hello world"), None);
        assert_eq!(sniff_format(b""), None);
    }

    #[test]
    fn clean_binary_ingests_identically_to_from_binary() {
        let trace = sample_trace(100);
        let bytes = to_binary(&trace);
        let (got, report) =
            ingest_bytes(&bytes, IngestMode::Strict, &IngestLimits::default()).unwrap();
        assert_eq!(got, trace);
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.frames_ok, trace.len() as u64);
        assert_eq!(report.bytes_read, bytes.len() as u64);
        assert_eq!(
            report.bytes_salvaged,
            (bytes.len() - FILE_MAGIC.len()) as u64
        );
    }

    #[test]
    fn clean_text_ingests_identically_to_from_text() {
        let trace = sample_trace(50);
        let text = to_text(&trace);
        let (got, report) = ingest_bytes(
            text.as_bytes(),
            IngestMode::Strict,
            &IngestLimits::default(),
        )
        .unwrap();
        assert_eq!(got, trace);
        assert!(report.clean());
        assert_eq!(report.format, TraceFormat::TextV1);
        assert_eq!(report.frames_ok, trace.len() as u64);
    }

    #[test]
    fn empty_input_is_a_clear_error() {
        let err = ingest_bytes(b"", IngestMode::Salvage, &IngestLimits::default()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("# pm-trace v1"), "{text}");
        assert!(text.contains("PMTRACE2"), "{text}");
    }

    #[test]
    fn unknown_format_names_expectations_and_detection() {
        let err = ingest_bytes(
            b"\x7fELF\x02\x01\x01\0junk",
            IngestMode::Strict,
            &IngestLimits::default(),
        )
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("# pm-trace v1"), "{text}");
        assert!(text.contains("binary data"), "{text}");

        let err = ingest_bytes(
            b"once upon a time\nthere was a trace\n",
            IngestMode::Strict,
            &IngestLimits::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("once upon a time"), "{err}");
    }

    #[test]
    fn unsupported_header_version_is_called_out() {
        let err = ingest_bytes(
            b"# pm-trace v9\nstore addr=0x0 size=8 tid=0\n",
            IngestMode::Salvage,
            &IngestLimits::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("# pm-trace v9"), "{err}");
    }

    #[test]
    fn salvage_accepts_headerless_text_strict_rejects_it() {
        let body = "store addr=0x0 size=8 tid=0\nfence sfence tid=0\n";
        let err = ingest_bytes(
            body.as_bytes(),
            IngestMode::Strict,
            &IngestLimits::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("headerless"), "{err}");
        let (trace, report) = ingest_bytes(
            body.as_bytes(),
            IngestMode::Salvage,
            &IngestLimits::default(),
        )
        .unwrap();
        assert_eq!(trace.len(), 2);
        assert!(report.clean());
    }

    #[test]
    fn strict_mode_reports_offset_and_suggests_salvage() {
        let trace = sample_trace(10);
        let mut bytes = to_binary(&trace);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = ingest_bytes(&bytes, IngestMode::Strict, &IngestLimits::default()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("--salvage"), "{text}");
        assert!(matches!(err, IngestError::Corrupt { frames_ok, .. } if frames_ok > 0));
    }

    #[test]
    fn salvage_skips_one_flipped_frame_and_resyncs() {
        let trace = sample_trace(20); // 40 events
        let mut bytes = to_binary(&trace);
        // Flip a payload byte of some middle frame.
        let spans = crate::binfmt::frame_spans(&to_binary(&trace)).unwrap();
        let (start, end) = spans[17];
        bytes[end - 1] ^= 0x01;
        let (got, report) =
            ingest_bytes(&bytes, IngestMode::Salvage, &IngestLimits::default()).unwrap();
        assert_eq!(got.len(), trace.len() - 1);
        assert_eq!(report.frames_ok, trace.len() as u64 - 1);
        assert_eq!(report.frames_skipped, 1);
        assert_eq!(report.resyncs, 1);
        assert!(report.first_error.is_some());
        assert_eq!(report.first_error.as_ref().unwrap().locus, start as u64);
        // Everything before the corruption survived, in order.
        assert_eq!(got.events()[..17], trace.events()[..17]);
    }

    #[test]
    fn salvage_recovers_prefix_of_truncated_binary() {
        let trace = sample_trace(20);
        let bytes = to_binary(&trace);
        let spans = crate::binfmt::frame_spans(&bytes).unwrap();
        // Cut mid-way through frame 30.
        let cut = spans[30].0 + 5;
        let (got, report) =
            ingest_bytes(&bytes[..cut], IngestMode::Salvage, &IngestLimits::default()).unwrap();
        assert_eq!(got.events(), &trace.events()[..30]);
        assert_eq!(report.frames_ok, 30);
        assert_eq!(report.frames_skipped, 1);
        assert_eq!(report.resyncs, 0, "nothing to resync to after the cut");
    }

    #[test]
    fn salvage_survives_garbage_prefix_via_frame_magic() {
        let trace = sample_trace(10);
        let clean = to_binary(&trace);
        let mut bytes = b"this is definitely not a trace".to_vec();
        bytes.extend_from_slice(&clean);
        let (got, report) =
            ingest_bytes(&bytes, IngestMode::Salvage, &IngestLimits::default()).unwrap();
        assert_eq!(got, trace, "all frames recoverable after the prefix");
        assert!(report.resyncs >= 1);
        assert!(report.frames_skipped >= 1);
    }

    #[test]
    fn salvage_skips_corrupt_text_lines() {
        let trace = sample_trace(5);
        let mut text = to_text(&trace);
        text.push_str("wat wat wat\n");
        text.push_str("store addr=0x1000 size=8 tid=0\n");
        let (got, report) = ingest_bytes(
            text.as_bytes(),
            IngestMode::Salvage,
            &IngestLimits::default(),
        )
        .unwrap();
        assert_eq!(got.len(), trace.len() + 1);
        assert_eq!(report.frames_skipped, 1);
        assert_eq!(report.resyncs, 0);
        let first = report.first_error.unwrap();
        assert_eq!(first.locus, trace.len() as u64 + 2, "1 header + events + 1");
        assert!(first.reason.contains("wat"), "{}", first.reason);
    }

    #[test]
    fn event_budget_truncates_with_report() {
        let trace = sample_trace(100);
        let bytes = to_binary(&trace);
        let limits = IngestLimits::default().with_max_events(25);
        let (got, report) = ingest_bytes(&bytes, IngestMode::Salvage, &limits).unwrap();
        assert_eq!(got.len(), 25);
        assert_eq!(
            report.truncated,
            Some(IngestTruncation::Events { limit: 25 })
        );
    }

    #[test]
    fn byte_budget_truncates_without_error() {
        let trace = sample_trace(100);
        let bytes = to_binary(&trace);
        let limits = IngestLimits::default().with_max_bytes(bytes.len() as u64 / 2);
        let (got, report) = ingest_bytes(&bytes, IngestMode::Salvage, &limits).unwrap();
        assert!(got.len() < trace.len());
        assert!(!got.is_empty());
        assert!(matches!(
            report.truncated,
            Some(IngestTruncation::Bytes { .. }) | Some(IngestTruncation::Events { .. })
        ));
    }

    #[test]
    fn zero_deadline_terminates_immediately_but_cleanly() {
        let trace = sample_trace(100);
        let bytes = to_binary(&trace);
        let limits = IngestLimits::default().with_deadline(Duration::ZERO);
        let (_, report) = ingest_bytes(&bytes, IngestMode::Salvage, &limits).unwrap();
        assert!(matches!(
            report.truncated,
            Some(IngestTruncation::Deadline { .. })
        ));
    }

    #[test]
    fn oversized_text_line_is_skipped_not_buffered() {
        let mut text = String::from("# pm-trace v1\nstore addr=0x0 size=8 tid=0\n");
        text.push_str(&"z".repeat(MAX_LINE_LEN * 2 + 100));
        text.push('\n');
        text.push_str("store addr=0x40 size=8 tid=0\n");
        let (got, report) = ingest_bytes(
            text.as_bytes(),
            IngestMode::Salvage,
            &IngestLimits::default(),
        )
        .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(report.frames_skipped, 1);
        assert!(report.first_error.unwrap().reason.contains("cap"));
    }

    #[test]
    fn report_summary_mentions_the_interesting_numbers() {
        let trace = sample_trace(20);
        let mut bytes = to_binary(&trace);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let (_, report) =
            ingest_bytes(&bytes, IngestMode::Salvage, &IngestLimits::default()).unwrap();
        let line = report.summary();
        assert!(line.contains("salvage"), "{line}");
        assert!(line.contains("skipped"), "{line}");
        assert!(line.contains("first error"), "{line}");
    }

    #[test]
    fn streaming_matches_in_memory_across_chunk_boundaries() {
        // A trace big enough to span several read chunks.
        let trace = sample_trace(4_000);
        let bytes = to_binary(&trace);
        assert!(bytes.len() > 2 * CHUNK);
        struct OneByOne<'a>(&'a [u8], usize);
        impl Read for OneByOne<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                // Adversarially tiny reads: 1..=7 bytes at a time.
                let n = (self.1 % 7 + 1).min(self.0.len()).min(out.len());
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                self.1 += 1;
                Ok(n)
            }
        }
        let (got, report) = ingest_reader(
            OneByOne(&bytes, 0),
            IngestMode::Strict,
            &IngestLimits::default(),
        )
        .unwrap();
        assert_eq!(got, trace);
        assert!(report.clean());
    }

    #[test]
    fn stream_decoder_stops_buffering_once_decoding_stops() {
        // Larger than one read chunk plus the largest frame, so buffering
        // the whole image would break the bound below.
        let bytes = to_binary(&sample_trace(60_000));
        let bound = CHUNK + crate::binfmt::MAX_FRAME_LEN;
        assert!(bytes.len() > bound);
        let limits = IngestLimits::default().with_max_events(10);
        let mut decoder = StreamDecoder::new(IngestMode::Salvage, limits);
        let mut events = 0;
        for chunk in bytes.chunks(16 * 1024) {
            decoder.push(chunk);
            while decoder.next_event().unwrap().is_some() {
                events += 1;
            }
            assert!(
                decoder.buffered_bytes() <= bound,
                "{}",
                decoder.buffered_bytes()
            );
        }
        decoder.finish();
        assert!(decoder.next_event().unwrap().is_none());
        assert_eq!(events, 10);
        let report = decoder.report();
        assert_eq!(
            report.truncated,
            Some(IngestTruncation::Events { limit: 10 })
        );
        assert_eq!(
            report.bytes_read,
            bytes.len() as u64,
            "stopped bytes still count"
        );
    }

    #[test]
    fn mid_stream_report_does_not_fix_the_truncation_verdict() {
        let bytes = to_binary(&sample_trace(100));
        let limits = IngestLimits::default()
            .with_max_bytes(100)
            .with_max_events(2);
        let (_, batch) = ingest_bytes(&bytes, IngestMode::Salvage, &limits).unwrap();
        assert_eq!(batch.truncated, Some(IngestTruncation::Events { limit: 2 }));

        let mut decoder = StreamDecoder::new(IngestMode::Salvage, limits);
        decoder.push(&bytes);
        // The live view shows the byte cap that has bitten so far...
        assert_eq!(
            decoder.report().truncated,
            Some(IngestTruncation::Bytes { limit: 100 })
        );
        while decoder.next_event().unwrap().is_some() {}
        // ...but the final verdict is the batch reader's.
        assert_eq!(decoder.report().truncated, batch.truncated);
    }
}
