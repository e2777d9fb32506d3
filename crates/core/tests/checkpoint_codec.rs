//! Property-based tests for the [`SessionCheckpoint`] binary codec: a
//! serialize/deserialize cycle must be behaviorally lossless (the resumed
//! session finishes byte-identically to the original), decoding must be
//! total (arbitrary corruption yields a typed error, never a panic), and
//! blobs from a different format version are rejected up front.

use pm_trace::{report_hash, FenceKind, PmEvent, ThreadId};
use pmdebugger::{
    CheckpointDecodeError, DebuggerConfig, DetectSession, PersistencyModel, PmDebugger,
    SessionCheckpoint,
};
use pmem_sim::FlushKind;
use proptest::prelude::*;

/// Same rule-triggering event mix as `session_properties.rs`: a small
/// address space so stores, flushes and fences interact, plus epoch
/// sections, transaction logging, crashes and recovery reads.
fn any_event() -> impl Strategy<Value = PmEvent> {
    prop_oneof![
        4 => (0u64..512, 1u32..64, 0u32..3, any::<bool>()).prop_map(
            |(addr, size, tid, in_epoch)| PmEvent::Store {
                addr,
                size,
                tid: ThreadId(tid),
                strand: None,
                in_epoch,
            }
        ),
        3 => (0u64..512, 0u32..3).prop_map(|(addr, tid)| PmEvent::Flush {
            kind: FlushKind::Clwb,
            addr: addr & !63,
            size: 64,
            tid: ThreadId(tid),
            strand: None,
        }),
        2 => (0u32..3, any::<bool>()).prop_map(|(tid, in_epoch)| PmEvent::Fence {
            kind: FenceKind::Sfence,
            tid: ThreadId(tid),
            strand: None,
            in_epoch,
        }),
        1 => (0u32..3).prop_map(|tid| PmEvent::EpochBegin { tid: ThreadId(tid) }),
        1 => (0u32..3).prop_map(|tid| PmEvent::EpochEnd { tid: ThreadId(tid) }),
        1 => (0u64..512, 1u32..64, 0u32..3).prop_map(|(addr, size, tid)| PmEvent::TxLog {
            obj_addr: addr,
            size,
            tid: ThreadId(tid),
        }),
        1 => Just(PmEvent::Crash),
        1 => (0u64..512, 1u32..64).prop_map(|(addr, size)| PmEvent::RecoveryRead { addr, size }),
        1 => ("[a-c]", 0u64..512, 1u32..64)
            .prop_map(|(name, addr, size)| PmEvent::NameRange { name, addr, size }),
        1 => ("fn_[a-c]", 0u32..3)
            .prop_map(|(name, tid)| PmEvent::FuncEnter { name, tid: ThreadId(tid) }),
    ]
}

fn models() -> impl Strategy<Value = PersistencyModel> {
    prop_oneof![
        Just(PersistencyModel::Strict),
        Just(PersistencyModel::Epoch),
        Just(PersistencyModel::Strand),
    ]
}

fn batch(model: PersistencyModel, events: &[PmEvent]) -> Vec<pm_trace::BugReport> {
    PmDebugger::new(DebuggerConfig::for_model(model)).detect_stream(events.iter())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round-trip identity: checkpoint mid-stream, serialize, deserialize,
    /// resume, and finish — the full report list (committed prefix plus
    /// the resumed tail) must equal the uninterrupted batch run, and the
    /// revived checkpoint's accounting must match the original.
    #[test]
    fn serialized_checkpoint_resumes_byte_identically(
        events in proptest::collection::vec(any_event(), 2..100),
        cut_num in 1usize..8,
        model in models(),
    ) {
        let expect = batch(model, &events);
        let cut = (events.len() * cut_num / 8).clamp(1, events.len() - 1);

        let mut session = DetectSession::new(DebuggerConfig::for_model(model));
        let mut got = session.feed(&events[..cut]);
        let ckpt = session.checkpoint();
        let bytes = ckpt.to_bytes();
        let revived = SessionCheckpoint::from_bytes(&bytes).expect("round-trip decode");
        prop_assert_eq!(revived.events_fed(), ckpt.events_fed());
        prop_assert_eq!(revived.reports_emitted(), ckpt.reports_emitted());

        let mut resumed = DetectSession::resume(revived);
        got.extend(resumed.feed(&events[cut..]));
        got.extend(resumed.finish());
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(report_hash(&got), report_hash(&expect));
    }

    /// The encoding is deterministic: serializing the same checkpoint
    /// twice — and serializing its decoded image — yields identical bytes.
    /// The journal's recovery path depends on this for idempotent replay.
    #[test]
    fn encoding_is_deterministic(
        events in proptest::collection::vec(any_event(), 1..60),
        model in models(),
    ) {
        let mut session = DetectSession::new(DebuggerConfig::for_model(model));
        let _ = session.feed(&events);
        let ckpt = session.checkpoint();
        let a = ckpt.to_bytes();
        let b = ckpt.to_bytes();
        prop_assert_eq!(&a, &b);
        let c = SessionCheckpoint::from_bytes(&a).unwrap().to_bytes();
        prop_assert_eq!(&a, &c);
    }

    /// Decoding is total: flipping any single bit of a valid blob must
    /// produce a typed error (the CRC trailer catches every 1-bit flip),
    /// never a panic or a silently-wrong checkpoint.
    #[test]
    fn single_bit_flips_are_rejected_without_panicking(
        events in proptest::collection::vec(any_event(), 1..40),
        bit in 0usize..4096,
        model in models(),
    ) {
        let mut session = DetectSession::new(DebuggerConfig::for_model(model));
        let _ = session.feed(&events);
        let mut bytes = session.checkpoint().to_bytes();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(SessionCheckpoint::from_bytes(&bytes).is_err());
    }

    /// Arbitrary garbage — random bytes that never saw an encoder — must
    /// decode to an error, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = SessionCheckpoint::from_bytes(&bytes);
    }

    /// Every truncation of a valid blob is rejected.
    #[test]
    fn truncations_are_rejected(
        events in proptest::collection::vec(any_event(), 1..40),
        keep_num in 0usize..8,
    ) {
        let mut session =
            DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
        let _ = session.feed(&events);
        let bytes = session.checkpoint().to_bytes();
        let keep = bytes.len() * keep_num / 8;
        prop_assert!(SessionCheckpoint::from_bytes(&bytes[..keep]).is_err());
    }
}

/// A blob stamped with a future format version is rejected before any
/// payload is interpreted, with an error message that names both the found
/// and the supported version.
#[test]
fn cross_version_blobs_are_rejected_with_clear_error() {
    let mut session = DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
    let _ = session.feed(&[PmEvent::Store {
        addr: 0,
        size: 8,
        tid: ThreadId(0),
        strand: None,
        in_epoch: false,
    }]);
    let mut bytes = session.checkpoint().to_bytes();
    // Version field: little-endian u16 right after the 6-byte magic.
    bytes[6] = 7;
    bytes[7] = 0;
    let err = SessionCheckpoint::from_bytes(&bytes).unwrap_err();
    assert_eq!(err, CheckpointDecodeError::UnsupportedVersion { found: 7 });
    assert_eq!(
        err.to_string(),
        "unsupported checkpoint version 7 (supported: 1)"
    );
}

/// Known-corruption classes map to their dedicated error variants.
#[test]
fn corruption_classes_have_typed_errors() {
    let mut session = DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
    let _ = session.feed(&[PmEvent::Crash]);
    let bytes = session.checkpoint().to_bytes();

    assert!(matches!(
        SessionCheckpoint::from_bytes(&bytes[..4]),
        Err(CheckpointDecodeError::TooShort { .. })
    ));

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        SessionCheckpoint::from_bytes(&bad_magic),
        Err(CheckpointDecodeError::BadMagic)
    ));

    let mut bad_crc = bytes.clone();
    let last = bad_crc.len() - 1;
    bad_crc[last] ^= 0xFF;
    assert!(matches!(
        SessionCheckpoint::from_bytes(&bad_crc),
        Err(CheckpointDecodeError::ChecksumMismatch { .. })
    ));
}

/// A fixed multi-thread stream that leaves cross-thread state pending and
/// CLF intervals open at every cut: stores of 0–8192 bytes on three
/// threads, partial and foreign flushes, fences, successful and failed
/// CASes, and `NameRange` bindings for the two variables the spec orders.
fn pinned_stream() -> Vec<PmEvent> {
    let mut state = 0x5EED_u64;
    let mut next = move |bound: u64| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    };
    let mut events = vec![
        PmEvent::NameRange {
            name: "head".to_owned(),
            addr: 0x1000,
            size: 8,
        },
        PmEvent::NameRange {
            name: "node".to_owned(),
            addr: 0x1040,
            size: 64,
        },
        PmEvent::Store {
            addr: 0x2000,
            size: 8192,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        },
    ];
    for _ in 0..400 {
        let tid = ThreadId(next(3) as u32);
        let addr = 0x1000 + next(96) * 8;
        events.push(match next(10) {
            0..=3 => PmEvent::Store {
                addr,
                size: [0, 8, 8, 16, 64][next(5) as usize],
                tid,
                strand: None,
                in_epoch: false,
            },
            4..=6 => PmEvent::Flush {
                kind: FlushKind::Clwb,
                addr: addr & !63,
                size: [8, 64, 64, 128][next(4) as usize],
                tid,
                strand: None,
            },
            7 | 8 => PmEvent::Fence {
                kind: FenceKind::Sfence,
                tid,
                strand: None,
                in_epoch: false,
            },
            _ => PmEvent::Cas {
                addr: 0x1000,
                size: 8,
                tid,
                old: 0,
                new: 0x1000 + next(96) * 8,
                success: next(4) != 0,
            },
        });
    }
    events
}

/// The checkpoint encoding of a session with pending cross-thread state
/// and open CLF intervals is pinned: these digests were produced by the
/// scanning cross-thread tracker and the `Vec`-valued line index, so the
/// line-indexed versions must write the same bytes, and checkpoints that
/// older builds wrote still decode and resume to the batch verdict.
#[test]
fn checkpoint_bytes_are_pinned_for_a_cross_thread_stream() {
    let mut config = DebuggerConfig::for_model(PersistencyModel::Strict);
    config.order_spec.add_rule("head", "node", None);
    let events = pinned_stream();
    let expected = PmDebugger::new(config.clone()).detect_stream(events.iter());
    let mut digests = Vec::new();
    for cut in [3, 57, 190, 333, events.len()] {
        let mut session = DetectSession::new(config.clone());
        let mut reports = session.feed(&events[..cut]);
        let bytes = session.checkpoint().to_bytes();
        digests.push(bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        }));
        let mut resumed = DetectSession::resume(SessionCheckpoint::from_bytes(&bytes).unwrap());
        reports.extend(resumed.feed(&events[cut..]));
        reports.extend(resumed.finish());
        assert_eq!(report_hash(&reports), report_hash(&expected), "cut {cut}");
    }
    let pinned: [u64; 5] = [
        89631897239245307,
        4880559355997077839,
        989367893294328357,
        15036465847175837913,
        15297389251723995338,
    ];
    assert_eq!(digests, pinned);
}
