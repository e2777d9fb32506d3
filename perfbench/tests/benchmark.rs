//! The benchmark's own checks: verdict accounting, the journal decorator,
//! and seed handling, on shrunken inputs.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pm_perfbench::inputs::{self, SessionInput};
use pm_perfbench::metrics::{RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use pm_perfbench::serve::{check_response, start_server, Journal, Probe};
use pm_perfbench::spans::Tracer;
use pm_perfbench::{Scale, Tally, WorkDir};
use pm_serve::{push_bytes_keyed, PushResponse};

const TINY: Scale = Scale {
    memcached_ops: 20_000,
    session_divisor: 40,
};

/// A scratch directory per test: tests run in parallel and must not
/// share sockets or journals.
fn scratch(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn small_session() -> SessionInput {
    inputs::session_list(7, TINY.session_divisor).swap_remove(1)
}

#[test]
fn a_hash_mismatch_and_a_ledger_replay_each_fail_one_request() {
    let work = WorkDir::create(&scratch("failed_frac")).unwrap();
    let session = small_session();
    assert!(
        session.oracle.reports > 0,
        "the synthetic session carries reports"
    );
    let other = inputs::session_list(8, TINY.session_divisor).swap_remove(1);
    let running = start_server(work.path(), Journal::On, None).unwrap();
    let listen = running.server.local_listen().clone();

    let mut tally = Tally::default();
    let first = push_bytes_keyed(&listen, "k-1", &session.bytes).unwrap();
    tally.record(check_response(&first, &session.oracle));
    // The same bytes judged against another session's oracle.
    tally.record(check_response(&first, &other.oracle));
    // The same key again: the journal answers from its ledger.
    let again = push_bytes_keyed(&listen, "k-1", &session.bytes).unwrap();
    assert!(again.replayed);
    tally.record(check_response(&again, &session.oracle));
    running.server.shutdown(std::time::Duration::from_secs(5));

    assert_eq!((tally.attempted, tally.failed), (3, 2));
    let result = tally.into_result(pm_perfbench::metrics::Metrics::new(&END_TO_END));
    assert!(!result.correct);
    assert!((result.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
}

#[test]
fn check_response_rejects_every_failed_outcome() {
    let session = small_session();
    let mut ok = PushResponse::empty(pm_serve::SessionStatus::Ok);
    ok.report_hash = session.oracle.hash_hex();
    ok.events_committed = session.oracle.events;
    assert_eq!(check_response(&ok, &session.oracle), Ok(()));
    let mut shed = ok.clone();
    shed.status = pm_serve::SessionStatus::Busy;
    let mut quarantined = ok.clone();
    quarantined.status = pm_serve::SessionStatus::Quarantined;
    let mut short = ok.clone();
    short.events_committed -= 1;
    for bad in [shed, quarantined, short] {
        assert!(check_response(&bad, &session.oracle).is_err(), "{bad:?}");
    }
}

/// `(type, payload)` of every record of a WAL file.
fn wal_records(bytes: &[u8]) -> Vec<(u8, Vec<u8>)> {
    assert_eq!(&bytes[..8], pm_serve::JOURNAL_FILE_MAGIC);
    let mut out = Vec::new();
    let mut pos = 8;
    while pos < bytes.len() {
        let kind = bytes[pos + 4];
        let len = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().unwrap()) as usize;
        out.push((kind, bytes[pos + 9..pos + 9 + len].to_vec()));
        pos += 9 + len + 4;
    }
    out
}

/// The verdict line of a verdict record, with the wall-clock field
/// zeroed: it is the one part of a WAL that differs between two runs of
/// the same session.
fn verdict_without_timing(payload: &[u8]) -> PushResponse {
    let (key_len, used) = pm_trace::read_varint(payload).unwrap();
    let mut pos = used + key_len as usize;
    let (_, used) = pm_trace::read_varint(&payload[pos..]).unwrap();
    pos += used;
    let mut response =
        PushResponse::from_json(std::str::from_utf8(&payload[pos..]).unwrap()).unwrap();
    response.elapsed_ms = 0;
    response
}

#[test]
fn timed_journal_env_writes_the_wal_fs_journal_env_writes() {
    // Large enough for several 4096-event commits.
    let session = inputs::session_list(7, 4).swap_remove(1);
    let mut wals = Vec::new();
    for (name, traced) in [("wal_plain", false), ("wal_timed", true)] {
        let work = WorkDir::create(&scratch(name)).unwrap();
        let probe = traced.then(|| Probe::new(Arc::new(Tracer::new())));
        let running = start_server(work.path(), Journal::On, probe.as_ref()).unwrap();
        let listen = running.server.local_listen().clone();
        let response = push_bytes_keyed(&listen, "session-1", &session.bytes).unwrap();
        assert_eq!(check_response(&response, &session.oracle), Ok(()));
        let dir = running.journal_dir.clone().unwrap();
        running.server.shutdown(std::time::Duration::from_secs(5));
        wals.push(std::fs::read(dir.join("session-1.wal")).unwrap());
    }
    let (plain, timed) = (wal_records(&wals[0]), wal_records(&wals[1]));
    assert!(plain.len() > 2, "checkpoint records plus a verdict");
    assert_eq!(plain.len(), timed.len());
    let (plain_verdict, plain_ckpts) = plain.split_last().unwrap();
    let (timed_verdict, timed_ckpts) = timed.split_last().unwrap();
    // Every checkpoint record is byte-identical; so is the file up to the
    // verdict record.
    assert_eq!(plain_ckpts, timed_ckpts);
    let verdict_at = wals[0].len() - plain_verdict.1.len() - 13;
    assert_eq!(wals[0][..verdict_at], wals[1][..verdict_at]);
    assert_eq!((plain_verdict.0, timed_verdict.0), (2, 2));
    assert_eq!(
        verdict_without_timing(&plain_verdict.1),
        verdict_without_timing(&timed_verdict.1)
    );
}

fn metric_names(result: &RunResult) -> Vec<&'static str> {
    result.metrics.rows().map(|(name, _, _)| name).collect()
}

#[test]
fn a_second_seed_changes_the_inputs_but_not_the_metric_names() {
    let spans = scratch("seeds").join("spans.jsonl");
    for workload in WORKLOADS {
        let mut digests = Vec::new();
        for seed in [1, 2] {
            let work = WorkDir::create(&scratch(&format!("seeds-{workload}-{seed}"))).unwrap();
            let (plain, digest) =
                pm_perfbench::run(workload, work.path(), seed, 0.2, &TINY, None).unwrap();
            assert!(plain.correct, "{workload} seed {seed}");
            let names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
            assert_eq!(metric_names(&plain), names);
            let (traced, _) =
                pm_perfbench::run(workload, work.path(), seed, 0.4, &TINY, Some(&spans)).unwrap();
            assert!(traced.correct, "{workload} seed {seed} traced");
            let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
            assert_eq!(metric_names(&traced), names);
            assert!(std::fs::metadata(&spans).unwrap().len() > 0);
            digests.push(digest);
        }
        assert_ne!(
            digests[0], digests[1],
            "{workload}: seeds 1 and 2 gave the same inputs"
        );
    }
}

#[test]
fn unknown_workloads_are_refused() {
    let work = WorkDir::create(&scratch("unknown")).unwrap();
    let err = pm_perfbench::run("nope", work.path(), 1, 1.0, &TINY, None).unwrap_err();
    assert!(err.starts_with("unknown workload"), "{err}");
}
