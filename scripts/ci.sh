#!/usr/bin/env bash
# Repo CI gate: staged pipeline with per-stage timing. Run from anywhere.
#
#   lint -> fmt -> unit -> integration -> docs -> bench-smoke -> ingest-bench
#     -> perfbench -> obs-smoke -> ingest-torture -> supervisor-chaos -> serve-chaos
#     -> concurrent-chaos -> journal-chaos -> mem-chaos
#
# Every run writes target/ci_timings.json (override: PM_CI_TIMINGS_JSON), a
# machine-readable ledger of {stage, seconds, status} rows plus an overall
# verdict — on early exit the in-flight stage is recorded as "fail" and its
# name printed, so a red pipeline names its culprit without log spelunking.
# The six wall-clock-budgeted sweeps (ingest-torture, supervisor-chaos,
# serve-chaos, concurrent-chaos, journal-chaos, mem-chaos) share one knob:
# PM_CI_BUDGET_SECS (default 120) — turn it down for a quick local pass,
# up for a soak run.
#
# lint        clippy over all targets, warnings are errors
# fmt         rustfmt check
# unit        library unit tests
# integration integration-test binaries (includes the parallel-determinism
#             and metrics-differential property suites and the
#             golden-snapshot fixtures)
# docs        doc tests (asserting pm-obs contributes documented examples),
#             then rustdoc with warnings as errors
# bench-smoke regenerates the parallel-pipeline benchmark in smoke mode and
#             gates on the committed baseline (scripts/bench_gate.sh)
# ingest-bench
#             regenerates the ingest-throughput benchmark (owned reader vs
#             zero-copy walker) in smoke mode and gates on the committed
#             baseline (scripts/bench_gate.sh ingest): identical=true on
#             every workload, stable report hashes, and the zero-copy
#             speedup within tolerance of scripts/ingest_baseline.json
# perfbench   the end-to-end benchmark's own tests (perfbench/, a package
#             outside the workspace): builds the release benchmark and
#             checks its verdict oracles on shrunken inputs, so a detector
#             change cannot break the benchmark unnoticed
# obs-smoke   metrics-overhead benchmark in smoke mode, failing if the
#             metrics-on slowdown exceeds PM_OBS_MAX_OVERHEAD_PCT (5%)
# ingest-torture
#             corruption sweep (`pmdbg torture`) over both committed
#             fixture traces: >=500 mutated images each, gated on exit
#             code 0 and "ok":true in the JSON report (zero panics,
#             salvage floor intact, detector differential clean)
# supervisor-chaos
#             detector-fault sweep (`pmdbg supervise`): >=200 seeded fault
#             plans injected into the supervised parallel pipeline under a
#             wall-clock budget, gated on exit code 0 and "ok":true
#             (zero process aborts, fault-free shards byte-identical to
#             sequential, every casualty named exactly)
# serve-chaos hostile-client sweep (`pmdbg serve-chaos`): >=200 randomized
#             sessions (truncations, bit flips, disconnects, slow-loris,
#             injected panics) against a live server under a wall-clock
#             budget, gated on exit code 0 and "ok":true (zero server
#             aborts, survivors byte-identical to batch detection, exact
#             lost-frame accounting), followed by a daemon smoke test:
#             start `pmdbg serve` as a real process, push the committed
#             btree fixture, assert the bug summary matches the golden
#             batch verdict, SIGTERM-drain, and check the exit-code
#             contract end to end
# concurrent-chaos
#             thread-crash sweep (`pmdbg chaos --thread-crash`): 100
#             seeded plans build interleaved lock-free traces (Treiber
#             stack, MS queue, CAS-published hash), kill a random thread
#             subset at a crash boundary, and run all four detection
#             engines over the survivor stream under a wall-clock budget,
#             gated on exit code 0 and "ok":true (zero process aborts,
#             zero survivor-stream divergence between engines)
# journal-chaos
#             daemon-crash sweep (`pmdbg chaos --daemon-crash`): >=100
#             seeded plans run keyed (journaled) sessions, kill the
#             serving daemon mid-stream (in-process hard stops over a
#             fault-injecting journal — torn writes, dropped fsyncs,
#             short writes, ENOSPC — plus real kill -9 of `pmdbg serve`
#             subprocesses), restart it over the same journal directory
#             and replay the clients, gated on exit code 0 and
#             "ok":true with explicitly zero lost and zero duplicated
#             verdicts (exactly-once emission across crashes)
# mem-chaos   memory-pressure sweep (`pmdbg chaos --mem-pressure`): 100
#             seeded plans starve a governed server — whale sessions over
#             per-session budgets far below their footprint, herds of
#             small sessions under generous budgets, spill-storm thrash,
#             failing-allocator vetoes, global budgets below the
#             admission estimate — gated on exit code 0 and "ok":true
#             with explicitly zero aborts and zero verdict divergence
#             against unpressured batch runs, plus exact
#             paused/spilled/rejected accounting
#
# Select a subset of stages by name: `scripts/ci.sh lint fmt unit`.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(lint fmt unit integration docs bench-smoke ingest-bench perfbench obs-smoke ingest-torture supervisor-chaos serve-chaos concurrent-chaos journal-chaos mem-chaos)
fi

# Shared wall-clock budget for the chaos/torture sweeps, in seconds.
PM_CI_BUDGET_SECS="${PM_CI_BUDGET_SECS:-120}"
BUDGET_MS=$((PM_CI_BUDGET_SECS * 1000))

TIMINGS_JSON="${PM_CI_TIMINGS_JSON:-target/ci_timings.json}"
declare -a TIMINGS=()
declare -a STAGE_NAMES=()
declare -a STAGE_SECS=()
declare -a STAGE_STATUS=()
CURRENT_STAGE=""
CURRENT_START=0

# Written on every exit path: one row per stage that ran, in order, with
# the in-flight stage (if the pipeline died mid-stage) recorded as "fail".
write_timings() {
  local code=$?
  if [ -n "${CURRENT_STAGE}" ]; then
    STAGE_NAMES+=("${CURRENT_STAGE}")
    STAGE_SECS+=($(($(date +%s) - CURRENT_START)))
    STAGE_STATUS+=("fail")
    echo "CI FAILED in stage: ${CURRENT_STAGE}" >&2
  fi
  mkdir -p "$(dirname "${TIMINGS_JSON}")"
  local ok="true"
  [ "${code}" -eq 0 ] || ok="false"
  {
    printf '{"schema":"pmdebugger-ci-timings-v1","ok":%s,"stages":[' "${ok}"
    local i
    for i in "${!STAGE_NAMES[@]}"; do
      [ "${i}" -gt 0 ] && printf ','
      printf '{"stage":"%s","seconds":%d,"status":"%s"}' \
        "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" "${STAGE_STATUS[$i]}"
    done
    printf ']}\n'
  } >"${TIMINGS_JSON}"
  echo "stage timings written to ${TIMINGS_JSON}"
}
trap write_timings EXIT

run_stage() {
  local name="$1"
  shift
  echo "== ${name} =="
  CURRENT_STAGE="${name}"
  CURRENT_START=$(date +%s)
  "$@"
  local secs=$(($(date +%s) - CURRENT_START))
  CURRENT_STAGE=""
  STAGE_NAMES+=("${name}")
  STAGE_SECS+=("${secs}")
  STAGE_STATUS+=("pass")
  TIMINGS+=("$(printf '%-14s %4ds' "${name}" "${secs}")")
}

docs_stage() {
  cargo test -q --offline --workspace --doc
  # The observability crate's public API must stay documented-by-example:
  # its doctests are the executable half of the manifest schema doc.
  local obs_doctests
  obs_doctests=$(cargo test -q --offline -p pm-obs --doc 2>&1 | tee /dev/stderr |
    sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' | head -n1)
  if [ -z "${obs_doctests}" ] || [ "${obs_doctests}" -lt 3 ]; then
    echo "pm-obs must keep at least 3 passing doctests (found: ${obs_doctests:-none})" >&2
    exit 1
  fi
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace -q
}

ingest_torture_stage() {
  # Corruption sweep over both committed fixtures (one v2 binary, one v1
  # text). 125 images x 4 classes = 500 mutated images per fixture; the
  # pmdbg exit-code contract turns any invariant violation into exit 1,
  # and we additionally require the machine-readable verdict.
  local fixture report
  for fixture in tests/fixtures/btree_96.pmt2 tests/fixtures/hashmap_atomic_48.trace; do
    report=$(cargo run -q --offline -p pm-cli -- \
      torture --trace "${fixture}" --images 125 --seed 806405 \
      --budget-ms "${BUDGET_MS}" --json)
    if ! grep -q '"ok":true' <<<"${report}"; then
      echo "ingest-torture: ${fixture} reported violations:" >&2
      echo "${report}" >&2
      exit 1
    fi
    if grep -Eq '"panics":[1-9]' <<<"${report}"; then
      echo "ingest-torture: ${fixture} reported panics" >&2
      exit 1
    fi
    echo "ingest-torture ${fixture}: ok"
  done
}

supervisor_chaos_stage() {
  # Detector-fault sweep: 200 seeded fault plans (panic / delay /
  # alloc-pressure faults at varied retry, fallback, deadline and budget
  # policies, cycling 2/3/4/8 worker threads) against one recorded
  # workload trace, under the shared PM_CI_BUDGET_SECS wall-clock budget
  # (default 120 s). The sweep's own
  # oracles enforce the supervision contract; here we gate on the
  # machine-readable verdict and explicitly on the zero-abort count.
  local report
  report=$(cargo run -q --offline -p pm-cli -- \
    supervise --workload hashmap_atomic --ops 64 --plans 200 \
    --budget-ms "${BUDGET_MS}" --json)
  if ! grep -q '"ok":true' <<<"${report}"; then
    echo "supervisor-chaos: sweep reported violations:" >&2
    echo "${report}" >&2
    exit 1
  fi
  if grep -Eq '"aborts":[1-9]' <<<"${report}"; then
    echo "supervisor-chaos: sweep reported process aborts" >&2
    exit 1
  fi
  if ! grep -q '"plans_run":200' <<<"${report}"; then
    echo "supervisor-chaos: sweep did not complete all 200 plans in budget:" >&2
    echo "${report}" >&2
    exit 1
  fi
  echo "supervisor-chaos: ok"
}

serve_chaos_stage() {
  # Hostile-client sweep against a live in-process server: 200 randomized
  # sessions mixing clean pushes with truncations, bit flips, abrupt
  # disconnects, slow-loris pacing, tiny garbage, injected session panics
  # (transient and permanent) and budget overruns. The sweep's own
  # oracles enforce the service contract — zero server aborts, surviving
  # sessions byte-identical to batch detection on the same frames, exact
  # lost-frame accounting for quarantined sessions; here we gate on the
  # machine-readable verdict plus the abort and completion counts.
  local report
  report=$(cargo run -q --offline -p pm-cli -- \
    serve-chaos --sessions 200 --budget-ms "${BUDGET_MS}" --json)
  if ! grep -q '"ok":true' <<<"${report}"; then
    echo "serve-chaos: sweep reported violations:" >&2
    echo "${report}" >&2
    exit 1
  fi
  if grep -Eq '"aborts":[1-9]' <<<"${report}"; then
    echo "serve-chaos: sweep reported server aborts" >&2
    exit 1
  fi
  if ! grep -q '"sessions_run":200' <<<"${report}"; then
    echo "serve-chaos: sweep did not complete all 200 sessions in budget:" >&2
    echo "${report}" >&2
    exit 1
  fi
  echo "serve-chaos: sweep ok"

  # Daemon smoke test: a real `pmdbg serve` process with real signals.
  # Push the committed fixture, check the bug summary against the golden
  # batch verdict (26 multiple-overwrites, the `pmdbg replay` hash), then
  # SIGTERM and check the drain and the exit-code contract (1 = bugs).
  cargo build -q --offline -p pm-cli
  local sock manifest response push_rc=0 serve_rc=0 serve_pid
  sock="/tmp/pmdbg-ci-$$.sock"
  manifest="/tmp/pmdbg-ci-$$.manifest.json"
  rm -f "${sock}" "${manifest}"
  target/debug/pmdbg serve --listen "${sock}" --metrics "${manifest}" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [ -S "${sock}" ] && break
    sleep 0.1
  done
  if [ ! -S "${sock}" ]; then
    echo "serve-chaos: daemon never bound ${sock}" >&2
    kill "${serve_pid}" 2>/dev/null || true
    exit 1
  fi
  response=$(target/debug/pmdbg push --addr "${sock}" \
    --trace tests/fixtures/btree_96.pmt2 --json) || push_rc=$?
  if [ "${push_rc}" -ne 1 ]; then
    echo "serve-chaos: push should exit 1 (bugs found), got ${push_rc}" >&2
    kill "${serve_pid}" 2>/dev/null || true
    exit 1
  fi
  if ! grep -q '"report_hash":"4fc95a913f0f9819"' <<<"${response}" ||
    ! grep -q '"kinds":{"multiple-overwrites":26}' <<<"${response}"; then
    echo "serve-chaos: bug summary drifted from the golden batch verdict:" >&2
    echo "${response}" >&2
    kill "${serve_pid}" 2>/dev/null || true
    exit 1
  fi
  kill -TERM "${serve_pid}"
  wait "${serve_pid}" || serve_rc=$?
  if [ "${serve_rc}" -ne 1 ]; then
    echo "serve-chaos: serve should exit 1 (bugs across sessions), got ${serve_rc}" >&2
    exit 1
  fi
  if ! grep -q '"tool":"pmdbg-serve"' "${manifest}"; then
    echo "serve-chaos: final manifest missing or malformed: ${manifest}" >&2
    exit 1
  fi
  if [ -S "${sock}" ]; then
    echo "serve-chaos: socket not unlinked after drain" >&2
    exit 1
  fi
  rm -f "${manifest}"
  echo "serve-chaos: daemon smoke ok"
}

concurrent_chaos_stage() {
  # Thread-crash sweep: 100 seeded plans cycling the three lock-free
  # workloads at 2/4/8 threads, each crashed at a seeded boundary with a
  # random subset of threads killed, then replayed through the
  # sequential, parallel, supervised and streaming engines under the
  # shared wall-clock budget. The sweep's own oracles enforce zero
  # aborts and byte-identical survivor verdicts; here we gate on the
  # machine-readable report plus the abort count explicitly.
  local report
  report=$(cargo run -q --offline -p pm-cli -- \
    chaos --thread-crash --plans 100 --ops 24 \
    --budget-ms "${BUDGET_MS}" --json)
  if ! grep -q '"ok":true' <<<"${report}"; then
    echo "concurrent-chaos: sweep reported violations:" >&2
    echo "${report}" >&2
    exit 1
  fi
  if grep -Eq '"aborts":[1-9]' <<<"${report}"; then
    echo "concurrent-chaos: sweep reported process aborts" >&2
    exit 1
  fi
  if ! grep -q '"plans_run":100' <<<"${report}"; then
    echo "concurrent-chaos: sweep did not complete all 100 plans in budget:" >&2
    echo "${report}" >&2
    exit 1
  fi
  echo "concurrent-chaos: ok"
}

journal_chaos_stage() {
  # Daemon-crash sweep: 100 seeded plans mixing clean runs (replay
  # fences across restarts) with mid-stream daemon kills over torn-write
  # / dropped-fsync / short-write / ENOSPC journal filesystems and real
  # kill -9 of `pmdbg serve` subprocesses, each followed by recovery
  # over the same journal directory and a client replay. The sweep's
  # own oracles enforce the crash-durability contract — zero verdict
  # loss, zero duplication, byte-identical recovered verdicts; here we
  # gate on the machine-readable report plus the loss/duplication and
  # completion counts explicitly.
  cargo build -q --offline -p pm-cli
  local report
  report=$(cargo run -q --offline -p pm-cli -- \
    chaos --daemon-crash --plans 100 --budget-ms "${BUDGET_MS}" --json)
  if ! grep -q '"ok":true' <<<"${report}"; then
    echo "journal-chaos: sweep reported violations:" >&2
    echo "${report}" >&2
    exit 1
  fi
  if ! grep -q '"verdicts_lost":0' <<<"${report}" ||
    ! grep -q '"verdicts_duplicated":0' <<<"${report}"; then
    echo "journal-chaos: exactly-once verdict contract broken:" >&2
    echo "${report}" >&2
    exit 1
  fi
  if grep -Eq '"aborts":[1-9]' <<<"${report}"; then
    echo "journal-chaos: sweep reported daemon aborts" >&2
    exit 1
  fi
  if ! grep -q '"plans_run":100' <<<"${report}"; then
    echo "journal-chaos: sweep did not complete all 100 plans in budget:" >&2
    echo "${report}" >&2
    exit 1
  fi
  echo "journal-chaos: ok"
}

mem_chaos_stage() {
  # Memory-pressure sweep: 100 seeded plans inject a memory governor into
  # a fresh in-process server per plan and starve it five ways (whale
  # sessions, small-session herds, spill storms, failing allocators,
  # under-estimate global budgets). The sweep's own oracles enforce the
  # governance contract — tracked bytes drain to zero, every spill is
  # matched by a rehydration, rejections equal client-observed sheds;
  # here we gate on the machine-readable report plus the abort,
  # divergence and completion counts explicitly.
  local report
  report=$(cargo run -q --offline -p pm-cli -- \
    chaos --mem-pressure --plans 100 --budget-ms "${BUDGET_MS}" --json)
  if ! grep -q '"ok":true' <<<"${report}"; then
    echo "mem-chaos: sweep reported violations:" >&2
    echo "${report}" >&2
    exit 1
  fi
  if grep -Eq '"aborts":[1-9]' <<<"${report}"; then
    echo "mem-chaos: sweep reported server aborts" >&2
    exit 1
  fi
  if ! grep -q '"verdict_divergence":0' <<<"${report}"; then
    echo "mem-chaos: pressured verdicts diverged from batch runs:" >&2
    echo "${report}" >&2
    exit 1
  fi
  if ! grep -q '"plans_run":100' <<<"${report}"; then
    echo "mem-chaos: sweep did not complete all 100 plans in budget:" >&2
    echo "${report}" >&2
    exit 1
  fi
  echo "mem-chaos: ok"
}

obs_smoke_stage() {
  # Metrics-overhead gate: smoke-sized run, fail when metrics-on costs
  # more than PM_OBS_MAX_OVERHEAD_PCT (default 5% — the smoke inputs are
  # small enough that scheduler noise dominates below that).
  PM_BENCH_SMOKE=1 \
  PM_BENCH_JSON="${PM_OBS_JSON:-$(pwd)/target/obs_smoke.json}" \
  PM_OBS_MAX_OVERHEAD_PCT="${PM_OBS_MAX_OVERHEAD_PCT:-5}" \
    cargo bench -q --offline -p pm-bench --bench metrics_overhead
}

for stage in "${STAGES[@]}"; do
  case "${stage}" in
    lint)
      run_stage lint cargo clippy --workspace --all-targets --offline -- -D warnings
      ;;
    fmt)
      run_stage fmt cargo fmt --check
      ;;
    unit)
      run_stage unit cargo test -q --offline --workspace --lib
      ;;
    integration)
      run_stage integration cargo test -q --offline --workspace --tests
      ;;
    docs)
      run_stage docs docs_stage
      ;;
    bench-smoke)
      run_stage bench-smoke scripts/bench_gate.sh parallel
      ;;
    ingest-bench)
      run_stage ingest-bench scripts/bench_gate.sh ingest
      ;;
    perfbench)
      run_stage perfbench cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
      ;;
    obs-smoke)
      run_stage obs-smoke obs_smoke_stage
      ;;
    ingest-torture)
      run_stage ingest-torture ingest_torture_stage
      ;;
    supervisor-chaos)
      run_stage supervisor-chaos supervisor_chaos_stage
      ;;
    serve-chaos)
      run_stage serve-chaos serve_chaos_stage
      ;;
    concurrent-chaos)
      run_stage concurrent-chaos concurrent_chaos_stage
      ;;
    journal-chaos)
      run_stage journal-chaos journal_chaos_stage
      ;;
    mem-chaos)
      run_stage mem-chaos mem_chaos_stage
      ;;
    *)
      echo "unknown stage: ${stage}" >&2
      exit 2
      ;;
  esac
done

echo
echo "stage timings:"
for t in "${TIMINGS[@]}"; do
  echo "  ${t}"
done
echo "CI OK"
