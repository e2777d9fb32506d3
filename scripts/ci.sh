#!/usr/bin/env bash
# Repo CI gate: staged pipeline with per-stage timing. Run from anywhere.
#
#   lint -> fmt -> unit -> integration -> docs -> bench-smoke -> ingest-bench
#     -> perfbench -> obs-smoke -> ingest-torture -> supervisor-chaos -> serve-chaos
#     -> concurrent-chaos -> journal-chaos -> mem-chaos
#
# lint              clippy over all targets, warnings are errors
# fmt               rustfmt check
# unit              library unit tests
# integration       integration-test binaries (incl. golden snapshots)
# docs              doc tests (pm-obs keeps >= 3), then rustdoc with warnings as errors
# bench-smoke       parallel-pipeline smoke bench vs scripts/bench_baseline.json
# ingest-bench      ingest smoke bench vs scripts/ingest_baseline.json
# perfbench         the end-to-end benchmark's own tests (perfbench/)
# obs-smoke         metrics-on overhead under PM_OBS_MAX_OVERHEAD_PCT (5%)
# ingest-torture    `pmdbg sweep torture`, 500 plans on each committed fixture
# supervisor-chaos  `pmdbg sweep supervise`, 200 detector-fault plans
# serve-chaos       `pmdbg sweep serve`, 200 hostile sessions, then a `pmdbg serve` daemon smoke test
# concurrent-chaos  `pmdbg sweep thread-crash`, 100 plans
# journal-chaos     `pmdbg sweep daemon-crash`, 100 plans
# mem-chaos         `pmdbg sweep mem-pressure`, 100 plans
#
# Each sweep stage gates on pmdbg's exit code alone: 0 means every plan ran
# clean; 1 means aborts or violations; 4 means clean but cut short by the
# shared PM_CI_BUDGET_SECS wall clock (default 120). Every run writes
# target/ci_timings.json (override: PM_CI_TIMINGS_JSON), one
# {stage, seconds, status} row per stage, the failing stage marked "fail".
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

# One seeded chaos sweep, gated on pmdbg's exit code alone.
sweep_stage() {
  cargo run -q --offline -p pm-cli -- sweep "$@" --budget-ms "${BUDGET_MS}"
}

ingest_torture_stage() {
  local fixture
  for fixture in tests/fixtures/btree_96.pmt2 tests/fixtures/hashmap_atomic_48.trace; do
    sweep_stage torture --trace "${fixture}" --plans 500 --seed 806405
  done
}

serve_chaos_stage() {
  sweep_stage serve --plans 200

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
      run_stage supervisor-chaos sweep_stage supervise --workload hashmap_atomic --ops 64 --plans 200
      ;;
    serve-chaos)
      run_stage serve-chaos serve_chaos_stage
      ;;
    concurrent-chaos)
      run_stage concurrent-chaos sweep_stage thread-crash --plans 100 --ops 24
      ;;
    journal-chaos)
      run_stage journal-chaos sweep_stage daemon-crash --plans 100
      ;;
    mem-chaos)
      run_stage mem-chaos sweep_stage mem-pressure --plans 100
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
