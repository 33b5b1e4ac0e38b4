# Shared by every scripts/smoke/<name>.sh (sourced, never run): one work
# dir, one build step, one way to launch / await / scrape / reap children.
# A scenario takes no arguments and reads no environment knobs; it works
# in smoke-out/<name>/ (wiped at start, so a second run starts clean) and
# leaves its logs, scrapes and stores there for CI to upload.
set -euo pipefail

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
NAME=$(basename "$0" .sh)
OUT=$ROOT/smoke-out/$NAME
rm -rf "$OUT"
mkdir -p "$OUT/bin"
cd "$OUT"
PATH=$OUT/bin:$PATH

PIDS=() # every child launch started, in order
LOGS=() # LOGS[i] is the log of PIDS[i]
# Pid of the latest launch; before the first, the script itself (alive).
LAUNCHED=$$

die() {
  echo "smoke $NAME: $*" >&2
  exit 1
}

# build CMD...: compile the named cmd/* packages once into $OUT/bin, which
# is first on PATH, so scenarios call the binaries by their bare names.
build() {
  (cd "$ROOT" && go build -o "$OUT/bin/" "${@/#/./cmd/}")
}

# launch LOG CMD [ARG...]: start CMD in the background with stdout and
# stderr in LOG. The pid is left in $LAUNCHED and recorded for the trap.
launch() {
  local log=$1
  shift
  "$@" > "$log" 2>&1 &
  LAUNCHED=$!
  PIDS+=("$LAUNCHED")
  LOGS+=("$log")
}

# child_logs: the state and log tail of every launched child, for failures.
child_logs() {
  local i state
  for i in "${!PIDS[@]}"; do
    state=exited
    kill -0 "${PIDS[$i]}" 2> /dev/null && state=running
    echo "--- ${LOGS[$i]} (pid ${PIDS[$i]}, $state), last 20 lines:" >&2
    tail -n 20 "${LOGS[$i]}" >&2 || true
  done
}

# wait_for WHAT CMD [ARG...]: poll CMD until it succeeds; at most 10 s, or
# until the most recently launched child has died. Failing here — with
# every child's log tail — beats the next command failing with a
# misleading error.
wait_for() {
  local what=$1 deadline=$((SECONDS + 10))
  shift
  while [ $SECONDS -lt $deadline ]; do
    "$@" > /dev/null 2>&1 && return 0
    kill -0 "$LAUNCHED" 2> /dev/null || break
    sleep 0.05
  done
  child_logs
  die "gave up waiting for $what"
}

# wait_http URL: wait until URL answers 2xx.
wait_http() {
  wait_for "$1" curl -fsS "$1"
}

# metric FILE KIND NAME: the value of one line of the text exposition
# ("counter serve.errors 0"); empty when the line is absent.
metric() {
  awk -v k="$2" -v n="$3" '$1 == k && $2 == n {print $3}' "$1"
}

# wait_metric URL KIND NAME TEST: wait until the metric scraped from URL
# satisfies `[ value TEST ]` (TEST like "-ge 500").
wait_metric() {
  wait_for "$2 $3 $4 at $1" metric_is "$@"
}
metric_is() {
  local v
  v=$(curl -fsS "$1" | metric - "$2" "$3")
  # shellcheck disable=SC2086
  [ -n "$v" ] && [ "$v" $4 ]
}

# expect FILE REGEX: FILE must hold a line matching the extended regex.
expect() {
  grep -E -- "$2" "$1" || die "expect: no line of $1 matches /$2/"
}

# expect_pool_active FILE: the sharded pool's idle workers must park (not
# spin), publishes must wake them, and non-owners (helping callers
# included) must steal at least once across the run. Below 4 vCPUs the
# pool may collapse to one shard and legitimately never steal, so there
# the check is advisory.
expect_pool_active() {
  if [ "$(nproc)" -lt 4 ]; then
    echo "advisory skip: $(nproc) vCPUs < 4, single-shard pool may never park/steal"
    return 0
  fi
  expect "$1" '^counter workpool\.parks [1-9]'
  expect "$1" '^counter workpool\.wakeups [1-9]'
  expect "$1" '^counter workpool\.steals [1-9]'
}

# small_run OUTDIR [FLAG...]: the 24-step, 3-sample live run whose Cinema
# store every serving drill starts from (liverun must be built).
small_run() {
  liverun -mode insitu -steps 24 -sample-every 8 -subdivisions 2 \
    -width 96 -height 48 -render-ranks 3 -out "$@"
}

# reap: stop every launched child (TERM, then KILL after 5 s) and fail if
# any survives. Runs from the EXIT trap, so on success, on a failed
# assertion and on SIGINT alike no child is left holding a port.
reap() {
  local pid rc=0 deadline=$((SECONDS + 5))
  [ ${#PIDS[@]} -eq 0 ] && return 0
  kill "${PIDS[@]}" 2> /dev/null || true
  while kill -0 "${PIDS[@]}" 2> /dev/null && [ $SECONDS -lt $deadline ]; do
    sleep 0.1
  done
  kill -9 "${PIDS[@]}" 2> /dev/null || true
  wait "${PIDS[@]}" 2> /dev/null || true
  for pid in "${PIDS[@]}"; do
    if kill -0 "$pid" 2> /dev/null; then
      echo "smoke $NAME: child $pid survived the reap" >&2
      rc=1
    fi
  done
  return $rc
}

on_exit() {
  local rc=$?
  trap - EXIT
  reap || rc=1
  if [ $rc -eq 0 ]; then
    echo "smoke $NAME: PASS (artifacts in smoke-out/$NAME/)"
  else
    echo "smoke $NAME: FAIL (exit $rc, artifacts in smoke-out/$NAME/)" >&2
  fi
  exit $rc
}
trap on_exit EXIT
trap 'exit 130' INT TERM
