#!/usr/bin/env bash
# Negative cases for lib.sh: a helper that cannot fail guards nothing.
# Each case is a scenario body run by a fresh bash that sources lib.sh
# under this script's name (so they share smoke-out/selftest/).
set -euo pipefail
cd "$(dirname "$0")"
OUT=../../smoke-out/selftest

# try BODY: run BODY the way a scenario would run it.
try() {
  bash -c "source ./lib.sh; $1" selftest
}

bad() {
  echo "${log:-}"
  echo "selftest: $*" >&2
  exit 1
}

# fails DESC BODY: BODY must exit non-zero; its output is left in $log.
fails() {
  log=$(try "$2" 2>&1) && bad "$1: exited 0"
  echo "ok: $1"
}

# no_child DESC: the pid a body wrote to child.pid must be gone.
no_child() {
  kill -0 "$(cat $OUT/child.pid)" 2> /dev/null && bad "$1: child survived"
  echo "ok: $1"
}

# Positive control first: were lib.sh itself broken, every case below
# would "fail" and this script would pass vacuously.
log=$(try 'echo "counter a.b 3" > m.txt
  expect m.txt "^counter a\.b 3$"
  [ "$(metric m.txt counter a.b)" = 3 ]
  launch sleeper.log sleep 300
  echo $LAUNCHED > child.pid' 2>&1) || bad "the positive control failed"
no_child "the trap reaps on success"

SECONDS=0
fails "wait_http on a server that died" \
  'launch dead.log sh -c "echo boom; exit 1"; wait_http http://127.0.0.1:1/'
grep -q boom <<< "$log" || bad "wait_http did not print the child's log"
fails "wait_http on a closed port" \
  'launch sleeper.log sleep 300; wait_http http://127.0.0.1:1/'
[ $SECONDS -le 15 ] || bad "wait_http took ${SECONDS}s, its bound is 10"

fails "expect on a missing counter" \
  'echo "counter serve.errors 0" > m.txt; expect m.txt "^counter serve\.cache\.hits [1-9]"'

fails "a failed assertion after a launch" \
  'launch sleeper.log sleep 300; echo $LAUNCHED > child.pid; false'
no_child "the trap reaps on failure"

fails "SIGINT after a launch" \
  'launch sleeper.log sleep 300; echo $LAUNCHED > child.pid; kill -INT $$; sleep 300'
no_child "the trap reaps on SIGINT"

echo "smoke selftest: PASS"
