#!/usr/bin/env bash
# serve smoke: live run -> Cinema store -> cinemaserve -> Zipf load burst.
# A small cache budget plus a tight admission bound makes the burst
# exercise every serving contract at once: hits, coalesced misses,
# evictions and deliberate sheds.
source "$(dirname "$0")/lib.sh"

build liverun cinemaserve cinemaload

small_run store -ortho-views 2 -telemetry - > serve-run.txt
expect_pool_active serve-run.txt

launch server.log cinemaserve -http 127.0.0.1:18080 -db run=store/cinema \
  -cache-bytes 262144 -max-inflight 4
wait_http http://127.0.0.1:18080/cinema/
# cinemaload exits nonzero if any request fails with a status other than
# 200 or 503, or if nothing succeeds at all.
cinemaload -addr http://127.0.0.1:18080 -store run \
  -workers 8 -requests 800 -zipf-s 1.2 -seed 7
curl -fsS http://127.0.0.1:18080/metrics > metrics.txt

expect metrics.txt '^counter serve\.cache\.hits [1-9]'
expect metrics.txt '^histogram serve\.latency\.ns p99 '
expect metrics.txt '^counter serve\.errors 0$'

# Last, the stop an orchestrator (and lib.sh's reap) sends: a plain kill is
# SIGTERM, and the server must take it as a request to drain and exit,
# not die on the default action with its deferred shutdown unrun.
server=$LAUNCHED
kill "$server"
LAUNCHED=$$ # the wait is for that child's death, which must not abort it
gone() { ! kill -0 "$1" 2> /dev/null; }
wait_for "cinemaserve (pid $server) to exit on SIGTERM" gone "$server"
expect server.log '^shutting down$'
