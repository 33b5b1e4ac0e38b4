#!/usr/bin/env bash
# chaos smoke: the default chaos profile kills a render rank, blows the
# per-sample visualization deadline and tears the final index commit.
# Two runs under the same seeded plan must both complete (graceful
# degradation), log byte-identical faults, account every loss, conserve
# energy on the degraded timeline, and leave a store that serves clean
# through crash recovery.
source "$(dirname "$0")/lib.sh"

build liverun tracecheck cinemaserve

chaos_run() {
  liverun -mode insitu -steps 32 -sample-every 8 -subdivisions 2 \
    -width 64 -height 32 -render-ranks 4 -ortho-views 2 -chaos seed=7 \
    -telemetry - "$@"
}
chaos_run -faultlog faultA.log -out chaosA \
  -trace trace.json -attrib attrib.json > runA.txt
chaos_run -faultlog faultB.log -out chaosB > runB.txt

cmp faultA.log faultB.log
pattern='^counter (live\.(samples|frames)\.dropped|render\.(failover|rank\.crashes)|cinema\.commit\.retries) '
grep -E "$pattern" runA.txt > countersA.txt
grep -E "$pattern" runB.txt > countersB.txt
cmp countersA.txt countersB.txt

expect runA.txt '^counter live\.samples\.dropped [1-9]'
expect runA.txt '^counter live\.frames\.dropped [1-9]'
expect runA.txt '^counter render\.rank\.crashes [1-9]'
expect runA.txt '^counter render\.failover [1-9]'
expect runA.txt '^counter cinema\.commit\.retries [1-9]'
expect_pool_active runA.txt

tracecheck -want-counters -trace trace.json -attrib attrib.json

# -repair opens through RepairOpen; the retried index must be complete,
# and a clean serving pass leaves the circuit breaker closed (state 0)
# with zero serve errors.
launch server.log cinemaserve -http 127.0.0.1:18081 -repair -db run=chaosA/cinema
wait_http http://127.0.0.1:18081/cinema/
curl -fsS http://127.0.0.1:18081/cinema/run/index.json > /dev/null
curl -fsS http://127.0.0.1:18081/metrics > chaos-metrics.txt
expect chaos-metrics.txt '^gauge serve\.breaker\.run\.state 0$'
expect chaos-metrics.txt '^counter serve\.errors 0$'
