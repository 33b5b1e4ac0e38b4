#!/usr/bin/env bash
# transit smoke: the in-transit correctness contract is transport
# transparency. The same run streamed over TCP to two viz workers — under
# the transit chaos profile (dropped sends, wire delay, a partitioned
# worker) plus a real SIGKILL of one worker mid-run — must commit a store
# byte-identical to the in-process run's, with nothing dropped.
source "$(dirname "$0")/lib.sh"

build liverun vizworker tracecheck

run=(liverun -mode insitu -steps 960 -sample-every 24 -subdivisions 4
  -width 192 -height 96 -render-ranks 4 -ortho-views 2 -eddy-cores)
# The byte-exact oracle the TCP run is diffed against.
"${run[@]}" -out inproc-out

mkdir -p tcp-out/cinema
launch worker0.log vizworker -listen 127.0.0.1:19401 -out tcp-out/cinema
worker0=$LAUNCHED
wait_for worker0 grep -q '^accepting shards' worker0.log
launch worker1.log vizworker -listen 127.0.0.1:19402 -out tcp-out/cinema
wait_for worker1 grep -q '^accepting shards' worker1.log

# Every fault must be absorbed by reconnect-with-resume or ring failover:
# the sim exits zero with nothing dropped.
launch run.txt "${run[@]}" -transport tcp \
  -viz-workers 127.0.0.1:19401,127.0.0.1:19402 \
  -chaos seed=7,transit -faultlog fault.log \
  -trace trace.json -attrib attrib.json -out tcp-out -telemetry -
sim=$LAUNCHED
n=0
for i in $(seq 1 200); do
  n=$(find tcp-out/cinema -name '*.png' | wc -l)
  [ "$n" -ge 9 ] && break
  sleep 0.1
done
[ "$n" -ge 9 ] || die "only $n frames committed after 20 s"
kill -9 "$worker0"
wait "$worker0" 2> /dev/null || true
kill -0 "$sim" 2> /dev/null || die "the sim finished before the SIGKILL landed: no mid-run death was tested"
echo "killed worker0 after $n committed frames"
launch worker0b.log vizworker -listen 127.0.0.1:19401 -out tcp-out/cinema
wait "$sim"

# A SIGKILLed worker can leave torn temp files behind (frame writes are
# temp+rename); drop them before the tree diff. The committed frames and
# the index itself must match exactly.
find tcp-out/cinema -name '.*.tmp-*' -delete
diff -r inproc-out/cinema tcp-out/cinema

# All 40 samples were acked exactly once: the SIGKILL lands while worker0
# holds an in-flight sample, which must be resent, not lost or settled twice.
expect run.txt '^counter transit\.samples 40$'
expect run.txt '^counter transit\.reconnects [1-9]'
expect run.txt '^counter transit\.faults\.drop [1-9]'
expect run.txt '^counter transit\.bytes\.raw [1-9]'
expect run.txt '^counter transit\.bytes\.wire [1-9]'
expect run.txt '^counter live\.samples\.dropped 0$'
ratio=$(metric run.txt fgauge transit.compression.ratio)
echo "wire/raw ratio: $ratio (compression must save >= 30%)"
awk -v r="$ratio" 'BEGIN { exit !(r > 0 && r <= 0.7) }'

tracecheck -want-counters -trace trace.json -attrib attrib.json
