#!/usr/bin/env bash
# cluster smoke: three serving nodes on one shared store (the paper's
# Lustre posture, which is what makes killing any node safe for every
# frame) behind a gateway with R=2. SIGKILLing a node mid-burst must cost
# cache warmth, never availability: zero client-visible errors, the same
# bytes before and after, and the survivors share the orphaned keyspace.
source "$(dirname "$0")/lib.sh"

build liverun cinemaserve cinemaload

small_run store -ortho-views 2

# Peer order names the nodes node0..node2. Every node must answer before
# the gateway starts: a probe against a half-started fleet would count as
# a routing error and trip the zero-errors assertion below.
nodes=()
for port in 19001 19002 19003; do
  launch node-$port.log cinemaserve -http 127.0.0.1:$port -db run=store/cinema \
    -cache-bytes 1048576
  nodes+=("$LAUNCHED")
  wait_http http://127.0.0.1:$port/cinema/
done
GW=http://127.0.0.1:19000
launch gateway.log cinemaserve -http 127.0.0.1:19000 -cluster \
  -peers http://127.0.0.1:19001,http://127.0.0.1:19002,http://127.0.0.1:19003 \
  -replicas 2
wait_http $GW/cinema/run/index.json

# Snapshot frames through the gateway before any failure.
mkdir -p before after
curl -fsS $GW/cinema/run/index.json > index.json
sed -n 's/.*"file": *"\([^"]*\)".*/\1/p' index.json | sort -u | head -8 > files.txt
[ -s files.txt ]
while read -r f; do
  curl -fsS "$GW/cinema/run/file/$f" > "before/$f"
done < files.txt

# The gateway keys and routes on the parsed request: one axis point
# spelled two ways is one cache entry (one miss), and a malformed query
# is the gateway's own 400 — no peer contacted, no failover counted.
VAR=$(sed -n 's/.*"variable": *"\([^"]*\)".*/\1/p' index.json | head -1)
T=$(sed -n 's/.*"time": *\([0-9][0-9]*\).*/\1/p' index.json | head -1)
[ -n "$VAR" ] && [ -n "$T" ]
curl -fsS $GW/metrics > cluster-metrics-pre.txt
misses_before=$(metric cluster-metrics-pre.txt counter cluster.cache.misses)
curl -fsS "$GW/cinema/run/frame?var=$VAR&time=$T&nearest=1" > spelling-a.png
curl -fsS "$GW/cinema/run/frame?nearest=1&time=$T.0&var=$VAR" > spelling-b.png
cmp spelling-a.png spelling-b.png
code=$(curl -s -o /dev/null -w '%{http_code}' "$GW/cinema/run/frame?var=$VAR&time=$T&nearest=maybe")
echo "nearest=maybe -> $code"
[ "$code" = 400 ]
curl -fsS $GW/metrics > cluster-metrics-pre.txt
misses_after=$(metric cluster-metrics-pre.txt counter cluster.cache.misses)
echo "cluster.cache.misses $misses_before -> $misses_after"
[ "$misses_after" -eq "$((misses_before + 1))" ]
expect cluster-metrics-pre.txt '^counter cluster\.failover 0$'

# Burst the gateway and SIGKILL node1 once the burst is demonstrably under
# way. cinemaload exits nonzero on any status other than 200 or 503, so
# its zero exit IS the zero-client-visible-errors assertion. -nearest
# jitters every query so requests keep reaching the peers instead of
# parking in the gateway's memory tier.
launch burst.log cinemaload -addr $GW -store run \
  -workers 8 -requests 4000 -zipf-s 1.2 -seed 7 -nearest
burst=$LAUNCHED
wait_metric $GW/metrics counter cluster.requests '-ge 500'
kill -9 "${nodes[1]}"
kill -0 "$burst" 2> /dev/null || die "the burst finished before the SIGKILL landed: failover under load was not tested"
wait "${nodes[1]}" 2> /dev/null || true
echo "killed node1 (port 19002) mid-burst"
wait "$burst"
cat burst.log

# The gateway keeps the peer connections it opened: through the whole
# burst, the SIGKILL and its failed re-dials included, it dials at most
# twice per load worker per node (3 nodes, 8 workers).
curl -fsS $GW/metrics > cluster-metrics-burst.txt
dials=$(metric cluster-metrics-burst.txt counter cluster.peer.dials)
echo "cluster.peer.dials after the first burst: $dials"
[ -n "$dials" ] && [ "$dials" -le $((2 * 3 * 8)) ] || die "cluster.peer.dials $dials > 48: the gateway re-dials its peers"

# A gateway miss costs one node request: no cacheonly probe before the
# read (cinemaload sends none of its own). Every node request is that
# read, a retry past a failed node (cluster.failover), or a relayed
# non-frame request (index.json, here; the gateway's requests that were
# neither a cache hit nor a miss, the one 400 above included).
probes=$(metric cluster-metrics-burst.txt counter cluster.peer.probes)
misses=$(metric cluster-metrics-burst.txt counter cluster.cache.misses)
hits=$(metric cluster-metrics-burst.txt counter cluster.cache.hits)
requests=$(metric cluster-metrics-burst.txt counter cluster.requests)
failover=$(metric cluster-metrics-burst.txt counter cluster.failover)
node_requests=0
for i in 0 1 2; do
  n=$(metric cluster-metrics-burst.txt counter cluster.node.node$i.requests)
  node_requests=$((node_requests + n))
done
other=$((requests - hits - misses))
echo "cluster.peer.probes $probes; $node_requests node requests for $misses gateway misses, $failover failovers, $other non-frame requests"
[ "$probes" = 0 ] || die "cluster.peer.probes $probes: ordinary requests probed the owners' memory"
[ "$node_requests" -le $((misses + failover + other)) ] ||
  die "$node_requests node requests > $misses misses + $failover failovers + $other non-frame requests: more than one round trip per miss"

# Whether a re-fetch is answered from the gateway's memory tier (no query
# suffix busts it: the cache key is the parsed request) or re-routes
# around the dead node, it must produce exactly the bytes snapshotted
# before. integrity.sh byte-checks the re-routing cache-disabled.
while read -r f; do
  curl -fsS "$GW/cinema/run/file/$f" > "after/$f"
  cmp "before/$f" "after/$f"
done < files.txt

# Survivors rebalance: baseline their per-node ok counters, burst again,
# and require both to have moved — the dead node's keyspace share must
# spread over the remaining ring, not pile onto one neighbor.
curl -fsS $GW/metrics > cluster-metrics-mid.txt
ok0_before=$(metric cluster-metrics-mid.txt counter cluster.node.node0.ok)
ok2_before=$(metric cluster-metrics-mid.txt counter cluster.node.node2.ok)
cinemaload -addr $GW -store run \
  -workers 8 -requests 1200 -zipf-s 1.2 -seed 11 -nearest
curl -fsS $GW/metrics > cluster-metrics.txt
ok0_after=$(metric cluster-metrics.txt counter cluster.node.node0.ok)
ok2_after=$(metric cluster-metrics.txt counter cluster.node.node2.ok)
echo "node0 ok $ok0_before -> $ok0_after, node2 ok $ok2_before -> $ok2_after"
[ "$ok0_after" -gt "$ok0_before" ]
[ "$ok2_after" -gt "$ok2_before" ]

expect cluster-metrics.txt '^counter cluster\.failover [1-9]'
expect cluster-metrics.txt '^counter cluster\.errors 0$'
expect cluster-metrics.txt '^gauge cluster\.node\.node1\.up 0$'
expect cluster-metrics.txt '^gauge cluster\.node\.node0\.up 1$'

# The multi-target loader round-robins the two live nodes with client-side
# failover; -balance-fail turns a lopsided fleet into a nonzero exit.
cinemaload -targets http://127.0.0.1:19001,http://127.0.0.1:19003 \
  -store run -workers 8 -requests 800 -zipf-s 1.2 -seed 13 -balance-fail 3
