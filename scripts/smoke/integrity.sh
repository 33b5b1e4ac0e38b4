#!/usr/bin/env bash
# integrity smoke: bit-rot is named, never served, and repaired from a
# replica. Unlike cluster.sh's shared mount, every node gets its OWN copy
# of the store — rot on one replica must be invisible to the others and
# reparable from them. Node caches are disabled and the 1 s scrubber armed
# so every read and sweep re-verifies the replica's actual disk bytes.
source "$(dirname "$0")/lib.sh"

build liverun cinemaverify cinemaserve cinemaload

small_run store -ortho-views 2
cinemaverify store/cinema

for i in 0 1 2; do
  cp -r store/cinema replica$i
  launch node$i.log cinemaserve -http 127.0.0.1:$((19101 + i)) -db run=replica$i \
    -cache-bytes=-1 -scrub 1s
  wait_http http://127.0.0.1:$((19101 + i))/cinema/
done
# The gateway runs cache-disabled too: a warm gateway would — correctly —
# serve the verified pre-rot bytes from its own memory and never walk the
# replicas.
GW=http://127.0.0.1:19100
launch gateway.log cinemaserve -http 127.0.0.1:19100 -cluster \
  -peers http://127.0.0.1:19101,http://127.0.0.1:19102,http://127.0.0.1:19103 \
  -replicas 2 -cache-bytes=-1 \
  -repair-dir node0/run=replica0 -repair-dir node1/run=replica1 \
  -repair-dir node2/run=replica2
wait_http $GW/cinema/run/index.json

# served_by HEADERS: the node named by the X-Cinema-Node response header.
served_by() {
  tr -d '\r' < "$1" | awk -F': ' 'tolower($1)=="x-cinema-node" {print $2}'
}

# Pick a frame and learn which replica serves it.
curl -fsS $GW/cinema/run/index.json > index.json
sed -n 's/.*"file": *"\([^"]*\)".*/\1/p' index.json | sort -u | head -1 > target.txt
[ -s target.txt ]
F=$(cat target.txt)
curl -fsS -D headers.txt "$GW/cinema/run/file/$F" > before.png
served_by headers.txt > victim.txt
[ -s victim.txt ]
VICTIM=$(cat victim.txt)
ROTTEN=replica${VICTIM#node}
echo "frame $F is served by $VICTIM"

# Rot the serving replica's copy of the frame.
python3 -c "import sys; p = sys.argv[1]; d = bytearray(open(p, 'rb').read()); d[len(d) // 2] ^= 0x80; open(p, 'wb').write(d)" "$ROTTEN/$F"
echo "flipped a mid-file bit of $ROTTEN/$F"

# cinemaverify names the rotten frame and exits nonzero.
if cinemaverify "$ROTTEN" > verify-rotten.txt; then
  die "cinemaverify passed a rotten store"
fi
cat verify-rotten.txt
grep -F "$F" verify-rotten.txt

# The re-fetch must walk the replicas: the victim answers 500 +
# X-Cinema-Corrupt, a healthy owner serves the exact original bytes, and
# the gateway rewrites the victim's file.
curl -fsS -D headers2.txt "$GW/cinema/run/file/$F" > after.png
cmp before.png after.png
SERVER=$(served_by headers2.txt)
echo "failover served by $SERVER (victim was $VICTIM)"
[ -n "$SERVER" ]
[ "$SERVER" != "$VICTIM" ]
cmp before.png "$ROTTEN/$F"

# Burst through the gateway with zero client-visible errors (cinemaload
# exits nonzero on any status other than 200 or 503), then give the
# victim a bounded wait for a scrubber sweep and for its in-memory
# quarantine to lift (a clean sweep or a clean re-read lifts it).
cinemaload -addr $GW -store run \
  -workers 8 -requests 2000 -zipf-s 1.2 -seed 7 -nearest
wait_metric $GW/metrics counter "$VICTIM.serve.scrub.sweeps" '-ge 1'
wait_metric $GW/metrics gauge "$VICTIM.serve.quarantined" '-eq 0'

# Detection, repair, scrub and self-heal are visible in the metrics.
curl -fsS $GW/metrics > metrics.txt
expect metrics.txt '^counter cluster\.corrupt [1-9]'
expect metrics.txt '^counter cluster\.repairs [1-9]'
expect metrics.txt '^counter cluster\.repair\.errors 0$'
expect metrics.txt '^counter cluster\.errors 0$'
expect metrics.txt "^counter $VICTIM\.serve\.corrupt [1-9]"
expect metrics.txt "^counter $VICTIM\.serve\.scrub\.sweeps [1-9]"
expect metrics.txt "^gauge $VICTIM\.serve\.quarantined 0$"
expect metrics.txt "^gauge cluster\.node\.$VICTIM\.up 1$"

# The repaired replica verifies clean.
cinemaverify "$ROTTEN"
