#!/usr/bin/env bash
# model smoke: the online estimator synthesizes its observations from
# committed bytes and injected stalls, never wall clock, so two runs
# under the same seeded fault plan must emit byte-identical anomaly logs
# and snapshots; the injected live.io stall must surface as an io
# anomaly, and the fitted alpha's interval must bracket the reference.
source "$(dirname "$0")/lib.sh"

build liverun modelfit ncinfo powerchar whatif

model_run() {
  liverun -mode insitu -steps 64 -sample-every 8 -subdivisions 2 \
    -width 64 -height 32 -render-ranks 4 -ortho-views 2 -chaos seed=7 \
    -model -model-log "model$1.log" -model-out "model$1.json" \
    -out "model$1" -telemetry - > "run$1.txt"
}
model_run A
model_run B

cmp modelA.log modelB.log
cmp modelA.json modelB.json

# The default chaos profile injects a 3 s stall on the live.io site; the
# reference alpha is 6.3 s/GB.
expect modelA.log '^model anomaly #[0-9]+ io '
expect runA.txt '^counter model\.anomalies\.io [1-9]'
expect runA.txt '^fgauge model\.alpha_s_per_gb '
expect runA.txt 'model alpha contains-reference yes'

modelfit -online > modelfit.txt
expect modelfit.txt 'online matches offline to 1e-9: yes'

# The paper-reproduction commands: the post-processing pipeline's raw
# Okubo-Weiss dump read back, the Section V power characterisation and
# the Section VII what-if table, each at its smallest size.
small_run post -mode post > post-run.txt
ncinfo -stats post/raw/*.nc > ncinfo.txt
expect ncinfo.txt '^okuboWeiss +162 '
powerchar -sweep-steps 2 > powerchar.txt
expect powerchar.txt '^storage rack \(Lustre, 5 nodes\) +2\.27 kW +2\.30 kW'
whatif -years 1 > whatif.txt
expect whatif.txt '^post-processing: finest sampling under a 2\.00 TB budget = one output every '
