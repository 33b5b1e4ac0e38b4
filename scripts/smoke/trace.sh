#!/usr/bin/env bash
# trace smoke: a traced live run must export a Chrome/Perfetto JSON that
# re-parses (required fields, counter tracks present) and an attribution
# whose per-phase energies re-sum to the profile's total within 1e-9.
source "$(dirname "$0")/lib.sh"

build liverun tracecheck

small_run store -trace trace.json -attrib attrib.json
tracecheck -want-counters -trace trace.json -attrib attrib.json
