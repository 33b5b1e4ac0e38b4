#!/usr/bin/env bash
# fuzz smoke: every native fuzz target in the module (any `func Fuzz*` in a
# _test.go file) searches for a counter-example for 30 s on top of its
# seed corpus. A crasher fails the scenario; `go test` leaves it under the
# package's testdata/fuzz/<target>/, to be committed as a regression case.
source "$(dirname "$0")/lib.sh"

cd "$ROOT"
targets=$(grep -rHo --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*' . | sed 's/:func /:/')
[ -n "$targets" ] || die "no fuzz targets found"
for t in $targets; do
  pkg=$(dirname "${t%%:*}") name=${t##*:}
  echo "fuzzing $name in $pkg"
  # Minimising is bounded by executions: by the clock (default 60 s per
  # interesting input) it eats the whole budget on kilobyte inputs.
  # Run from the package's own directory so a target in a nested module
  # (bench/) resolves too.
  (cd "$pkg" && go test . -run '^$' -fuzz "^$name\$" -fuzztime 30s -fuzzminimizetime 100x) \
    > "$OUT/$name.log" 2>&1 || {
    tail -n 40 "$OUT/$name.log" >&2
    die "$name failed"
  }
  tail -n 3 "$OUT/$name.log"
done
