#!/usr/bin/env bash
# Run every smoke scenario in turn, stopping at the first failure.
set -eu
for s in trace serve chaos model transit cluster integrity fuzz; do
  "$(dirname "$0")/$s.sh"
done
