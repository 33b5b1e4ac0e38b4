#!/bin/sh
# Tier-1 gate: everything must pass before a change lands.
#   - build every package
#   - go vet, here and in the bench/ module (which root ./... never
#     compiles, so a removed internal symbol it names would otherwise break
#     only CI's bench-smoke job)
#   - full test suite
#   - full test suite again under the race detector (the worker pool and
#     frame-reuse paths are concurrency-sensitive)
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== bench module vets"
(cd bench && go vet ./...)

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

echo "tier-1: all green"
