#!/bin/sh
# Tier-1 gate: everything must pass before a change lands.
#   - every .go file gofmt-clean
#   - build every package
#   - go vet, here and in the bench/ module (which root ./... never
#     compiles, so a removed internal symbol it names would otherwise break
#     only CI's bench-smoke job)
#   - full test suite
#   - full test suite again under the race detector (the worker pool and
#     frame-reuse paths are concurrency-sensitive)
#   - the worker pool again under the race detector at GOMAXPROCS=8, so a
#     2-core machine still runs oversubscribed claims, nested helping,
#     parking and the short-cut chunk geometries
#   - the renderer again under the race detector at GOMAXPROCS=8: every
#     rank's footprint is written concurrently into one shared composite
#     frame, and oversubscribed claims are how an overlapping write shows
#   - the mesh and the ocean model again under the race detector at
#     GOMAXPROCS=8: their builders write shared cell, edge and vertex
#     arrays from concurrent chunks
#   - the Cinema store again under the race detector at GOMAXPROCS=8:
#     Commit fsyncs the frames written since the last commit from a
#     bounded set of concurrent goroutines
#   - on a CPU with FMA, the pinned mesh and solver bits, the solver's
#     differential kernel test and the live runs' golden stores again
#     under GOAMD64=v3: the golden hashes promise amd64 bits at any
#     micro-architecture level, and v3 lets the compiler select FMA and
#     the other newer instructions, so a kernel whose bits depend on the
#     level fails here, and so does a committed store that moves
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l ."
test -z "$(gofmt -l .)"

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

echo "== GOMAXPROCS=8 go test -race -count=3 ./internal/workpool"
GOMAXPROCS=8 go test -race -count=3 ./internal/workpool

echo "== GOMAXPROCS=8 go test -race -count=2 ./internal/render"
GOMAXPROCS=8 go test -race -count=2 ./internal/render

echo "== GOMAXPROCS=8 go test -race -count=2 ./internal/mesh ./internal/ocean"
GOMAXPROCS=8 go test -race -count=2 ./internal/mesh ./internal/ocean

echo "== GOMAXPROCS=8 go test -race -count=2 ./internal/cinemastore"
GOMAXPROCS=8 go test -race -count=2 ./internal/cinemastore

if grep -qw fma /proc/cpuinfo 2>/dev/null; then
	echo "== GOAMD64=v3 go test (pinned mesh, solver, raster-map and store bits)"
	GOAMD64=v3 go test -count=1 \
		-run '^(TestSolverGoldenHash|TestParallelMatchesSerialBitwise|TestKernelsMatchStructReadingReference|TestMeshGoldenHash|TestRasterMapGoldenHash|TestLiveGoldenStores)$' \
		. ./internal/mesh ./internal/ocean ./internal/render
else
	echo "== GOAMD64=v3 go test: skipped (no fma in /proc/cpuinfo)"
fi

echo "tier-1: all green"
