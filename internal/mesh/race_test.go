//go:build race

package mesh

// raceEnabled makes allocation-budget tests skip under the race detector,
// whose instrumentation adds allocations of its own.
const raceEnabled = true
