//go:build race

package cinemacluster

// raceEnabled makes allocation-budget tests skip under the race detector,
// whose instrumentation allocates on paths that are otherwise clean.
const raceEnabled = true
