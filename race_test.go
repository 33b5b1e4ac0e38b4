//go:build race

package insituviz

// raceEnabled skips the type-resolved reachability guard under the race
// detector, whose instrumentation slows its type-check of the standard
// library from about 4 s to about 22 s on two cores. The guard is
// single-goroutine, so the plain pass loses nothing by running it alone.
const raceEnabled = true
