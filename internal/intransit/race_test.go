//go:build race

package intransit

// raceEnabled skips the full-size MaxPayload round trip: its two 64 MiB
// buffers would cost several times that in race-detector shadow memory.
const raceEnabled = true
