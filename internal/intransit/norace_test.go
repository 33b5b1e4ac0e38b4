//go:build !race

package intransit

const raceEnabled = false
