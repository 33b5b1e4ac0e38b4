//go:build !race

package cinemacluster

const raceEnabled = false
