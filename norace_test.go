//go:build !race

package insituviz

const raceEnabled = false
