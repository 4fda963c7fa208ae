//go:build !race

package profiling

const raceEnabled = false
