//go:build !race

package progs

const raceEnabled = false
