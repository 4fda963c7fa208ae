//go:build race

package progs

// raceEnabled reports that the race detector instruments this build; its
// shadow allocations make allocation counts meaningless.
const raceEnabled = true
