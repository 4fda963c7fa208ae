//go:build race

package vm

// raceEnabled reports that the race detector instruments this build; its
// shadow allocations make testing.AllocsPerRun gates meaningless.
const raceEnabled = true
