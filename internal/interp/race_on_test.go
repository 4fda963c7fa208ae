//go:build race

package interp

// raceEnabled reports that the race detector instruments this build; its
// shadow allocations make testing.AllocsPerRun gates meaningless.
const raceEnabled = true
