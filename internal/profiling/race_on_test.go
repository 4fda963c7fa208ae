//go:build race

package profiling

// raceEnabled reports that the race detector instruments this build; its
// shadow allocations make allocation budgets meaningless.
const raceEnabled = true
