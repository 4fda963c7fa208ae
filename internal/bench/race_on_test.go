//go:build race

package bench

// raceEnabled reports that the race detector instruments this build; it
// slows the interpreter several-fold, too much for the ref-input sweep.
const raceEnabled = true
