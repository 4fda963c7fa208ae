package ir_test

import (
	"testing"

	"privateer/internal/ir"
	"privateer/internal/progs"
)

// TestPromoteAllocasDeterministic: mem2reg places its phis in instruction
// order, so a program builds to the same IR text every time. Ranging over a
// map of slots changed header phi order and value numbering between builds.
func TestPromoteAllocasDeterministic(t *testing.T) {
	for _, name := range []string{"052.alvinn", "swaptions"} {
		p := progs.ByName(name)
		want := ir.FormatModule(p.Build(p.Train))
		for i := 1; i < 20; i++ {
			if got := ir.FormatModule(p.Build(p.Train)); got != want {
				t.Fatalf("%s: build %d prints different IR than build 0", name, i)
			}
		}
	}
}
