package ir_test

import (
	"os"
	"testing"

	"privateer/internal/core"
	"privateer/internal/ir"
	"privateer/internal/specrt"
)

// TestCheckedInTextualProgram parses testdata/histogram.pir — a hand-written
// textual-IR program with a histogram array reduction and a max reduction —
// and runs it through the whole pipeline: sequential, then speculative, with
// identical results.
func TestCheckedInTextualProgram(t *testing.T) {
	text, err := os.ReadFile("testdata/histogram.pir")
	if err != nil {
		t.Fatal(err)
	}
	seqMod, err := ir.Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	seqVal, seqOut, err := core.RunSequential(seqMod)
	if err != nil {
		t.Fatal(err)
	}
	if seqOut == "" {
		t.Fatal("no output")
	}
	parsed, err := ir.Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.Parallelize(parsed, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Regions) != 1 {
		t.Fatalf("regions = %d:\n%s", len(par.Regions), par.Summary())
	}
	rt, got, err := core.Run(par, specrt.Config{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got != seqVal || rt.Output() != seqOut {
		t.Errorf("parallel %d %q vs sequential %d %q (misspecs=%d)",
			got, rt.Output(), seqVal, seqOut, rt.Stats.Misspecs)
	}
	if rt.Stats.Misspecs != 0 {
		t.Errorf("misspeculations: %d", rt.Stats.Misspecs)
	}
}
