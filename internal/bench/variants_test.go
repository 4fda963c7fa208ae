package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"privateer/internal/progs"
	"privateer/internal/specrt"
)

// variantGolden is the columns of a VariantRow that
// testdata/variants_golden.json pins: dynamic check counts, simulated times
// and static counters (the rest of the row is derived from them).
type variantGolden struct {
	BeforeChecks int64          `json:"before_checks"`
	AfterChecks  int64          `json:"after_checks"`
	BeforeSim    int64          `json:"before_sim"`
	AfterSim     int64          `json:"after_sim"`
	SeqSteps     int64          `json:"seq_steps"`
	Static       map[string]int `json:"static"`
}

// TestVariantTable runs every row of the variant table on train inputs and
// gates it: the after build is bit-identical to the before build on every
// program and runs no more dynamic checks, and the stage under test
// rewrote static sites in at least minRewritten programs (a pass that
// silently stopped firing would otherwise look like a clean run). The
// elision and staticsep variants are pinned to
// testdata/variants_golden.json, recorded from the per-experiment
// runners this table replaced.
func TestVariantTable(t *testing.T) {
	raw, err := os.ReadFile("testdata/variants_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]variantGolden
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	minRewritten := map[string]int{"elision": 1, "staticsep": 2, "ablation": 1}
	for name := range variants {
		name := name
		t.Run(name, func(t *testing.T) {
			rep, err := RunVariant(QuickConfig(), name)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Programs) != len(progs.All()) {
				t.Fatalf("%d rows, want %d", len(rep.Programs), len(progs.All()))
			}
			rewritten := 0
			for _, row := range rep.Programs {
				if !row.BaselineMatch {
					t.Errorf("%s: after build diverged from the before build", row.Name)
				}
				if row.AfterChecks > row.BeforeChecks {
					t.Errorf("%s: after build ran more checks (%d) than before (%d)",
						row.Name, row.AfterChecks, row.BeforeChecks)
				}
				for _, n := range row.Static {
					if n > 0 {
						rewritten++
						break
					}
				}
				want, pinned := golden[name][row.Name]
				got := variantGolden{row.BeforeChecks, row.AfterChecks,
					row.BeforeSim, row.AfterSim, row.SeqSteps, row.Static}
				if pinned && !reflect.DeepEqual(got, want) {
					t.Errorf("%s: pinned columns moved:\n got %+v\nwant %+v", row.Name, got, want)
				}
			}
			if min, gated := minRewritten[name]; !gated {
				t.Errorf("variant %q has no minRewritten gate", name)
			} else if rewritten < min {
				t.Errorf("stage rewrote static sites in %d programs, want at least %d",
					rewritten, min)
			}
		})
	}
}

// TestElisionParity is the differential parity gate for the postprocess
// pass: for every benchmark program the elided/promoted build must
// reproduce the unelided build byte for byte — same return value, same
// printed output — while executing no more dynamic privacy checks.
func TestElisionParity(t *testing.T) {
	elision := variants["elision"]
	for _, p := range progs.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			row, err := elision.run(p, p.Train, specrt.Config{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !row.BaselineMatch {
				t.Error("elided build diverged from unelided")
			}
			if row.AfterChecks > row.BeforeChecks {
				t.Errorf("elided build ran more checks (%d) than unelided (%d)",
					row.AfterChecks, row.BeforeChecks)
			}
			// Float-result programs may differ from sequential in fold order
			// (reduction reassociation); everything else must match exactly.
			if !p.FloatResult && !row.SeqMatch {
				t.Error("elided build diverged from sequential")
			}
		})
	}
}
