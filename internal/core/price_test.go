package core

import (
	"slices"
	"strings"
	"testing"

	"privateer/internal/ir"
	"privateer/internal/progs"
	"privateer/internal/specrt"
)

// selectedLoops returns the names of the loops par selected.
func selectedLoops(par *Parallelized) []string {
	var sel []string
	for _, r := range par.Reports {
		if r.Selected {
			sel = append(sel, r.Loop)
		}
	}
	return sel
}

// checkLoopSteps runs par and holds each selected loop's profiled steps,
// which the price reads, to the steps its region ran: the whole run's less
// the master's outside regions, within 0.1 %.
func checkLoopSteps(t *testing.T, name string, par *Parallelized) {
	t.Helper()
	rt, _, err := Run(par, specrt.Config{Workers: 4})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	inRegions := par.Profile.Steps - rt.Sim.SeqSteps
	for _, r := range par.Reports {
		if diff := r.Steps - inRegions; r.Selected && (diff*1000 > inRegions || -diff*1000 > inRegions) {
			t.Errorf("%s: loop %s profiled at %d steps, its region ran %d", name, r.Loop, r.Steps, inRegions)
		}
	}
}

// TestPricedSelection pins what the priced compile decides for the paper
// programs. At ref every program keeps exactly the regions the unpriced
// compile selects, on every fleet from 2 to 24 workers; on one worker no
// loop prices cheaper speculated; at train on the service's default fleet
// of 4 only 052.alvinn keeps its region. The unpriced builds also hold the
// price's input, the selected loop's profiled steps, to the run's.
//
// Hot loops are decided hottest first, and a price can only add a reason
// to reject. So when every loop the unpriced compile selects prices cheaper
// speculated, each decision comes out as before: the sweep checks that on
// the unpriced compile's profile (the price is a pure function of it), and
// the fleet of 4 also compiles in full.
func TestPricedSelection(t *testing.T) {
	compile := func(p *progs.Program, in progs.Input, opts Options) *Parallelized {
		t.Helper()
		par, err := Parallelize(p.Build(in), opts)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		return par
	}
	for _, p := range progs.All() {
		t.Run(p.Name, func(t *testing.T) {
			unpriced := compile(p, p.Ref, Options{})
			checkLoopSteps(t, "ref", unpriced)
			want := selectedLoops(unpriced)
			if len(want) == 0 {
				t.Fatal("the unpriced compile selects no loop at ref")
			}
			hot := unpriced.Profile.HotLoops()
			for i, r := range unpriced.Reports {
				if r.Selected {
					for _, w := range []int{2, 4, 8, 12, 16, 20, 24} {
						if reason := (specrt.Price{W: w}).Reject(averageInvocation(hot[i])); reason != "" {
							t.Errorf("ref, W = %d: loop %s %s", w, r.Loop, reason)
						}
					}
				}
				// One worker runs every iteration and pays for a spawn on
				// top: no loop that reaches the price passes it.
				if li := hot[i]; li.Invocations > 0 && li.Iterations >= 3*li.Invocations &&
					!strings.HasPrefix((specrt.Price{W: 1}).Reject(averageInvocation(li)), "unprofitable at 1 workers: ") {
					t.Errorf("ref, W = 1: loop %s prices cheaper speculated", r.Loop)
				}
			}
			if got := selectedLoops(compile(p, p.Ref, Options{Workers: 4})); !slices.Equal(got, want) {
				t.Errorf("ref, W = 4: selected %v, the unpriced compile %v", got, want)
			}

			checkLoopSteps(t, "train", compile(p, p.Train, Options{}))
			got := selectedLoops(compile(p, p.Train, Options{Workers: 4}))
			if alvinn := p.Name == "052.alvinn"; (len(got) > 0) != alvinn {
				t.Errorf("train, W = 4: selected %v, want a region: %v", got, alvinn)
			}
		})
	}
}

// TestUnpricedIsTheZeroValue: Options{} and Options{Workers: 0} compile
// byte-identical modules, every hot loop decided as before pricing.
func TestUnpricedIsTheZeroValue(t *testing.T) {
	for _, p := range progs.All() {
		a, errA := Parallelize(p.Build(p.Train), Options{})
		b, errB := Parallelize(p.Build(p.Train), Options{Workers: 0})
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v, %v", p.Name, errA, errB)
		}
		if a.Summary()+ir.FormatModule(a.Mod) != b.Summary()+ir.FormatModule(b.Mod) {
			t.Errorf("%s: Options{} and Options{Workers: 0} compile differently", p.Name)
		}
	}
}
