package specrt_test

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/progs"
	"privateer/internal/specrt"
)

// TestRecoveryMatchesReference: under injected misspeculation every paper
// program at train, on two and four workers, at Figure 9's middle and high
// rates and over eight seeds, returns and prints what its native reference
// does — exactly, or for the floating-point programs within the relative
// tolerance reduction reassociation allows — and at 3 % no invocation
// exhausts its recovery budget.
func TestRecoveryMatchesReference(t *testing.T) {
	for _, p := range progs.All() {
		par, err := core.Parallelize(p.Build(p.Train), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantRet, wantOut := p.Reference(p.Train)
		prog := interp.SharedProgram(par.Mod)
		pool := specrt.NewWorkerPool(0)
		for _, w := range []int{2, 4} {
			for _, rate := range []float64{0.03, 0.10} {
				for seed := uint64(1); seed <= 8; seed++ {
					name := fmt.Sprintf("%s/w%d/rate%g/seed%d", p.Name, w, rate, seed)
					rt := specrt.New(par.Mod, specrt.Config{Workers: w, MisspecRate: rate, Seed: seed,
						Program: prog, Pool: pool}, par.Regions...)
					ret, err := rt.Run()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !sameResult(p.FloatResult, ret, rt.Output(), wantRet, wantOut) {
						t.Errorf("%s: result %#x or output differs from the reference %#x", name, ret, wantRet)
					}
					if rate == 0.03 && rt.Stats.SequentialFallbacks != 0 {
						t.Errorf("%s: %d sequential fallbacks at 3 %%", name, rt.Stats.SequentialFallbacks)
					}
				}
			}
		}
	}
}

// sameResult compares a run with its reference: bit for bit, or for a
// floating-point program every number within a relative 1e-9.
func sameResult(float bool, ret uint64, out string, wantRet uint64, wantOut string) bool {
	if !float {
		return ret == wantRet && out == wantOut
	}
	close := func(g, w float64) bool { return g == w || math.Abs(g-w) <= 1e-9*(math.Abs(w)+1) }
	if !close(math.Float64frombits(ret), math.Float64frombits(wantRet)) {
		return false
	}
	got, want := strings.Fields(out), strings.Fields(wantOut)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		g, errG := strconv.ParseFloat(got[i], 64)
		w, errW := strconv.ParseFloat(want[i], 64)
		if errG != nil || errW != nil || !close(g, w) {
			return false
		}
	}
	return true
}
