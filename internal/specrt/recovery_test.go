package specrt

import (
	"fmt"
	"strings"
	"testing"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/vm"
)

// TestRecoveryPeriod: the priced period is W for an iteration heavy enough
// that one more checkpoint costs next to nothing beside it, tends to kClean
// as misspeculation becomes rare, and is always within [min(W, kClean),
// kClean], a multiple of W unless it is kClean, and never above
// MaxCheckpointPeriod.
func TestRecoveryPeriod(t *testing.T) {
	for _, c := range []struct {
		w         int
		kClean, s int64
		rate      float64
		want      int64
		name      string
	}{
		{2, 200, 500_000, 0.03, 2, "heavy iteration"},
		{4, 200, 1 << 40, 0.5, 4, "heavier than any checkpoint"},
		{4, 200, 1000, 1e-12, 200, "rare misspeculation"},
		{4, 200, 1000, 0, 200, "no rate yet"},
		{1, 5, 18_000, 1.0 / 12, 3, "one worker"},
		{2, 100, 18_000, 1.0 / 12, 4, "two workers"},
		{4, 3, 1, 1, 3, "kClean below W"},
	} {
		if got := (Price{W: c.w}).RecoveryPeriod(c.kClean, c.s, c.rate); got != c.want {
			t.Errorf("%s: Price{%d}.RecoveryPeriod(%d, %d, %g) = %d, want %d",
				c.name, c.w, c.kClean, c.s, c.rate, got, c.want)
		}
	}
	for _, w := range []int{1, 2, 3, 4, 8, 24} {
		price := Price{W: w}
		for _, total := range []int64{1, 7, 40, 999, 5000} {
			kClean := price.CheckpointPeriod(0, total)
			for _, s := range []int64{1, 100, 10_000, 1_000_000} {
				for _, rate := range []float64{1e-9, 0.001, 0.03, 0.1, 0.5, 1} {
					k := price.RecoveryPeriod(kClean, s, rate)
					if k < min(int64(w), kClean) || k > kClean || k > MaxCheckpointPeriod ||
						(k%int64(w) != 0 && k != kClean) {
						t.Errorf("Price{%d}.RecoveryPeriod(%d, %d, %g) = %d", w, kClean, s, rate, k)
					}
				}
			}
		}
	}
}

// TestRecoveryRerunsOnlyTheMisspeculatedIteration: with one worker every
// recovery re-runs exactly the misspeculated iteration — the squashed
// prefix before it is re-speculated — so every recovery event spans
// [m, m+1) and Sim.RecoverySteps is those iterations' steps. At any fleet
// size the output and return value are the sequential ones.
func TestRecoveryRerunsOnlyTheMisspeculatedIteration(t *testing.T) {
	const n = 200
	// Every iteration of buildScratchModule takes the same steps; a run that
	// recovers each of its first iterations alone measures them.
	mod := buildScratchModule(16)
	calib := New(mod, Config{Workers: 1, CheckpointPeriod: 1, MisspecRate: 1, Seed: 1}, buildRegion(t, mod))
	if _, err := calib.Run(); err != nil {
		t.Fatal(err)
	}
	if calib.Stats.Recoveries != 16 {
		t.Fatalf("calibration recovered %d iterations, want 16", calib.Stats.Recoveries)
	}
	perIter := calib.Sim.RecoverySteps / 16

	seq := interp.New(buildScratchModule(n), vm.NewAddressSpace())
	var seqOut strings.Builder
	seq.Hooks.OnPrint = func(in *ir.Instr, text string) bool {
		seqOut.WriteString(text)
		return true
	}
	want, err := seq.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			col := obs.NewCollector(1 << 16)
			mod := buildScratchModule(n)
			rt := New(mod, Config{Workers: workers, MisspecRate: 0.05, Seed: 7,
				Trace: obs.NewTracer(col)}, buildRegion(t, mod))
			got, err := rt.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got != want || rt.Output() != seqOut.String() {
				t.Errorf("result %d, want %d; output equal to sequential: %v", got, want, rt.Output() == seqOut.String())
			}
			if rt.Stats.Recoveries == 0 {
				t.Fatal("injection produced no recovery")
			}
			if workers > 1 {
				return
			}
			var events int64
			for _, ev := range col.Events() {
				if ev.Kind != obs.KRecovery {
					continue
				}
				events++
				if ev.B != ev.A+1 {
					t.Errorf("recovery re-ran [%d, %d), want one iteration", ev.A, ev.B)
				}
			}
			if events != rt.Stats.Recoveries {
				t.Errorf("%d recovery events, Stats.Recoveries %d", events, rt.Stats.Recoveries)
			}
			if rt.Sim.RecoverySteps != events*perIter {
				t.Errorf("RecoverySteps %d, want %d iterations of %d steps", rt.Sim.RecoverySteps, events, perIter)
			}
		})
	}
}
