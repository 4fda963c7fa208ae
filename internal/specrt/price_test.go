package specrt

import "testing"

// TestMaxShareIsTheBusiestWorker runs real spans and holds the busiest
// worker's iteration count to maxShare, the share PriceInvocation charges:
// periods odd and even, fewer iterations than workers, and trip counts that
// are not a multiple of the period. A worker's iteration count is read off
// its simulated check cost: each iteration adds one short-lived check.
func TestMaxShareIsTheBusiestWorker(t *testing.T) {
	for _, c := range []struct {
		n, k int64
		w    int
	}{
		{4, 1, 4}, {3, 1, 4}, {6, 2, 4}, {37, 3, 4}, {37, 7, 5},
		{10, 4, 3}, {13, 8, 2}, {5, 5, 8}, {25, 6, 24},
	} {
		mod := buildScratchModule(c.n)
		rt := New(mod, Config{Workers: c.w, CheckpointPeriod: c.k}, buildRegion(t, mod))
		if _, err := rt.Run(); err != nil {
			t.Fatalf("n=%d k=%d W=%d: %v", c.n, c.k, c.w, err)
		}
		if rt.Stats.Invocations != 1 || rt.Stats.Misspecs != 0 {
			t.Fatalf("n=%d k=%d W=%d: %d invocations, %d misspeculations",
				c.n, c.k, c.w, rt.Stats.Invocations, rt.Stats.Misspecs)
		}
		fleet := min(c.w, int(c.n))
		var most, total int64
		for _, w := range rt.workers[:fleet] {
			checks := w.local.SeparationChecks*SimSeparationCheck + w.local.Predictions*SimPredict
			iters := (w.simOther - checks) / SimShortLivedCheck
			most, total = max(most, iters), total+iters
		}
		if total != c.n {
			t.Fatalf("n=%d k=%d W=%d: the workers ran %d iterations", c.n, c.k, c.w, total)
		}
		if want := maxShare(c.n, c.k, fleet); most != want {
			t.Errorf("n=%d k=%d W=%d: the busiest worker ran %d iterations, maxShare says %d",
				c.n, c.k, c.w, most, want)
		}
	}
}

// TestPriceInvocation pins the price of two train loops on a fleet of 4:
// blackscholes (3 iterations of 10,633 steps, period 1) and swaptions (6 of
// 3,988, period 2); and that one worker never prices cheaper speculated.
func TestPriceInvocation(t *testing.T) {
	for _, c := range []struct {
		n, s      int64
		w         int
		spec, seq int64
	}{
		{3, 10_633, 4, 77_463, 31_899},
		{6, 3_988, 4, 72_716, 23_928},
		{6, 3_988, 1, 39_116, 23_928},
	} {
		if spec, seq := PriceInvocation(c.n, c.s, c.w); spec != c.spec || seq != c.seq {
			t.Errorf("PriceInvocation(%d, %d, %d) = %d, %d, want %d, %d",
				c.n, c.s, c.w, spec, seq, c.spec, c.seq)
		}
	}
	for _, n := range []int64{1, 2, 7, 300, 5000} {
		for _, s := range []int64{1, 1000, 1_000_000} {
			if spec, seq := PriceInvocation(n, s, 1); spec <= seq {
				t.Errorf("PriceInvocation(%d, %d, 1) = %d, %d", n, s, spec, seq)
			}
		}
	}
}
