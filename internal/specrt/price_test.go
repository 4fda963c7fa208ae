package specrt

import "testing"

// TestMaxShareIsTheBusiestWorker runs real spans and holds the busiest
// worker's iteration count to maxShare, the share Price.Speculated charges:
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

// TestPriceInvocation pins Price.Speculated of two train loops on a fleet
// of 4: blackscholes (3 iterations of 10,633 steps, period 1) and swaptions
// (6 of 3,988, period 2), each against n·s in order; and that one worker
// never prices cheaper speculated, which Reject says.
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
		if spec, seq := (Price{W: c.w}).Speculated(c.n, c.s), c.n*c.s; spec != c.spec || seq != c.seq {
			t.Errorf("Price{%d}.Speculated(%d, %d) = %d vs %d in order, want %d vs %d",
				c.w, c.n, c.s, spec, seq, c.spec, c.seq)
		}
	}
	one := Price{W: 1}
	for _, n := range []int64{1, 2, 7, 300, 5000} {
		for _, s := range []int64{1, 1000, 1_000_000} {
			if spec, seq := one.Speculated(n, s), n*s; spec <= seq || one.Reject(n, s) == "" {
				t.Errorf("Price{1}.Speculated(%d, %d) = %d vs %d in order, rejected %q",
					n, s, spec, seq, one.Reject(n, s))
			}
		}
	}
}
