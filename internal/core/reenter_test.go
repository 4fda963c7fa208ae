package core

import (
	"testing"

	"privateer/internal/ir"
	"privateer/internal/specrt"
)

// reenteringProgram: work(d) stores 7 to @flag when d is 0 and otherwise
// runs a loop whose body calls work(0), reads @flag and stores flag+i to
// @out[i]; main calls work(1) and returns out[399] + 1000·flag. The loop's
// region therefore runs work's code outside the loop, the store to @flag
// included.
func reenteringProgram() *ir.Module {
	m := ir.NewModule("reenter")
	flag := m.NewGlobal("flag", 8)
	out := m.NewGlobal("out", 8*400)
	work := m.NewFunc("work", ir.I64)
	d := work.NewParam("d", ir.I64)
	b := ir.NewBuilder(work)
	b.If(b.Eq(d, b.I(0)), func() {
		b.Store(b.I(7), b.Global(flag), 8)
	}, func() {
		b.For("i", b.I(0), b.I(400), func(iv *ir.Instr) {
			b.Call(work, b.I(0))
			i := b.Ld(iv)
			f := b.Load(b.Global(flag), 8)
			b.Store(b.Add(f, i), b.Add(b.Global(out), b.Mul(i, b.I(8))), 8)
		})
	})
	b.Ret(b.I(0))

	main := m.NewFunc("main", ir.I64)
	b = ir.NewBuilder(main)
	b.Call(work, b.I(1))
	last := b.Load(b.Add(b.Global(out), b.I(8*399)), 8)
	b.Ret(b.Add(last, b.Mul(b.Load(b.Global(flag), 8), b.I(1000))))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}

// TestReenteringLoopRejected: a loop whose body can call back into its own
// function may be active with itself (section 4.3), and the region summary
// says so. Selecting it once proved @flag read-only from the loop's blocks
// alone and returned 406 with no misspeculation.
func TestReenteringLoopRejected(t *testing.T) {
	const want = 7406
	if got, _, err := RunSequential(reenteringProgram()); err != nil || got != want {
		t.Fatalf("sequential: %d, %v; want %d", got, err, want)
	}
	par, err := Parallelize(reenteringProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Regions) != 0 || len(par.Reports) != 1 || par.Reports[0].Reason != reentersReason {
		t.Fatalf("want the one loop rejected as re-entering:\n%s", par.Summary())
	}
	for _, workers := range []int{1, 2, 4} {
		rt, got, err := Run(par, specrt.Config{Workers: workers})
		if err != nil || got != want {
			t.Errorf("workers=%d: returned %d, %v; want %d (%d misspeculations)", workers, got, err, want, rt.Stats.Misspecs)
		}
	}
}
