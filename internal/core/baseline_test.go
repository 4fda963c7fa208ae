package core_test

import (
	"testing"

	"privateer/internal/core"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/specrt"
	"privateer/internal/vm"
)

// squares builds: for i in [0,n): out[i] = i*i; plus a tail read.
func squares(n int64) *ir.Module {
	m := ir.NewModule("squares")
	out := m.NewGlobal("out", n*8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(n), func(iv *ir.Instr) {
		slot := b.Add(b.Global(out), b.Mul(b.Ld(iv), b.I(8)))
		b.Store(b.Mul(b.Ld(iv), b.Ld(iv)), slot, 8)
	})
	acc := b.Local("acc")
	b.St(b.I(0), acc)
	b.For("j", b.I(0), b.I(n), func(jv *ir.Instr) {
		slot := b.Add(b.Global(out), b.Mul(b.Ld(jv), b.I(8)))
		b.St(b.Add(b.Ld(acc), b.Load(slot, 8)), acc)
	})
	b.Ret(b.Ld(acc))
	ir.PromoteAllocas(f)
	return m
}

// staticSquares is the DOALL-only build of squares(n): the store loop
// outlined as the one region.
func staticSquares(t *testing.T, n int64) *core.Parallelized {
	t.Helper()
	static, err := core.ParallelizeStatic(squares(n), core.Options{MinLoopSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(static.Regions) != 1 {
		t.Fatalf("squares(%d): %d regions selected, want 1:\n%+v", n, len(static.Regions), static.Reports)
	}
	return static
}

// The DOALL-only baseline (core.Run over an outlined build) returns
// the sequential result at every worker count and enters the region once.
func TestBaselineParallelMatchesSequential(t *testing.T) {
	const n = 64
	want, err := interp.New(squares(n), vm.NewAddressSpace()).Run()
	if err != nil {
		t.Fatal(err)
	}
	static := staticSquares(t, n)
	for _, workers := range []int{1, 2, 4, 8} {
		rt, ret, err := core.Run(static, specrt.Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ret != want {
			t.Errorf("workers=%d: result %d, want %d", workers, ret, want)
		}
		if rt.Stats.Invocations != 1 {
			t.Errorf("workers=%d: invocations = %d", workers, rt.Stats.Invocations)
		}
	}
}

// With more workers than iterations the fleet is cut to the trip count:
// the result is right and the run is priced as W = n.
func TestBaselineMoreWorkersThanIterations(t *testing.T) {
	const n = 3
	static := staticSquares(t, n)
	rt, ret, err := core.Run(static, specrt.Config{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if ret != 0+1+4 {
		t.Errorf("result %d, want 5", ret)
	}
	atTrip, _, err := core.Run(static, specrt.Config{Workers: n})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Sim.Time() != atTrip.Sim.Time() {
		t.Errorf("sim time at W=16 is %d, at W=%d is %d; want equal", rt.Sim.Time(), n, atTrip.Sim.Time())
	}
}
