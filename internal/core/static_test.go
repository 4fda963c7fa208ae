package core

import (
	"testing"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/specrt"
	"privateer/internal/vm"
)

// buildAffine builds a statically parallelizable kernel plus a tail check.
func buildAffine(n int64) *ir.Module {
	m := ir.NewModule("affine")
	src := m.NewGlobal("src", n*8)
	dst := m.NewGlobal("dst", n*8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("init", b.I(0), b.I(n), func(iv *ir.Instr) {
		b.Store(b.Mul(b.Ld(iv), b.I(3)), b.Add(b.Global(src), b.Mul(b.Ld(iv), b.I(8))), 8)
	})
	b.For("i", b.I(0), b.I(n), func(iv *ir.Instr) {
		v := b.Load(b.Add(b.Global(src), b.Mul(b.Ld(iv), b.I(8))), 8)
		b.Store(b.Add(v, b.I(7)), b.Add(b.Global(dst), b.Mul(b.Ld(iv), b.I(8))), 8)
	})
	acc := b.Local("acc")
	b.St(b.I(0), acc)
	b.For("j", b.I(0), b.I(n), func(jv *ir.Instr) {
		b.St(b.Add(b.Ld(acc), b.Load(b.Add(b.Global(dst), b.Mul(b.Ld(jv), b.I(8))), 8)), acc)
	})
	b.Ret(b.Ld(acc))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}

// buildSquares builds: for i in [0,n): out[i] = i*i; plus a tail read.
func buildSquares(n int64) *ir.Module {
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

func TestParallelizeStaticSelectsAffineLoops(t *testing.T) {
	want, _, err := RunSequential(buildAffine(64))
	if err != nil {
		t.Fatal(err)
	}
	static, err := ParallelizeStatic(buildAffine(64), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(static.Regions) == 0 {
		t.Fatalf("nothing selected:\n%+v", static.Reports)
	}
	for _, workers := range []int{1, 4} {
		rt, ret, err := Run(static, specrt.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ret != want {
			t.Errorf("workers=%d: %d, want %d", workers, ret, want)
		}
		if rt.Sim.Time() <= 0 {
			t.Error("no simulated time recorded")
		}
	}
}

// TestRunStaticPricing pins the DOALL-only build's result, invocation count
// and simulated time under Run to the values the worker-fleet DOALL
// scheduler measured on the same builds (and the in-order RunStatic after
// it), at worker counts below, at and above the trip count (64). The
// squares rows also fit the closed form: every iteration costs the same c
// steps, so an invocation is priced W'·(spawn+join) + ⌈n/W'⌉·c on top of
// the master's steps, which is also what specrt.Price.InOrder charges.
func TestRunStaticPricing(t *testing.T) {
	const n = 64
	builds := map[string]func() *ir.Module{
		"squares": func() *ir.Module { return buildSquares(n) },
		"affine":  func() *ir.Module { return buildAffine(n) },
	}
	cases := []struct {
		build       string
		workers     int
		ret         uint64
		invocations int64
		simTime     int64
	}{
		{"squares", 1, 85344, 1, 4257},
		{"squares", 2, 85344, 1, 6837},
		{"squares", 3, 85344, 1, 9637},
		{"squares", 4, 85344, 1, 12477},
		{"squares", 8, 85344, 1, 23997},
		{"squares", 16, 85344, 1, 47157},
		{"squares", 100, 85344, 1, 186327},
		{"affine", 1, 6496, 2, 8250},
		{"affine", 2, 6496, 2, 13186},
		{"affine", 3, 6496, 2, 18716},
		{"affine", 4, 6496, 2, 24354},
		{"affine", 8, 6496, 2, 47338},
		{"affine", 16, 6496, 2, 93630},
		{"affine", 100, 6496, 2, 371949},
	}
	var squaresMaster, iterSteps int64
	for _, c := range cases {
		static, err := ParallelizeStatic(builds[c.build](), Options{MinLoopSteps: 1})
		if err != nil {
			t.Fatal(err)
		}
		rt, ret, err := Run(static, specrt.Config{Workers: c.workers})
		if err != nil {
			t.Fatal(err)
		}
		simTime := rt.Sim.Time()
		if ret != c.ret || rt.Stats.Invocations != c.invocations || simTime != c.simTime {
			t.Errorf("%s W=%d: ret %d, invocations %d, sim time %d; want %d, %d, %d",
				c.build, c.workers, ret, rt.Stats.Invocations, simTime, c.ret, c.invocations, c.simTime)
		}
		if c.build != "squares" {
			continue
		}
		perWorker := int64(specrt.SimSpawnPerWorker + specrt.SimJoinPerWorker)
		if iterSteps == 0 {
			it := interp.New(static.Mod, vm.NewAddressSpace())
			if _, err := it.Call(static.Regions[0].Outline.IterFn, 0); err != nil {
				t.Fatal(err)
			}
			iterSteps = it.Steps
			squaresMaster = simTime - perWorker - n*iterSteps
		}
		fleet := min(int64(c.workers), n)
		busiest := (n + fleet - 1) / fleet * iterSteps
		if want := squaresMaster + fleet*perWorker + busiest; simTime != want {
			t.Errorf("squares W=%d: sim time %d, closed form %d", c.workers, simTime, want)
		}
		if want := squaresMaster + (specrt.Price{W: c.workers}).InOrder(n, busiest); simTime != want {
			t.Errorf("squares W=%d: sim time %d, Price.InOrder %d", c.workers, simTime, want)
		}
	}
}

func TestParallelizeStaticRejectsIrregular(t *testing.T) {
	// A pointer-chasing update loop must be rejected.
	m := ir.NewModule("chase")
	tbl := m.NewGlobal("tbl", 64*8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(16), func(iv *ir.Instr) {
		idx := b.Load(b.Global(tbl), 8)
		b.Store(b.Ld(iv), b.Add(b.Global(tbl), b.Mul(b.SRem(idx, b.I(64)), b.I(8))), 8)
	})
	b.Ret(b.I(0))
	ir.PromoteAllocas(f)
	static, err := ParallelizeStatic(m, Options{MinLoopSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(static.Regions) != 0 {
		t.Errorf("irregular loop selected: %+v", static.Reports)
	}
}
