package core

import (
	"testing"

	"privateer/internal/ir"
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
		run, err := RunStatic(static, workers)
		if err != nil {
			t.Fatal(err)
		}
		if run.Ret != want {
			t.Errorf("workers=%d: %d, want %d", workers, run.Ret, want)
		}
		if run.SimTime() <= 0 {
			t.Error("no simulated time recorded")
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
