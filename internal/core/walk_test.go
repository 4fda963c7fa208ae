package core

import (
	"testing"

	"privateer/internal/ir"
	"privateer/internal/specrt"
)

// oneTripInner builds main: for i in [0,200): { for j in [i, i+1):
// out[j] = 2j; acc += out[i] }; return acc. The outer loop carries acc, so
// static analysis rejects it; the inner loop is DOALL but runs one body
// iteration per invocation.
func oneTripInner() *ir.Module {
	m := ir.NewModule("onetrip")
	out := m.NewGlobal("out", 8*200)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	acc := b.Local("acc")
	b.St(b.I(0), acc)
	b.For("i", b.I(0), b.I(200), func(iv *ir.Instr) {
		i := b.Ld(iv)
		b.For("j", i, b.Add(i, b.I(1)), func(jv *ir.Instr) {
			j := b.Ld(jv)
			b.Store(b.Mul(j, b.I(2)), b.Add(b.Global(out), b.Mul(j, b.I(8))), 8)
		})
		b.St(b.Add(b.Ld(acc), b.Load(b.Add(b.Global(out), b.Mul(i, b.I(8))), 8)), acc)
	})
	b.Ret(b.Ld(acc))
	ir.PromoteAllocas(f)
	return m
}

// TestStaticRejectsTooFewIterations: both builds gate a hot loop the same
// way before judging it, so the DOALL-only build rejects a loop with fewer
// than two body iterations per invocation for the speculative build's
// reason. Running it in order costs a spawn and a join per invocation and
// extracts nothing; the DOALL-only build once selected it.
func TestStaticRejectsTooFewIterations(t *testing.T) {
	const reason = "too few iterations per invocation to profit"
	for name, build := range map[string]func(*ir.Module, Options) (*Parallelized, error){
		"speculative": Parallelize, "DOALL-only": ParallelizeStatic,
	} {
		par, err := build(oneTripInner(), Options{MinLoopSteps: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Reports are hottest first: the outer loop, then the inner one.
		if len(par.Regions) != 0 || len(par.Reports) != 2 || par.Reports[1].Reason != reason {
			t.Errorf("%s: want the inner loop rejected %q and nothing selected:\n%s",
				name, reason, par.Summary())
		}
	}
}

// siblingHeaps builds main: for i in [0,400): { tmp = i; a[i] = 2·tmp };
// for j in [0,100): b[j] = tmp + j; return b[99]. The first loop writes @tmp
// before reading it in every iteration (private); the second only reads it
// (read-only).
func siblingHeaps() *ir.Module {
	m := ir.NewModule("siblings")
	tmp := m.NewGlobal("tmp", 8)
	a := m.NewGlobal("a", 8*400)
	bg := m.NewGlobal("b", 8*100)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(400), func(iv *ir.Instr) {
		i := b.Ld(iv)
		b.Store(i, b.Global(tmp), 8)
		b.Store(b.Mul(b.Load(b.Global(tmp), 8), b.I(2)), b.Add(b.Global(a), b.Mul(i, b.I(8))), 8)
	})
	b.For("j", b.I(0), b.I(100), func(jv *ir.Instr) {
		j := b.Ld(jv)
		b.Store(b.Add(b.Load(b.Global(tmp), 8), j), b.Add(b.Global(bg), b.Mul(j, b.I(8))), 8)
	})
	b.Ret(b.Load(b.Add(b.Global(bg), b.I(8*99)), 8))
	ir.PromoteAllocas(f)
	return m
}

// TestHeapConflictRejected: one object lives in one heap, so of two sibling
// loops that place @tmp in different heaps only the hotter is selected, and
// the other is rejected naming the object and both heaps. The program still
// returns its sequential result.
func TestHeapConflictRejected(t *testing.T) {
	par, err := Parallelize(siblingHeaps(), Options{MinLoopSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Regions) != 1 || len(par.Reports) != 2 || !par.Reports[0].Selected ||
		par.Reports[1].Reason != "object @tmp assigned to both private and read-only heaps" {
		t.Fatalf("want the hotter loop selected and the other rejected for @tmp's heap:\n%s", par.Summary())
	}
	want, _, err := RunSequential(siblingHeaps())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		rt, got, err := Run(par, specrt.Config{Workers: workers})
		if err != nil || got != want {
			t.Errorf("workers=%d: returned %d, %v; want %d (%d misspeculations)", workers, got, err, want, rt.Stats.Misspecs)
		}
	}
}
