package ir

import "testing"

// TestRegionSummaryReentry: a loop body that calls back into its own
// function runs that function's code outside the loop inside the region.
// The summary says so, and RegionMemOps counts that code: here the store
// to @flag in the branch the loop never reaches.
func TestRegionSummaryReentry(t *testing.T) {
	m := NewModule("reenter")
	flag := m.NewGlobal("flag", 8)
	work := m.NewFunc("work", I64)
	d := work.NewParam("d", I64)
	leaf := m.NewFunc("leaf", I64)
	b := NewBuilder(leaf)
	b.Ret(b.I(1))
	b = NewBuilder(work)
	var flagStore *Instr
	b.If(b.Eq(d, b.I(0)), func() {
		flagStore = b.Store(b.Call(leaf), b.Global(flag), 8)
	}, func() {
		b.For("i", b.I(0), b.I(4), func(iv *Instr) { b.Call(work, b.I(0)) })
	})
	b.Ret(b.I(0))
	work.Recompute()
	loops := FindLoops(work, BuildDomTree(work))
	if len(loops) != 1 {
		t.Fatalf("%d loops, want 1", len(loops))
	}
	funcs, reenters := RegionFuncs(loops[0])
	if !reenters || len(funcs) != 2 || funcs[0] != work || funcs[1] != leaf {
		t.Fatalf("RegionFuncs = %v, reenters %v; want [work leaf], true", funcs, reenters)
	}
	writes, _ := RegionMemOps(loops[0])
	found := false
	for _, w := range writes {
		found = found || w == flagStore
	}
	if !found {
		t.Errorf("RegionMemOps misses the store to @flag outside the loop: %v", writes)
	}
}
