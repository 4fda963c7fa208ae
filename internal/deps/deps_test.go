package deps

import (
	"testing"

	"privateer/internal/analysis"
	"privateer/internal/classify"
	"privateer/internal/ir"
	"privateer/internal/profiling"
)

func outerLoop(t *testing.T, m *ir.Module, fname string) *ir.Loop {
	t.Helper()
	f := m.Funcs[fname]
	f.Recompute()
	dt := ir.BuildDomTree(f)
	for _, l := range ir.FindLoops(f, dt) {
		if l.Depth == 1 {
			return l
		}
	}
	t.Fatalf("no loop in %s", fname)
	return nil
}

// TestStaticAffineArrayLoopIsDOALLable: out[i] = in[i] * 2 has no carried
// dependence and the static baseline must see that (the blackscholes inner
// loop pattern).
func TestStaticAffineArrayLoopIsDOALLable(t *testing.T) {
	m := ir.NewModule("affine")
	src := m.NewGlobal("src", 64*8)
	dst := m.NewGlobal("dst", 64*8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(64), func(iv *ir.Instr) {
		s := b.Add(b.Global(src), b.Mul(b.Ld(iv), b.I(8)))
		d := b.Add(b.Global(dst), b.Mul(b.Ld(iv), b.I(8)))
		b.Store(b.Mul(b.Load(s, 8), b.I(2)), d, 8)
	})
	b.Ret(b.I(0))
	ir.PromoteAllocas(f)
	pt := analysis.ComputePointsTo(m)
	l := outerLoop(t, m, "main")
	if bl := StaticBlockers(l, pt); len(bl) != 0 {
		t.Errorf("affine loop wrongly blocked: %v", bl)
	}
}

// TestStaticPointerChasingBlocks: the dijkstra pattern (reused global array
// written and read each iteration at data-dependent indices) must block the
// static baseline.
func TestStaticPointerChasingBlocks(t *testing.T) {
	m := ir.NewModule("reuse")
	tbl := m.NewGlobal("tbl", 64*8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(8), func(iv *ir.Instr) {
		// idx depends on memory: defeats affine reasoning.
		idx := b.Load(b.Global(tbl), 8)
		slot := b.Add(b.Global(tbl), b.Mul(b.SRem(idx, b.I(64)), b.I(8)))
		b.Store(b.Ld(iv), slot, 8)
	})
	b.Ret(b.I(0))
	ir.PromoteAllocas(f)
	pt := analysis.ComputePointsTo(m)
	l := outerLoop(t, m, "main")
	found := false
	for _, bl := range StaticBlockers(l, pt) {
		if bl.Kind == BlockerMemory {
			found = true
		}
	}
	if !found {
		t.Error("static analysis failed to block a data-dependent update loop")
	}
}

func TestStaticScalarCarriedBlocks(t *testing.T) {
	// sum += i as a register (post-mem2reg) is a non-IV header phi.
	m := ir.NewModule("scalar")
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	acc := b.Local("acc")
	b.St(b.I(0), acc)
	b.For("i", b.I(0), b.I(10), func(iv *ir.Instr) {
		b.St(b.Add(b.Ld(acc), b.Ld(iv)), acc)
	})
	b.Ret(b.Ld(acc))
	ir.PromoteAllocas(f)
	pt := analysis.ComputePointsTo(m)
	l := outerLoop(t, m, "main")
	kinds := map[BlockerKind]bool{}
	for _, bl := range StaticBlockers(l, pt) {
		kinds[bl.Kind] = true
	}
	if !kinds[BlockerScalarCarried] && !kinds[BlockerLiveOut] {
		t.Errorf("scalar accumulation not blocked: %v", kinds)
	}
}

func TestStaticIOBlocks(t *testing.T) {
	m := ir.NewModule("io")
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(4), func(iv *ir.Instr) {
		b.Print("%d\n", b.Ld(iv))
	})
	b.Ret(b.I(0))
	ir.PromoteAllocas(f)
	pt := analysis.ComputePointsTo(m)
	l := outerLoop(t, m, "main")
	found := false
	for _, bl := range StaticBlockers(l, pt) {
		if bl.Kind == BlockerIO {
			found = true
		}
	}
	if !found {
		t.Error("print inside loop not reported as blocker")
	}
}

// speculativePlan profiles m, classifies main's outer loop and runs the
// speculative judgment.
func speculativePlan(t *testing.T, m *ir.Module) (*Plan, *classify.Assignment) {
	t.Helper()
	p, err := profiling.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	var outer *ir.Loop
	for _, l := range p.AllLoops {
		if l.Depth == 1 && l.Header.Fn.Name == "main" {
			outer = l
		}
	}
	if outer == nil {
		t.Fatal("no outer loop")
	}
	a := classify.Classify(outer, p, classify.Options{})
	return SpeculativeBlockers(outer, p, a), a
}

func TestSpeculativeAcceptsReuseLoop(t *testing.T) {
	// The privatizable pattern that statically blocks: reused scratch
	// array + short-lived nodes + reduction.
	m := ir.NewModule("spec")
	scratch := m.NewGlobal("scratch", 8*8)
	sum := m.NewGlobal("sum", 8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(10), func(iv *ir.Instr) {
		b.For("j", b.I(0), b.I(8), func(jv *ir.Instr) {
			slot := b.Add(b.Global(scratch), b.Mul(b.Ld(jv), b.I(8)))
			b.Store(b.Add(b.Ld(iv), b.Ld(jv)), slot, 8)
		})
		n := b.Malloc("node", b.I(16))
		b.Store(b.Load(b.Global(scratch), 8), n, 8)
		sumAddr := b.Global(sum)
		b.Store(b.Add(b.Load(sumAddr, 8), b.Load(n, 8)), sumAddr, 8)
		b.Free(n)
	})
	b.Ret(b.Load(b.Global(sum), 8))
	ir.PromoteAllocas(f)
	// Statically blocked...
	pt := analysis.ComputePointsTo(m)
	l := outerLoop(t, m, "main")
	staticBlocked := false
	for _, bl := range StaticBlockers(l, pt) {
		if bl.Kind == BlockerMemory {
			staticBlocked = true
		}
	}
	if !staticBlocked {
		t.Error("reuse loop should block the static baseline")
	}
	// ...but speculatively clean.
	plan, _ := speculativePlan(t, m)
	if len(plan.Blockers) != 0 {
		t.Errorf("speculative blockers remain: %v", plan.Blockers)
	}
}

func TestSpeculativeRejectsTrueDependence(t *testing.T) {
	// A genuine recurrence: tbl[i] = tbl[i-1] + 1.
	m := ir.NewModule("recur")
	tbl := m.NewGlobal("tbl", 65*8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(1), b.I(64), func(iv *ir.Instr) {
		prev := b.Add(b.Global(tbl), b.Mul(b.Sub(b.Ld(iv), b.I(1)), b.I(8)))
		cur := b.Add(b.Global(tbl), b.Mul(b.Ld(iv), b.I(8)))
		b.Store(b.Add(b.Load(prev, 8), b.I(1)), cur, 8)
	})
	b.Ret(b.Load(b.Global(tbl), 8))
	ir.PromoteAllocas(f)
	plan, a := speculativePlan(t, m)
	if len(plan.Blockers) == 0 {
		t.Errorf("true recurrence accepted; assignment:\n%s", a)
	}
}

func TestSpeculativePlanExtras(t *testing.T) {
	// Loop with I/O and a cold error path: needs deferral + control spec.
	m := ir.NewModule("extras")
	data := m.NewGlobal("data", 8*8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(8), func(iv *ir.Instr) {
		slot := b.Add(b.Global(data), b.Mul(b.Ld(iv), b.I(8)))
		b.Store(b.Ld(iv), slot, 8)
		b.If(b.SGt(b.Ld(iv), b.I(100)), func() {
			b.Print("error!\n") // never taken during profiling
		}, nil)
		b.Print("val %d\n", b.Load(slot, 8))
	})
	b.Ret(b.I(0))
	ir.PromoteAllocas(f)
	plan, _ := speculativePlan(t, m)
	if !plan.NeedsIODeferral {
		t.Error("I/O deferral not planned")
	}
	if !plan.NeedsControlSpec || len(plan.ColdBlocks) == 0 {
		t.Error("control speculation not planned for the cold branch")
	}
	if len(plan.Blockers) != 0 {
		t.Errorf("unexpected blockers: %v", plan.Blockers)
	}
}
