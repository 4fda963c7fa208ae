package classify

import (
	"testing"

	"privateer/internal/ir"
	"privateer/internal/profiling"
)

// outerLoop returns main's depth-1 loop.
func outerLoop(t *testing.T, p *profiling.Profile) *ir.Loop {
	t.Helper()
	for _, l := range p.AllLoops {
		if l.Depth == 1 && l.Header.Fn.Name == "main" {
			return l
		}
	}
	t.Fatal("no outer loop")
	return nil
}

func findGlobal(a *Assignment, g *ir.Global) ir.HeapKind {
	return a.HeapOf(profiling.Object{Global: g})
}

// buildPrivatizable: scratch reused (init then read each iteration), node
// short-lived, adj read-only, sum reduction.
func buildPrivatizable(t *testing.T) (*ir.Module, map[string]*ir.Global) {
	t.Helper()
	m := ir.NewModule("cls")
	gs := map[string]*ir.Global{
		"scratch": m.NewGlobal("scratch", 8*8),
		"adj":     m.NewGlobal("adj", 8*8),
		"sum":     m.NewGlobal("sum", 8),
	}
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(10), func(iv *ir.Instr) {
		// write scratch[j] = adj[j] + i
		b.For("j", b.I(0), b.I(8), func(jv *ir.Instr) {
			aSlot := b.Add(b.Global(gs["adj"]), b.Mul(b.Ld(jv), b.I(8)))
			sSlot := b.Add(b.Global(gs["scratch"]), b.Mul(b.Ld(jv), b.I(8)))
			b.Store(b.Add(b.Load(aSlot, 8), b.Ld(iv)), sSlot, 8)
		})
		// node = malloc; node->v = scratch[0]; sum += node->v; free(node)
		node := b.Malloc("node", b.I(16))
		b.Store(b.Load(b.Global(gs["scratch"]), 8), node, 8)
		sumAddr := b.Global(gs["sum"])
		ld := b.Load(sumAddr, 8)
		b.Store(b.Add(ld, b.Load(node, 8)), sumAddr, 8)
		b.Free(node)
	})
	b.Ret(b.Load(b.Global(gs["sum"]), 8))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	ir.PromoteAllocas(f)
	return m, gs
}

func TestClassifyFiveWayPartition(t *testing.T) {
	m, gs := buildPrivatizable(t)
	p, err := profiling.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	l := outerLoop(t, p)
	a := Classify(l, p, Options{})

	if h := findGlobal(a, gs["scratch"]); h != ir.HeapPrivate {
		t.Errorf("scratch assigned to %s, want private\n%s", h, a)
	}
	if h := findGlobal(a, gs["adj"]); h != ir.HeapReadOnly {
		t.Errorf("adj assigned to %s, want read-only\n%s", h, a)
	}
	if h := findGlobal(a, gs["sum"]); h != ir.HeapRedux {
		t.Errorf("sum assigned to %s, want redux\n%s", h, a)
	}
	// The node site must be short-lived.
	foundNode := false
	for o := range a.ShortLived {
		if o.Site != nil && o.Site.Name == "node" {
			foundNode = true
		}
	}
	if !foundNode {
		t.Errorf("node not short-lived\n%s", a)
	}
	if op := a.ReduxOps[profiling.Object{Global: gs["sum"]}]; op != ir.ReduxAddI64 {
		t.Errorf("sum reduction op = %s, want add.i64", op)
	}
}

func TestClassifyGenuineCarriedDepIsUnrestricted(t *testing.T) {
	// acc[i%4] += acc[(i+1)%4]: reads values written in earlier iterations
	// through varying addresses; neither reduction (mixed access) nor
	// predictable.
	m := ir.NewModule("carried")
	acc := m.NewGlobal("acc", 32)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(16), func(iv *ir.Instr) {
		src := b.Add(b.Global(acc), b.Mul(b.SRem(b.Add(b.Ld(iv), b.I(1)), b.I(4)), b.I(8)))
		dst := b.Add(b.Global(acc), b.Mul(b.SRem(b.Ld(iv), b.I(4)), b.I(8)))
		v := b.Load(src, 8)
		b.Store(b.Add(v, b.Ld(iv)), dst, 8)
	})
	b.Ret(b.Load(b.Global(acc), 8))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	ir.PromoteAllocas(f)
	p, err := profiling.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	l := outerLoop(t, p)
	a := Classify(l, p, Options{})
	if h := findGlobal(a, acc); h != ir.HeapUnrestricted {
		t.Errorf("acc assigned to %s, want unrestricted\n%s", h, a)
	}
}

func TestClassifyPredictableLoadEnablesPrivatization(t *testing.T) {
	// The dijkstra queue pattern: head is read at iteration start and is
	// always NULL there; inside the iteration it is set and cleared.
	m := ir.NewModule("vp")
	head := m.NewGlobal("head", 8)
	work := m.NewGlobal("work", 8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(12), func(iv *ir.Instr) {
		h0 := b.LoadPtr(b.Global(head))
		b.If(b.Eq(h0, b.P(0)), func() {
			n := b.Malloc("qnode", b.I(16))
			b.Store(b.Ld(iv), n, 8)
			b.Store(n, b.Global(head), 8)
		}, nil)
		// drain
		cur := b.LoadPtr(b.Global(head))
		b.Store(b.Load(cur, 8), b.Global(work), 8)
		b.Free(cur)
		b.Store(b.P(0), b.Global(head), 8)
	})
	b.Ret(b.Load(b.Global(work), 8))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	ir.PromoteAllocas(f)
	p, err := profiling.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	l := outerLoop(t, p)
	a := Classify(l, p, Options{})
	if h := findGlobal(a, head); h != ir.HeapPrivate {
		t.Errorf("head assigned to %s, want private (via value prediction)\n%s", h, a)
	}
	if len(a.PredictableLoads) == 0 {
		t.Error("no predictable loads recorded")
	}
	for _, v := range a.PredictableLoads {
		if v != 0 {
			t.Errorf("predicted value %d, want 0 (NULL)", v)
		}
	}
}

func TestGetFootprintRecursesIntoCallees(t *testing.T) {
	m := ir.NewModule("callee")
	g := m.NewGlobal("data", 8)
	helper := m.NewFunc("write_it", ir.Void)
	{
		hb := ir.NewBuilder(helper)
		hb.Store(hb.I(1), hb.Global(g), 8)
		hb.Ret()
	}
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(3), func(_ *ir.Instr) {
		b.Call(helper)
	})
	b.Ret(b.I(0))
	ir.PromoteAllocas(f)
	p, err := profiling.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	l := outerLoop(t, p)
	fp := GetFootprint(l, p)
	if !fp.Write[profiling.Object{Global: g}] {
		t.Errorf("callee write not in footprint: %v", fp.Write.Names())
	}
}

func TestClassifyMinReduction(t *testing.T) {
	m := ir.NewModule("minred")
	best := m.NewGlobal("best", 8)
	best.Init = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // MaxInt64
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(10), func(iv *ir.Instr) {
		v := b.Mul(b.Sub(b.I(5), b.Ld(iv)), b.Sub(b.I(5), b.Ld(iv)))
		addr := b.Global(best)
		cur := b.Load(addr, 8)
		upd := b.Select(b.SLt(v, cur), v, cur)
		b.Store(upd, addr, 8)
	})
	b.Ret(b.Load(b.Global(best), 8))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	ir.PromoteAllocas(f)
	p, err := profiling.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	l := outerLoop(t, p)
	a := Classify(l, p, Options{})
	if h := findGlobal(a, best); h != ir.HeapRedux {
		t.Errorf("best assigned to %s, want redux\n%s", h, a)
	}
	if op := a.ReduxOps[profiling.Object{Global: best}]; op != ir.ReduxMinI64 {
		t.Errorf("op = %s, want min.i64", op)
	}
}

func TestAssignmentStringAndObjects(t *testing.T) {
	m, _ := buildPrivatizable(t)
	p, err := profiling.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	a := Classify(outerLoop(t, p), p, Options{})
	if len(a.Objects()) < 4 {
		t.Errorf("Objects() too small: %v", a.Objects())
	}
	s := a.String()
	for _, want := range []string{"short-lived", "redux", "private", "read-only", "@scratch"} {
		if !containsStr(s, want) {
			t.Errorf("assignment string missing %q:\n%s", want, s)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
