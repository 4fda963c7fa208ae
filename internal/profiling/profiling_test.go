package profiling

import (
	"testing"

	"privateer/internal/ir"
)

// buildReuseLoop builds the canonical privatizable pattern:
//
//	for (i=0; i<outer; i++) {
//	    for (j=0; j<inner; j++) scratch[j] = i+j;   // init each iteration
//	    node = malloc(16); node->v = scratch[0]; sum += node->v; free(node);
//	}
//
// scratch is reused across iterations (false dependences only: every read is
// preceded by a same-iteration write), node is short-lived, sum is a genuine
// loop-carried flow dependence.
func buildReuseLoop(t *testing.T, outer, inner int64) (*ir.Module, *ir.Global, *ir.Global) {
	t.Helper()
	m := ir.NewModule("reuse")
	scratch := m.NewGlobal("scratch", inner*8)
	sum := m.NewGlobal("sum", 8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(outer), func(iv *ir.Instr) {
		b.For("j", b.I(0), b.I(inner), func(jv *ir.Instr) {
			slot := b.Add(b.Global(scratch), b.Mul(b.Ld(jv), b.I(8)))
			b.Store(b.Add(b.Ld(iv), b.Ld(jv)), slot, 8)
		})
		node := b.Malloc("node", b.I(16))
		b.Store(b.Load(b.Global(scratch), 8), node, 8)
		sumAddr := b.Global(sum)
		b.Store(b.Add(b.Load(sumAddr, 8), b.Load(node, 8)), sumAddr, 8)
		b.Free(node)
	})
	b.Ret(b.Load(b.Global(sum), 8))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	ir.PromoteAllocas(f)
	return m, scratch, sum
}

// outerLoopOf returns the depth-1 loop of main.
func outerLoopOf(t *testing.T, p *Profile) *ir.Loop {
	t.Helper()
	for _, l := range p.AllLoops {
		if l.Depth == 1 && l.Header.Fn.Name == "main" {
			return l
		}
	}
	t.Fatal("no outer loop found")
	return nil
}

func TestLoopCountsAndHotRanking(t *testing.T) {
	m, _, _ := buildReuseLoop(t, 10, 7)
	p, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	outer := outerLoopOf(t, p)
	li := p.Loops[outer]
	if li.Invocations != 1 {
		t.Errorf("outer invocations = %d, want 1", li.Invocations)
	}
	if li.Iterations != 11 { // 10 trips + final header test
		t.Errorf("outer iterations = %d, want 11", li.Iterations)
	}
	hot := p.HotLoops()
	if len(hot) != 2 {
		t.Fatalf("hot loops = %d, want 2", len(hot))
	}
	if hot[0].Loop != outer {
		t.Errorf("hottest loop should be the outer loop, got %s", hot[0].Loop)
	}
}

func TestPointsToResolvesObjects(t *testing.T) {
	m, scratch, sum := buildReuseLoop(t, 5, 4)
	p, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	sawScratch, sawSum, sawNode := false, false, false
	for _, set := range p.PointsTo {
		for o := range set {
			switch {
			case o.Global == scratch:
				sawScratch = true
			case o.Global == sum:
				sawSum = true
			case o.Site != nil && o.Site.Name == "node":
				sawNode = true
			}
		}
	}
	if !sawScratch || !sawSum || !sawNode {
		t.Errorf("points-to missing objects: scratch=%v sum=%v node=%v",
			sawScratch, sawSum, sawNode)
	}
}

func TestCarriedFlowOnlyThroughSum(t *testing.T) {
	m, scratch, sum := buildReuseLoop(t, 6, 4)
	p, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	outer := outerLoopOf(t, p)
	deps := p.CarriedFlow[outer]
	if len(deps) == 0 {
		t.Fatal("expected a carried flow dependence through sum")
	}
	for _, d := range deps {
		if d.Object.Global == scratch {
			t.Errorf("false carried dep through scratch (reused, not flowed): %+v", d)
		}
		if d.Object.Global != sum {
			t.Errorf("unexpected carried dep through %s", d.Object)
		}
	}
}

func TestShortLivedDetection(t *testing.T) {
	m, _, _ := buildReuseLoop(t, 6, 4)
	p, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	outer := outerLoopOf(t, p)
	var node Object
	for o := range p.AllocatedIn[outer] {
		if o.Site != nil && o.Site.Name == "node" {
			node = o
		}
	}
	if node.IsZero() {
		t.Fatal("node site not recorded as allocated in loop")
	}
	if !p.IsShortLived(node, outer) {
		t.Errorf("node should be short-lived; violations: %v",
			p.ShortLivedViolations[outer].Names())
	}
}

func TestEscapingObjectNotShortLived(t *testing.T) {
	// Object allocated in iteration i, freed in iteration i+1.
	m := ir.NewModule("escape")
	hold := m.NewGlobal("hold", 8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.Store(b.P(0), b.Global(hold), 8)
	b.For("i", b.I(0), b.I(8), func(_ *ir.Instr) {
		prev := b.LoadPtr(b.Global(hold))
		b.If(b.Ne(prev, b.P(0)), func() {
			b.Free(b.LoadPtr(b.Global(hold)))
		}, nil)
		n := b.Malloc("node", b.I(16))
		b.Store(n, b.Global(hold), 8)
	})
	b.Free(b.LoadPtr(b.Global(hold)))
	b.Ret(b.I(0))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	ir.PromoteAllocas(f)
	p, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	outer := outerLoopOf(t, p)
	for o := range p.AllocatedIn[outer] {
		if o.Site != nil && o.Site.Name == "node" {
			if p.IsShortLived(o, outer) {
				t.Error("object freed in the next iteration must not be short-lived")
			}
		}
	}
}

func TestValuePredictionProfile(t *testing.T) {
	// head is always NULL when read at iteration start (dijkstra's queue
	// pattern): stable constant. sum varies: unstable.
	m := ir.NewModule("vp")
	head := m.NewGlobal("head", 8)
	sum := m.NewGlobal("sum", 8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	var headLoad, sumLoad *ir.Instr
	b.For("i", b.I(0), b.I(5), func(iv *ir.Instr) {
		headLoad = b.LoadPtr(b.Global(head))
		b.If(b.Ne(headLoad, b.P(0)), func() {
			b.Store(b.P(0), b.Global(head), 8)
		}, nil)
		sumLoad = b.Load(b.Global(sum), 8)
		b.Store(b.Add(sumLoad, b.Ld(iv)), b.Global(sum), 8)
	})
	b.Ret(b.I(0))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	ir.PromoteAllocas(f)
	p, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	hc := p.LoadConst[headLoad]
	if hc == nil || !hc.Stable || hc.Value != 0 {
		t.Errorf("head load profile = %+v, want stable 0", hc)
	}
	sc := p.LoadConst[sumLoad]
	if sc == nil || sc.Stable {
		t.Errorf("sum load profile = %+v, want unstable", sc)
	}
}

func TestCalleeAccessesAttributedToLoop(t *testing.T) {
	// The loop calls a helper that writes a global; the dependence and
	// points-to data must still be attributed to the loop.
	m := ir.NewModule("callee")
	g := m.NewGlobal("acc", 8)
	helper := m.NewFunc("bump", ir.Void)
	{
		hb := ir.NewBuilder(helper)
		addr := hb.Global(g)
		hb.Store(hb.Add(hb.Load(addr, 8), hb.I(1)), addr, 8)
		hb.Ret()
	}
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(4), func(_ *ir.Instr) {
		b.Call(helper)
	})
	b.Ret(b.Load(b.Global(g), 8))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	ir.PromoteAllocas(f)
	p, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	outer := outerLoopOf(t, p)
	found := false
	for _, d := range p.CarriedFlow[outer] {
		if d.Object.Global == g {
			found = true
		}
	}
	if !found {
		t.Error("carried dependence through callee not attributed to loop")
	}
}

func TestBlockRunsCounted(t *testing.T) {
	m := ir.NewModule("blocks")
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	cold := b.NewBlock("cold")
	warm := b.NewBlock("warm")
	exit := b.NewBlock("exit")
	b.CondBr(b.I(0), cold, warm)
	b.SetBlock(cold)
	b.Br(exit)
	b.SetBlock(warm)
	b.Br(exit)
	b.SetBlock(exit)
	b.Ret(b.I(0))
	p, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockRuns[cold] != 0 {
		t.Errorf("cold block counted %d runs", p.BlockRuns[cold])
	}
	if p.BlockRuns[warm] != 1 || p.BlockRuns[f.Entry()] != 1 {
		t.Errorf("warm=%d entry=%d", p.BlockRuns[warm], p.BlockRuns[f.Entry()])
	}
}

func TestCarriedReadProfileStability(t *testing.T) {
	// head is read-before-write each iteration with the constant NULL:
	// CarriedReads must mark it stable with the right address and offset.
	m := ir.NewModule("cr")
	q := m.NewGlobal("q", 16)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	var tailLoad *ir.Instr
	b.For("i", b.I(0), b.I(6), func(iv *ir.Instr) {
		tailLoad = b.LoadPtr(b.Add(b.Global(q), b.I(8)))
		_ = tailLoad
		b.Store(b.Ld(iv), b.Add(b.Global(q), b.I(8)), 8)
		b.Store(b.I(0), b.Add(b.Global(q), b.I(8)), 8) // reset to 0
	})
	b.Ret(b.I(0))
	ir.PromoteAllocas(f)
	p, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	outer := outerLoopOf(t, p)
	cr := p.CarriedReads[outer][tailLoad]
	if cr == nil {
		t.Fatal("no carried-read record")
	}
	if !cr.Stable || cr.Value != 0 || cr.Offset != 8 || cr.Object.Global != q {
		t.Errorf("carried read = %+v", cr)
	}
}

func TestObjectStringForms(t *testing.T) {
	g := &ir.Global{Name: "glob"}
	if (Object{Global: g}).String() != "@glob" {
		t.Error("global object string")
	}
	if !(Object{}).IsZero() || (Object{Global: g}).IsZero() {
		t.Error("IsZero wrong")
	}
	if (Object{}).String() != "<none>" {
		t.Error("zero object string")
	}
}

func TestHotLoopsDeterministicOrder(t *testing.T) {
	m, _, _ := buildReuseLoop(t, 6, 4)
	p1, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	// Two runs over the same module produce the same ordering.
	p2, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := p1.HotLoops(), p2.HotLoops()
	if len(h1) != len(h2) {
		t.Fatal("hot loop count differs")
	}
	for i := range h1 {
		// Each Run recomputes loop structure, so compare by name.
		if h1[i].Loop.String() != h2[i].Loop.String() {
			t.Errorf("hot loop order differs at %d: %s vs %s",
				i, h1[i].Loop, h2[i].Loop)
		}
	}
}
