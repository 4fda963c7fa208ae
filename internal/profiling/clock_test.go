package profiling

import (
	"runtime"
	"testing"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/progs"
	"privateer/internal/vm"
)

// The cases below are the ones the logical clock and the shared shadow have
// to get right to answer as the per-activation write maps did.

func profileMain(t *testing.T, m *ir.Module) *Profile {
	t.Helper()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	for _, f := range m.SortedFuncs() {
		ir.PromoteAllocas(f)
	}
	p, err := Run(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// loopAt returns main's loop of the given depth.
func loopAt(t *testing.T, p *Profile, depth int) *ir.Loop {
	t.Helper()
	for _, l := range p.AllLoops {
		if l.Depth == depth && l.Header.Fn.Name == "main" {
			return l
		}
	}
	t.Fatalf("no loop of depth %d in main", depth)
	return nil
}

// carriedBytes sums the Count of l's dependences from src to dst (nil
// matches any instruction).
func carriedBytes(p *Profile, l *ir.Loop, src, dst *ir.Instr) int64 {
	var n int64
	for _, d := range p.CarriedFlow[l] {
		if (src == nil || d.Src == src) && (dst == nil || d.Dst == dst) {
			n += d.Count
		}
	}
	return n
}

func TestCalleeStoreInInnerLoopCarriedByOuter(t *testing.T) {
	m := ir.NewModule("callee-inner")
	g := m.NewGlobal("g", 8)
	set := m.NewFunc("set", ir.Void)
	v := set.NewParam("v", ir.I64)
	sb := ir.NewBuilder(set)
	store := sb.Store(v, sb.Global(g), 8)
	sb.Ret()
	b := ir.NewBuilder(m.NewFunc("main", ir.I64))
	var load *ir.Instr
	b.For("i", b.I(0), b.I(4), func(iv *ir.Instr) {
		load = b.Load(b.Global(g), 8)
		b.For("j", b.I(0), b.I(2), func(jv *ir.Instr) {
			b.Call(set, b.Add(b.Ld(iv), b.Ld(jv)))
		})
	})
	b.Ret(b.I(0))
	p := profileMain(t, m)
	// Iterations 1..3 of the outer loop read what the callee stored during
	// the previous one; the inner activation that ran the store is gone.
	if got := carriedBytes(p, loopAt(t, p, 1), store, load); got != 3*8 {
		t.Errorf("outer loop carries %d bytes from the callee's store, want 24", got)
	}
	if got := carriedBytes(p, loopAt(t, p, 2), nil, nil); got != 0 {
		t.Errorf("inner loop carries %d bytes, want none: it never reads g", got)
	}
}

func TestStoreBeforeLoopNotCarried(t *testing.T) {
	m := ir.NewModule("before")
	g := m.NewGlobal("g", 8)
	b := ir.NewBuilder(m.NewFunc("main", ir.I64))
	b.Store(b.I(7), b.Global(g), 8)
	b.For("i", b.I(0), b.I(4), func(*ir.Instr) {
		b.Load(b.Global(g), 8)
	})
	b.Ret(b.I(0))
	p := profileMain(t, m)
	l := loopAt(t, p, 1)
	if len(p.CarriedFlow[l]) != 0 || len(p.CarriedReads[l]) != 0 {
		t.Errorf("a store made before the loop is carried: %d deps, %d carried reads",
			len(p.CarriedFlow[l]), len(p.CarriedReads[l]))
	}
}

func TestSecondActivationDoesNotInheritWrites(t *testing.T) {
	m := ir.NewModule("twice")
	g := m.NewGlobal("g", 8)
	b := ir.NewBuilder(m.NewFunc("main", ir.I64))
	b.For("i", b.I(0), b.I(2), func(*ir.Instr) {
		b.For("j", b.I(0), b.I(3), func(jv *ir.Instr) {
			x := b.Load(b.Global(g), 8)
			b.Store(b.Add(x, b.Ld(jv)), b.Global(g), 8)
		})
	})
	b.Ret(b.I(0))
	p := profileMain(t, m)
	inner, outer := loopAt(t, p, 2), loopAt(t, p, 1)
	if n := p.Loops[inner].Invocations; n != 2 {
		t.Fatalf("inner loop invoked %d times, want 2", n)
	}
	// Each activation carries its iterations 1 and 2; the second
	// activation's iteration 0 reads the first activation's last store,
	// which is carried by the outer loop and by nothing else.
	if got := carriedBytes(p, inner, nil, nil); got != 2*2*8 {
		t.Errorf("inner loop carries %d bytes, want 32", got)
	}
	if got := carriedBytes(p, outer, nil, nil); got != 8 {
		t.Errorf("outer loop carries %d bytes, want 8", got)
	}
}

func TestReadStraddlingShadowPages(t *testing.T) {
	m := ir.NewModule("straddle")
	g := m.NewGlobal("g", 3*shadowPageSize)
	b := ir.NewBuilder(m.NewFunc("main", ir.I64))
	var lowStore, highStore, load *ir.Instr
	b.For("i", b.I(0), b.I(4), func(iv *ir.Instr) {
		// edge is the first shadow-page boundary strictly inside g.
		edge := b.And(b.Add(b.PtrToInt(b.Global(g)), b.I(shadowPageSize)), b.I(^(shadowPageSize - 1)))
		at := func(off int64) *ir.Instr { return b.IntToPtrVal(b.Add(edge, b.I(off))) }
		load = b.Load(at(-4), 8)
		lowStore = b.Store(b.Ld(iv), at(-4), 4)
		highStore = b.Store(b.Ld(iv), at(0), 4)
	})
	b.Ret(b.I(0))
	p := profileMain(t, m)
	l := loopAt(t, p, 1)
	for name, st := range map[string]*ir.Instr{"low": lowStore, "high": highStore} {
		if got := carriedBytes(p, l, st, load); got != 3*4 {
			t.Errorf("%s half: %d carried bytes, want 12", name, got)
		}
	}
	cr := p.CarriedReads[l][load]
	if cr == nil || cr.Count != 3 || cr.Size != 8 || cr.Object.Global != g {
		t.Errorf("carried read = %+v, want 3 occurrences of 8 bytes in @g", cr)
	}
}

func TestReusedAddressResolvesToLiveObject(t *testing.T) {
	m := ir.NewModule("reuse-addr")
	b := ir.NewBuilder(m.NewFunc("main", ir.I64))
	first := b.Malloc("first", b.I(16))
	b.Store(b.I(1), first, 8)
	b.Free(first)
	second := b.Malloc("second", b.I(16))
	store := b.Store(b.PtrToInt(second), second, 8)
	load := b.Load(second, 8)
	b.Ret(b.Eq(b.PtrToInt(first), load))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	pr := NewProfiler(m)
	it := interp.New(m, vm.NewAddressSpace())
	if err := pr.Attach(it); err != nil {
		t.Fatal(err)
	}
	if reused, err := it.Run(); err != nil || reused != 1 {
		t.Fatalf("the allocator did not hand the freed address out again (%d, %v): the case tests nothing", reused, err)
	}
	p := pr.Profile(it.Steps)
	for _, in := range []*ir.Instr{store, load} {
		set := p.PointsTo[in]
		if len(set) != 1 || !set[Object{Site: second}] {
			t.Errorf("%s points to %v, want only main:second", in, set.Names())
		}
	}
}

// TestCarriedFlowOrder pins the order of dependences that tie on count and
// object: source position, then destination position, on every run.
func TestCarriedFlowOrder(t *testing.T) {
	m := ir.NewModule("ties")
	g := m.NewGlobal("g", 32)
	b := ir.NewBuilder(m.NewFunc("main", ir.I64))
	var stores [4]*ir.Instr
	b.For("i", b.I(0), b.I(5), func(*ir.Instr) {
		for k := range stores {
			slot := b.Add(b.Global(g), b.I(int64(8*k)))
			stores[k] = b.Store(b.Add(b.Load(slot, 8), b.I(1)), slot, 8)
		}
	})
	b.Ret(b.I(0))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	ir.PromoteAllocas(m.Funcs["main"])
	for run := 0; run < 16; run++ {
		p, err := Run(m)
		if err != nil {
			t.Fatal(err)
		}
		deps := p.CarriedFlow[loopAt(t, p, 1)]
		if len(deps) != len(stores) {
			t.Fatalf("want %d tied dependences, got %d", len(stores), len(deps))
		}
		for k, d := range deps {
			if d.Count != deps[0].Count || d.Src != stores[k] {
				t.Fatalf("run %d: dependence %d is not store %d with the common count", run, k, k)
			}
		}
	}
}

// TestProfilerAllocationBudget keeps a per-activation or per-byte map from
// coming back: the map-based profiler allocated 52 MB on this input, the
// shadow-memory one about 0.5 MB, most of it building and decoding the IR.
func TestProfilerAllocationBudget(t *testing.T) {
	p := progs.Alvinn()
	mod := p.Build(p.Alt)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(mod); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 4 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("profiling alvinn/alt allocated %d bytes, budget %d", got, budget)
	}
}
