package profiling

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/progs"
	"privateer/internal/randprog"
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

// TestDanglingAccessPointsNowhere: a load through a freed pointer resolves
// to no object, so it has no points-to entry, while the store before the
// free keeps its object.
func TestDanglingAccessPointsNowhere(t *testing.T) {
	m := ir.NewModule("dangling")
	b := ir.NewBuilder(m.NewFunc("main", ir.I64))
	obj := b.Malloc("obj", b.I(16))
	store := b.Store(b.I(7), obj, 8)
	b.Free(obj)
	load := b.Load(obj, 8)
	b.Ret(load)
	p := profileMain(t, m)
	if set := p.PointsTo[store]; len(set) != 1 || !set[Object{Site: obj}] {
		t.Errorf("store points to %v, want only main:obj", set.Names())
	}
	if set, ok := p.PointsTo[load]; ok {
		t.Errorf("dangling load points to %v, want no entry", set.Names())
	}
}

// TestClockOverflowPanics pins that a clock reading too large for a shadow
// word stops the run instead of wrapping into the store index beside it.
func TestClockOverflowPanics(t *testing.T) {
	m, _, _ := buildReuseLoop(t, 10, 4)
	p := NewProfiler(m)
	p.maxClock = 5 // the loops tick it past 5 long before they finish
	it := interp.New(m, vm.NewAddressSpace())
	if err := p.Attach(it); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "overflow") {
			t.Errorf("recovered %v, want the clock overflow panic", r)
		}
	}()
	_, err := it.Run()
	t.Errorf("the run ended (err %v) with the clock at %d, past its bound 5", err, p.clock)
}

// TestProfilerAllocationBudget keeps per-event maps and large shadow pages
// from coming back. Each budget is 1.25× the dense-index profiler's reading:
// alvinn/alt reads 111.6 KB (the map-based profiler read 52 MB, the first
// shadow-memory one 303 KB), and randprog seeds 1–4 read 180.5 KB together
// (440.0 KB while every profile paid a 48 KB shadow page).
func TestProfilerAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make the budget meaningless")
	}
	allocated := func(mods []*ir.Module, args [][]uint64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, mod := range mods {
			if _, err := Run(mod, args[i]...); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	p := progs.Alvinn()
	if got, budget := allocated([]*ir.Module{p.Build(p.Alt)}, [][]uint64{nil}), uint64(139_500); got > budget {
		t.Errorf("profiling alvinn/alt allocated %d bytes, budget %d", got, budget)
	}
	var mods []*ir.Module
	var args [][]uint64
	for seed := int64(1); seed <= 4; seed++ {
		cfg := randprog.DefaultConfig(seed)
		mods = append(mods, randprog.Generate(cfg))
		args = append(args, []uint64{randprog.TrainTrips(cfg)})
	}
	if got, budget := allocated(mods, args), uint64(225_700); got > budget {
		t.Errorf("profiling randprog seeds 1-4 allocated %d bytes, budget %d", got, budget)
	}
}
