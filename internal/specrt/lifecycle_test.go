package specrt

import (
	"fmt"
	"slices"
	"testing"

	"privateer/internal/analysis"
	"privateer/internal/classify"
	"privateer/internal/deps"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/obs"
	"privateer/internal/profiling"
	"privateer/internal/transform"
	"privateer/internal/vm"
)

// outlineRegion outlines a module's hottest depth-1 main loop with a
// hand-built assignment — for tests that need precise control over heap
// classification (the full classify pipeline would choose its own).
func outlineRegion(t *testing.T, mod *ir.Module, assign *classify.Assignment, args ...uint64) *RegionInfo {
	t.Helper()
	prof, err := profiling.Run(mod, args...)
	if err != nil {
		t.Fatal(err)
	}
	var loop *ir.Loop
	for _, li := range prof.HotLoops() {
		if li.Loop.Header.Fn.Name == "main" && li.Loop.Depth == 1 {
			loop = li.Loop
			break
		}
	}
	if loop == nil {
		t.Fatal("no hot main loop")
	}
	outline, err := transform.Outline(mod, loop)
	if err != nil {
		t.Fatal(err)
	}
	return &RegionInfo{Outline: outline, Assign: assign, Plan: &deps.Plan{}}
}

// TestPerInvocationFallback: the recovery budget must be per invocation —
// under certain misspeculation a region entry makes exactly
// DefaultMaxRecoveries recoveries and 1 fallback, and a later invocation
// starts with a fresh budget instead of inheriting the exhausted one. Every
// span misspeculates at its first iteration, so it advances by one and the
// budget, not the loop's end, stops the recoveries.
func TestPerInvocationFallback(t *testing.T) {
	const n = 4*DefaultMaxRecoveries + 8
	seqIt := interp.New(buildWriterModule(n), vm.NewAddressSpace())
	want, err := seqIt.Run()
	if err != nil {
		t.Fatal(err)
	}
	mod := buildWriterModule(n)
	ri := buildRegion(t, mod)
	rt := New(mod, Config{
		Workers: 3, CheckpointPeriod: 2,
		MisspecRate: 1.0, Seed: 1,
	}, ri)
	got, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("result %d, want %d", got, want)
	}
	if rt.Stats.Recoveries != DefaultMaxRecoveries {
		t.Errorf("recoveries %d, want %d (the budget)", rt.Stats.Recoveries, DefaultMaxRecoveries)
	}
	if rt.Stats.SequentialFallbacks != 1 {
		t.Errorf("fallbacks %d, want 1", rt.Stats.SequentialFallbacks)
	}
	if rt.Stats.RegionWallNS <= 0 {
		t.Error("RegionWallNS not accounted on the fallback path")
	}
	// A second invocation must get its own budget: were the budget
	// cumulative, it would fall back immediately with no new recoveries.
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats.Recoveries != 2*DefaultMaxRecoveries {
		t.Errorf("recoveries after second invocation %d, want %d (the budget per invocation)",
			rt.Stats.Recoveries, 2*DefaultMaxRecoveries)
	}
	if rt.Stats.SequentialFallbacks != 2 {
		t.Errorf("fallbacks after second invocation %d, want 2", rt.Stats.SequentialFallbacks)
	}
}

// TestReduxRegistryLifecycle: the live-object registry is keyed by address
// (an allocation at a live object's address replaces its entry), a free
// removes the entry, and a snapshot holds what the invoked region acts on —
// and only that — in address order: the objects it reduces, with its
// operator and element size, its statically-privatized private objects and
// its proven read-only objects. A private object with no proof stays out,
// and siteFor names the object owning an interior address until its free.
func TestReduxRegistryLifecycle(t *testing.T) {
	mod := ir.NewModule("sites")
	bd := ir.NewBuilder(mod.NewFunc("main", ir.I64))
	site := func(name string, h ir.HeapKind) (*ir.Instr, profiling.Object) {
		in := bd.HAlloc(name, bd.I(8), h)
		return in, profiling.Object{Site: in}
	}
	inA, objA := site("a", ir.HeapRedux)
	inB, objB := site("b", ir.HeapRedux)
	inC, objC := site("c", ir.HeapRedux)
	inP, objP := site("p", ir.HeapPrivate)
	inU, _ := site("u", ir.HeapPrivate)
	inR, objR := site("r", ir.HeapReadOnly)
	rt := New(mod, Config{})
	a := ir.HeapRedux.Base() + vm.PageSize
	b := a + 64
	c := b + 64
	p := ir.HeapPrivate.Base() + vm.PageSize
	u := p + 64
	r := ir.HeapReadOnly.Base() + vm.PageSize
	rt.onAlloc(nil, inA, a, 8)
	rt.onAlloc(nil, inB, b, 16)
	if n := rt.live.Len(); n != 2 {
		t.Fatalf("count %d, want 2", n)
	}
	// Same address again: replaced, not duplicated.
	rt.onAlloc(nil, inA, a, 24)
	if n := rt.live.Len(); n != 2 {
		t.Fatalf("count after re-allocation %d, want 2", n)
	}
	// Live objects the region does not reduce or prove stay out of its
	// snapshot: c (reduced only by another region) and u (no proof).
	rt.onAlloc(nil, inC, c, 4)
	rt.onAlloc(nil, inR, r, 16)
	rt.onAlloc(nil, inU, u, 8)
	rt.onAlloc(nil, inP, p, 32)
	ri := &RegionInfo{Assign: &classify.Assignment{
		ReduxOps:   map[profiling.Object]ir.ReduxKind{objA: ir.ReduxAddI64, objB: ir.ReduxMaxI64},
		ReduxSizes: map[profiling.Object]int64{objA: 4, objB: 8},
		Sep: &analysis.SepResult{
			Proven:        map[profiling.Object]analysis.ProofRule{objP: analysis.RuleCoveredWrite, objR: analysis.RuleReadOnly},
			FullOverwrite: map[profiling.Object]bool{objP: true},
		},
	}}
	redux, priv, ro := rt.snapshot(ri)
	if len(redux) != 2 || redux[0].addr != a || redux[1].addr != b {
		t.Fatalf("snapshot not the region's objects in address order: %+v", redux)
	}
	if redux[0].size != 24 {
		t.Errorf("re-allocation kept stale size %d, want 24", redux[0].size)
	}
	if redux[0].op != ir.ReduxAddI64 || redux[0].elemSize != 4 || redux[1].op != ir.ReduxMaxI64 || redux[1].elemSize != 8 {
		t.Errorf("snapshot does not carry the region's operator and element size: %+v", redux)
	}
	if want := []provenRange{{addr: p, size: 32}}; !slices.Equal(priv, want) {
		t.Errorf("privatized ranges %+v, want %+v (the unproven object left out)", priv, want)
	}
	if want := []provenRange{{addr: r, size: 16}}; !slices.Equal(ro, want) {
		t.Errorf("read-only ranges %+v, want %+v", ro, want)
	}
	other := &RegionInfo{Assign: &classify.Assignment{
		ReduxOps:   map[profiling.Object]ir.ReduxKind{objC: ir.ReduxAddI64},
		ReduxSizes: map[profiling.Object]int64{objC: 4},
	}}
	if redux, priv, ro := rt.snapshot(other); len(redux) != 1 || redux[0].addr != c || redux[0].elemSize != 4 || len(priv)+len(ro) != 0 {
		t.Fatalf("second region's snapshot: %+v %+v %+v, want only the 4-byte object", redux, priv, ro)
	}
	if got := rt.siteFor(a + 4); got != objA.String() {
		t.Errorf("siteFor inside a: %q, want %q", got, objA.String())
	}
	rt.onFree(nil, nil, a)
	if n := rt.live.Len(); n != 5 {
		t.Fatalf("count after free %d, want 5", n)
	}
	if redux, _, _ := rt.snapshot(ri); len(redux) != 1 || redux[0].addr != b {
		t.Fatalf("wrong survivor: %+v", redux)
	}
	if got := rt.siteFor(a + 4); got != "redux:?" {
		t.Errorf("siteFor inside freed a: %q, want %q", got, "redux:?")
	}
}

// buildReduxReallocModule allocates a reduction object, frees it, and
// allocates a second one — which the heap free list places at the SAME
// address — then min-reduces into it. The returned instruction is the
// second allocation site (the one the assignment must classify).
//
//	r1 = halloc(8, redux); hdealloc(r1)
//	r2 = halloc(8, redux); *r2 = 1000
//	for i in [0,12): *r2 = min(*r2, i+5)   // sequential result: 5
func buildReduxReallocModule() (*ir.Module, *ir.Instr) {
	m := ir.NewModule("redux-realloc")
	slot := m.NewGlobal("slot", 8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	a1 := b.HAlloc("r1", b.I(8), ir.HeapRedux)
	b.HDealloc(a1, ir.HeapRedux)
	a2 := b.HAlloc("r2", b.I(8), ir.HeapRedux)
	b.Store(b.I(1000), a2, 8)
	b.St(a2, b.Global(slot))
	b.For("i", b.I(0), b.I(12), func(iv *ir.Instr) {
		p := b.LdP(b.Global(slot))
		v := b.Load(p, 8)
		x := b.Add(b.Ld(iv), b.I(5))
		b.Store(b.Select(b.SLt(v, x), v, x), p, 8)
	})
	b.Ret(b.Load(b.LdP(b.Global(slot)), 8))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m, a2
}

// TestReduxFreeReallocRoundTrip: freeing a reduction object must drop its
// registry entry, so a reallocation at the same address is governed by the
// NEW object's operator. With a stale first-registration-wins entry the
// min-reduction would be initialized and folded as an integer sum
// (identity 0), producing 1000 instead of 5.
func TestReduxFreeReallocRoundTrip(t *testing.T) {
	mod, site2 := buildReduxReallocModule()
	assign := &classify.Assignment{
		ReduxOps:   map[profiling.Object]ir.ReduxKind{{Site: site2}: ir.ReduxMinI64},
		ReduxSizes: map[profiling.Object]int64{{Site: site2}: 8},
	}
	ri := outlineRegion(t, mod, assign)
	rt := New(mod, Config{Workers: 2, CheckpointPeriod: 4}, ri)
	got, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("min-reduction result %d, want 5 (stale operator would give 1000)", got)
	}
	if rt.Stats.Misspecs != 0 {
		t.Errorf("unexpected misspecs %d", rt.Stats.Misspecs)
	}
	var live []profiling.Object
	rt.live.Each(func(lo, hi uint64, obj profiling.Object) bool {
		if ir.HeapOf(lo) == ir.HeapRedux {
			live = append(live, obj)
		}
		return true
	})
	if want := []profiling.Object{{Site: site2}}; !slices.Equal(live, want) {
		t.Fatalf("registry holds reduction objects %v after free+realloc, want %v", live, want)
	}
	if redux, _, _ := rt.snapshot(ri); len(redux) != 1 || redux[0].op != ir.ReduxMinI64 {
		t.Errorf("the reallocated object snapshots as %+v, want one object with operator %v",
			redux, ir.ReduxMinI64)
	}
}

// TestCrossValidateUnit drives the chain validation directly: a byte
// written in interval 0 and read as "live-in" in interval 1 must flag
// interval 1; disjoint bytes must not.
func TestCrossValidateUnit(t *testing.T) {
	base := ir.ShadowAddr(ir.HeapPrivate.Base()+vm.PageSize) &^ uint64(vm.PageSize-1)

	cp0 := newCheckpoint(0, 0, 4, nil)
	cp1 := newCheckpoint(1, 4, 8, cp0)
	cp0.ownPage(cp0.shadow, base)[5] = MetaTSBase // written in interval 0
	cp1.ownPage(cp1.shadow, base)[5] = MetaReadLiveIn
	if c, _ := cp1.crossValidate(); c != 1 {
		t.Errorf("write-then-live-in-read: flagged interval %d, want 1", c)
	}

	// Read as live-in first, written later: also a violation (the earlier
	// read observed pre-region state the later write should have changed).
	cp0 = newCheckpoint(0, 0, 4, nil)
	cp1 = newCheckpoint(1, 4, 8, cp0)
	cp0.ownPage(cp0.shadow, base)[9] = MetaReadLiveIn
	cp1.ownPage(cp1.shadow, base)[9] = MetaTSBase
	if c, _ := cp1.crossValidate(); c != 1 {
		t.Errorf("live-in-read-then-write: flagged interval %d, want 1", c)
	}

	// Disjoint bytes: clean.
	cp0 = newCheckpoint(0, 0, 4, nil)
	cp1 = newCheckpoint(1, 4, 8, cp0)
	cp0.ownPage(cp0.shadow, base)[1] = MetaTSBase
	cp1.ownPage(cp1.shadow, base)[2] = MetaReadLiveIn
	if c, _ := cp1.crossValidate(); c != -1 {
		t.Errorf("disjoint bytes flagged interval %d, want -1", c)
	}
}

// buildCrossIntervalModule hand-instruments a loop whose only conflict
// spans checkpoint intervals: iteration 2 writes a private global that
// iteration 7 reads. Within each interval the fast phase and the merge see
// nothing wrong — only the cross-interval chain validation can catch it.
func buildCrossIntervalModule() *ir.Module {
	m := ir.NewModule("xval")
	g := m.NewGlobal("g", 8)
	g.Heap = ir.HeapPrivate
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(8), func(iv *ir.Instr) {
		i := b.Ld(iv)
		b.If(b.Eq(i, b.I(2)), func() {
			p := b.Global(g)
			b.PrivateWrite(p, 8)
			b.Store(i, p, 8)
		}, nil)
		b.If(b.Eq(i, b.I(7)), func() {
			p := b.Global(g)
			b.PrivateRead(p, 8)
			b.Print("v=%d\n", b.Load(p, 8))
		}, nil)
	})
	b.Ret(b.I(0))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}

// TestCrossIntervalMisspecEndToEnd: with 2 workers and period 4, the
// write at iteration 2 lands in interval 0 (worker 0) and the read at
// iteration 7 in interval 1 (worker 1) — separate address spaces, separate
// checkpoints, so only crossValidate detects the violation. Recovery must
// re-execute from the last valid checkpoint and produce the sequential
// output.
func TestCrossIntervalMisspecEndToEnd(t *testing.T) {
	mod := buildCrossIntervalModule()
	ri := outlineRegion(t, mod, &classify.Assignment{})
	rt := New(mod, Config{Workers: 2, CheckpointPeriod: 4}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats.Misspecs == 0 {
		t.Error("cross-interval violation not detected")
	}
	if rt.Stats.Recoveries == 0 {
		t.Error("no recovery after cross-interval misspeculation")
	}
	if got, want := rt.Output(), "v=2\n"; got != want {
		t.Errorf("output %q, want %q (sequential semantics)", got, want)
	}
}

// TestShadowMemoAcrossIntervals: with one iteration per interval, every
// contribution resets the worker's shadow between the write at iteration 2
// and the read at iteration 7, and the worker's memo of its last shadow page
// must not carry a mark across that reset. The violation is still flagged —
// by the fast phase when one worker runs both iterations, by the chain
// validation when two do — and the output is the sequential one.
func TestShadowMemoAcrossIntervals(t *testing.T) {
	seq := interp.New(buildCrossIntervalModule(), vm.NewAddressSpace())
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		mod := buildCrossIntervalModule()
		ri := outlineRegion(t, mod, &classify.Assignment{})
		rt := New(mod, Config{Workers: workers, CheckpointPeriod: 1}, ri)
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if rt.Stats.Misspecs == 0 {
			t.Errorf("workers=%d: cross-interval violation not flagged", workers)
		}
		if got, want := rt.Output(), seq.Out.String(); got != want {
			t.Errorf("workers=%d: output %q, want the sequential %q", workers, got, want)
		}
	}
}

// TestEventSequenceGolden pins the exact lifecycle event sequence for a
// deterministic single-worker run that misspeculates on every iteration,
// recovers DefaultMaxRecoveries times, and falls back: the trace is an API,
// and reorderings are regressions.
func TestEventSequenceGolden(t *testing.T) {
	const n = DefaultMaxRecoveries + 4
	mod := buildWriterModule(n)
	ri := buildRegion(t, mod)
	col := obs.NewCollector(0)
	rt := New(mod, Config{
		Workers: 1, CheckpointPeriod: 1,
		MisspecRate: 1.0, Seed: 1,
		Trace: obs.NewTracer(col),
	}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Only the specrt lifecycle kinds: vm-layer events (COW copies, TLB
	// flushes) interleave nondeterministically with map iteration order.
	keep := map[obs.Kind]bool{
		obs.KRegionInvoke: true, obs.KSpanStart: true, obs.KSpanEnd: true,
		obs.KPhase: true, obs.KMisspec: true, obs.KRecovery: true,
		obs.KSeqFallback: true,
	}
	var got []string
	for _, ev := range col.Events() {
		if !keep[ev.Kind] {
			continue
		}
		s := ev.Kind.String()
		if ev.Cause != "" {
			s += ":" + ev.Cause
		}
		got = append(got, s)
	}
	var want []string
	for r := 0; r < DefaultMaxRecoveries; r++ {
		want = append(want,
			"span-start", "phase:fast", "misspec:injected", "phase:validate", "span-end",
			"phase:recover", "recovery")
	}
	want = append(want, "seq-fallback", "region-invoke")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("event sequence:\n got %v\nwant %v", got, want)
	}
}

// TestMetricsFromRun: the lifecycle events of a live run, counted by kind,
// must agree with the runtime's own counters.
func TestMetricsFromRun(t *testing.T) {
	const n = 24
	mod := buildWriterModule(n)
	ri := buildRegion(t, mod)
	col := obs.NewCollector(0)
	rt := New(mod, Config{
		Workers: 2, CheckpointPeriod: 4,
		MisspecRate: 0.1, Seed: 5,
		Trace: obs.NewTracer(col),
	}, ri)
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	counts, _ := kindLedger(col.Events())
	for _, c := range []struct {
		kind  obs.Kind
		stats int64
	}{
		{obs.KRegionInvoke, rt.Stats.Invocations},
		{obs.KMisspec, rt.Stats.Misspecs},
		{obs.KRecovery, rt.Stats.Recoveries},
		{obs.KSeqFallback, rt.Stats.SequentialFallbacks},
		{obs.KCheckpoint, rt.Stats.Checkpoints},
	} {
		if counts[c.kind] != c.stats {
			t.Errorf("%d %s events != stats %d", counts[c.kind], c.kind, c.stats)
		}
	}
}
