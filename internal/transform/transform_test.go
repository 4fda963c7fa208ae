package transform

import (
	"testing"

	"privateer/internal/analysis"
	"privateer/internal/classify"
	"privateer/internal/deps"
	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/profiling"
	"privateer/internal/vm"
)

// buildDijkstraLike builds a miniature of the paper's Figure 2: a reused
// queue head, a reused table initialized every iteration, a read-only input
// array, short-lived nodes and deferred output.
func buildDijkstraLike(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.NewModule("mini")
	const n = 6
	table := m.NewGlobal("table", n*8)
	input := m.NewGlobal("input", n*8)
	for i := 0; i < n; i++ {
		input.Init = append(input.Init, byte(i+1), 0, 0, 0, 0, 0, 0, 0)
	}
	head := m.NewGlobal("head", 8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("src", b.I(0), b.I(n), func(sv *ir.Instr) {
		// init table
		b.For("i", b.I(0), b.I(n), func(iv *ir.Instr) {
			slot := b.Add(b.Global(table), b.Mul(b.Ld(iv), b.I(8)))
			b.Store(b.I(1000000), slot, 8)
		})
		// push one node; node->next = head reads the queue pointer left
		// NULL by the previous iteration (the paper's enqueueQ pattern),
		// a carried flow dependence removed by value prediction.
		node := b.Malloc("node", b.I(16))
		b.Store(b.Ld(sv), node, 8)
		b.Store(b.LoadPtr(b.Global(head)), b.Add(node, b.I(8)), 8)
		b.Store(node, b.Global(head), 8)
		// drain queue
		b.While(func() ir.Value { return b.Ne(b.LoadPtr(b.Global(head)), b.P(0)) }, func() {
			cur := b.LoadPtr(b.Global(head))
			v := b.Load(cur, 8)
			slot := b.Add(b.Global(table), b.Mul(b.SRem(v, b.I(n)), b.I(8)))
			b.Store(b.Load(b.Add(b.Global(input), b.Mul(b.SRem(v, b.I(n)), b.I(8))), 8), slot, 8)
			b.Store(b.P(0), b.Global(head), 8)
			b.Free(cur)
		})
		b.Print("%d\n", b.Load(b.Global(table), 8))
	})
	b.Ret(b.Load(b.Global(table), 8))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}

// pipeline runs profile→classify→plan→transform on main's outer loop.
func pipeline(t *testing.T, m *ir.Module) *Result {
	t.Helper()
	prof, err := profiling.Run(m)
	if err != nil {
		t.Fatalf("profiling: %v", err)
	}
	var outer *ir.Loop
	for _, l := range prof.AllLoops {
		if l.Depth == 1 && l.Header.Fn.Name == "main" {
			outer = l
		}
	}
	if outer == nil {
		t.Fatal("no outer loop")
	}
	a := classify.Classify(outer, prof, classify.Options{})
	plan := deps.SpeculativeBlockers(outer, prof, a)
	if len(plan.Blockers) > 0 {
		t.Fatalf("blockers: %v\nassignment:\n%s", plan.Blockers, a)
	}
	pt := analysis.ComputePointsTo(m)
	res, err := Apply(m, outer, prof, a, plan, pt, Options{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return res
}

func TestTransformInsertsChecksAndMovesAllocation(t *testing.T) {
	m := buildDijkstraLike(t)
	res := pipeline(t, m)
	st := res.Stats
	if st.GlobalsMoved < 3 {
		t.Errorf("globals moved = %d, want >= 3", st.GlobalsMoved)
	}
	if st.AllocSitesReplaced < 1 {
		t.Errorf("alloc sites replaced = %d, want >= 1", st.AllocSitesReplaced)
	}
	if st.PrivacyReads == 0 || st.PrivacyWrites == 0 {
		t.Errorf("privacy checks missing: reads=%d writes=%d", st.PrivacyReads, st.PrivacyWrites)
	}
	if st.SeparationChecks+st.SeparationElided == 0 {
		t.Error("no separation checks considered")
	}
	if st.Predicts == 0 {
		t.Error("no value-prediction checks inserted (head should be predictable)")
	}
	// The malloc site must now be an h_alloc into the short-lived heap.
	foundHAlloc := false
	m.Funcs["main"].Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpHAlloc && in.Heap == ir.HeapShortLived {
			foundHAlloc = true
		}
	})
	if !foundHAlloc {
		t.Error("node malloc not rewritten into short-lived h_alloc")
	}
}

func TestTransformedModuleRunsSequentially(t *testing.T) {
	// The transformed program, run sequentially with default hooks (checks
	// validate against real tags, predictions hold), must produce the
	// same result and output as the original.
	orig := buildDijkstraLike(t)
	itOrig := interp.New(orig, vm.NewAddressSpace())
	wantVal, err := itOrig.Run()
	if err != nil {
		t.Fatalf("original run: %v", err)
	}
	wantOut := itOrig.Out.String()

	m := buildDijkstraLike(t)
	pipeline(t, m)
	it := interp.New(m, vm.NewAddressSpace())
	gotVal, err := it.Run()
	if err != nil {
		t.Fatalf("transformed run: %v", err)
	}
	if gotVal != wantVal {
		t.Errorf("transformed result %d, want %d", gotVal, wantVal)
	}
	if it.Out.String() != wantOut {
		t.Errorf("transformed output %q, want %q", it.Out.String(), wantOut)
	}
}

func TestTransformRejectsBlockedLoop(t *testing.T) {
	// A genuine recurrence must be rejected by Apply.
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
	prof, err := profiling.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	var outer *ir.Loop
	for _, l := range prof.AllLoops {
		if l.Depth == 1 {
			outer = l
		}
	}
	a := classify.Classify(outer, prof, classify.Options{})
	plan := deps.SpeculativeBlockers(outer, prof, a)
	pt := analysis.ComputePointsTo(m)
	if _, err := Apply(m, outer, prof, a, plan, pt, Options{}); err == nil {
		t.Error("Apply accepted a loop with blockers")
	}
}

func TestColdBlockGuards(t *testing.T) {
	m := ir.NewModule("cold")
	data := m.NewGlobal("data", 8*8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(8), func(iv *ir.Instr) {
		slot := b.Add(b.Global(data), b.Mul(b.Ld(iv), b.I(8)))
		b.Store(b.Ld(iv), slot, 8)
		b.If(b.SGt(b.Ld(iv), b.I(100)), func() {
			b.Store(b.I(-1), b.Global(data), 8) // cold path
		}, nil)
	})
	b.Ret(b.Load(b.Global(data), 8))
	ir.PromoteAllocas(f)
	res := pipeline(t, m)
	if res.Stats.ColdGuards == 0 {
		t.Error("cold branch not guarded")
	}
	// Sequentially the cold path is still never taken, so execution works.
	it := interp.New(m, vm.NewAddressSpace())
	if _, err := it.Run(); err != nil {
		t.Errorf("transformed run failed: %v", err)
	}
}

func TestStackArrayPrivatization(t *testing.T) {
	// An alvinn-style stack array written then read each iteration, living
	// in a helper called from the loop.
	m := ir.NewModule("stack")
	out := m.NewGlobal("out", 8)
	helper := m.NewFunc("work", ir.I64)
	hp := helper.NewParam("i", ir.I64)
	{
		hb := ir.NewBuilder(helper)
		arr := hb.Alloca("scratch", 16*8)
		hb.For("j", hb.I(0), hb.I(16), func(jv *ir.Instr) {
			slot := hb.Add(arr, hb.Mul(hb.Ld(jv), hb.I(8)))
			hb.Store(hb.Add(hp, hb.Ld(jv)), slot, 8)
		})
		acc := hb.Local("acc")
		hb.St(hb.I(0), acc)
		hb.For("k", hb.I(0), hb.I(16), func(kv *ir.Instr) {
			slot := hb.Add(arr, hb.Mul(hb.Ld(kv), hb.I(8)))
			hb.St(hb.Add(hb.Ld(acc), hb.Load(slot, 8)), acc)
		})
		hb.Ret(hb.Ld(acc))
	}
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(10), func(iv *ir.Instr) {
		b.Store(b.Call(helper, b.Ld(iv)), b.Global(out), 8)
	})
	b.Ret(b.Load(b.Global(out), 8))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	res := pipeline(t, m)
	// The stack array must be h_alloc'd now (short-lived: created and
	// destroyed within one call, hence one iteration).
	replaced := false
	m.Funcs["work"].Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpHAlloc {
			replaced = true
		}
	})
	if !replaced {
		t.Errorf("stack array not rewritten (stats: %+v)", res.Stats)
	}
	// And deallocated at exit.
	deallocs := 0
	m.Funcs["work"].Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpHDealloc {
			deallocs++
		}
	})
	if deallocs == 0 {
		t.Error("no h_dealloc at function exit")
	}
	// Still runs correctly.
	it := interp.New(m, vm.NewAddressSpace())
	v, err := it.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(9*16 + 120) // i=9: sum of 9+j for j=0..15
	if v != want {
		t.Errorf("result %d, want %d", v, want)
	}
}
