package transform

import (
	"slices"
	"testing"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/vm"
)

// buildSquares builds: for i in [0,n): out[i] = i*i; plus a tail read.
func buildSquares(n int64) *ir.Module {
	m := ir.NewModule("squares")
	out := m.NewGlobal("out", n*8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(n), func(iv *ir.Instr) {
		slot := b.Add(b.Global(out), b.Mul(b.Ld(iv), b.I(8)))
		b.Store(b.Mul(b.Ld(iv), b.Ld(iv)), slot, 8)
	})
	acc := b.Local("acc")
	b.St(b.I(0), acc)
	b.For("j", b.I(0), b.I(n), func(jv *ir.Instr) {
		slot := b.Add(b.Global(out), b.Mul(b.Ld(jv), b.I(8)))
		b.St(b.Add(b.Ld(acc), b.Load(slot, 8)), acc)
	})
	b.Ret(b.Ld(acc))
	ir.PromoteAllocas(f)
	return m
}

// buildTwoStores builds two independent outlinable loops:
// for i in [0,n): a[i] = i*i; for j in [0,n): b[j] = j+1; return a[n-1]+b[n-1].
func buildTwoStores(n int64) *ir.Module {
	m := ir.NewModule("twostores")
	a := m.NewGlobal("a", n*8)
	c := m.NewGlobal("b", n*8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(n), func(iv *ir.Instr) {
		b.Store(b.Mul(b.Ld(iv), b.Ld(iv)), b.Add(b.Global(a), b.Mul(b.Ld(iv), b.I(8))), 8)
	})
	b.For("j", b.I(0), b.I(n), func(jv *ir.Instr) {
		b.Store(b.Add(b.Ld(jv), b.I(1)), b.Add(b.Global(c), b.Mul(b.Ld(jv), b.I(8))), 8)
	})
	last := b.I((n - 1) * 8)
	b.Ret(b.Add(b.Load(b.Add(b.Global(a), last), 8), b.Load(b.Add(b.Global(c), last), 8)))
	ir.PromoteAllocas(f)
	return m
}

// topLoops returns main's depth-1 loops in block order.
func topLoops(t *testing.T, m *ir.Module) []*ir.Loop {
	t.Helper()
	f := m.Funcs["main"]
	f.Recompute()
	var top []*ir.Loop
	for _, l := range ir.FindLoops(f, ir.BuildDomTree(f)) {
		if l.Depth == 1 {
			top = append(top, l)
		}
	}
	if len(top) == 0 {
		t.Fatal("no loop")
	}
	slices.SortFunc(top, func(a, b *ir.Loop) int { return a.Header.Index - b.Header.Index })
	return top
}

// firstLoop returns main's first depth-1 loop in block order.
func firstLoop(t *testing.T, m *ir.Module) *ir.Loop {
	t.Helper()
	return topLoops(t, m)[0]
}

// run interprets m from a fresh address space.
func run(t *testing.T, m *ir.Module, args ...uint64) uint64 {
	t.Helper()
	v, err := interp.New(m, vm.NewAddressSpace()).Run(args...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestOutlineSequentialEquivalence(t *testing.T) {
	const n = 32
	want := run(t, buildSquares(n))
	m := buildSquares(n)
	r, err := Outline(m, firstLoop(t, m))
	if err != nil {
		t.Fatalf("Outline: %v", err)
	}
	if r.RegionFn == nil || r.IterFn == nil {
		t.Fatal("region incomplete")
	}
	if got := run(t, m); got != want {
		t.Errorf("outlined result %d, want %d", got, want)
	}
}

func TestOutlineRejectsEarlyExit(t *testing.T) {
	m := ir.NewModule("brk")
	g := m.NewGlobal("g", 8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	// Hand-built loop with a break.
	header := b.NewBlock("head")
	body := b.NewBlock("body")
	brk := b.NewBlock("brk")
	exit := b.NewBlock("exit")
	zero, one, limit := b.I(0), b.I(1), b.I(10)
	b.Br(header)
	b.SetBlock(header)
	phi := b.Phi(ir.I64)
	b.CondBr(b.SLt(phi, limit), body, exit)
	b.SetBlock(body)
	v := b.Load(b.Global(g), 8)
	next := b.Add(phi, one)
	b.CondBr(b.Eq(v, b.I(7)), brk, header)
	b.SetBlock(brk)
	b.Br(exit)
	b.SetBlock(exit)
	b.Ret(zero)
	ir.AddIncoming(phi, zero, f.Entry())
	ir.AddIncoming(phi, next, body)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	l := firstLoop(t, m)
	if ir.FindInductionVar(l) == nil {
		t.Fatal("the loop has no canonical IV; the test would not reach the exit check")
	}
	if _, err := Outline(m, l); err == nil {
		t.Error("Outline accepted a loop with an early exit")
	}
}

// TestOutlineCapturesLiveIns: values computed before the loop and used
// inside must arrive as region/iter parameters.
func TestOutlineCapturesLiveIns(t *testing.T) {
	m := ir.NewModule("live")
	out := m.NewGlobal("out", 64*8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	scale := b.Mul(b.I(3), b.I(7)) // live-in scalar
	base := b.Global(out)          // live-in pointer
	b.For("i", b.I(0), b.I(64), func(iv *ir.Instr) {
		slot := b.Add(base, b.Mul(b.Ld(iv), b.I(8)))
		b.Store(b.Mul(b.Ld(iv), scale), slot, 8)
	})
	b.Ret(b.Load(b.Add(b.Global(out), b.I(63*8)), 8))
	ir.PromoteAllocas(f)
	r, err := Outline(m, firstLoop(t, m))
	if err != nil {
		t.Fatal(err)
	}
	// Param counts: iter has i + live-ins, region has lo, hi + live-ins.
	live := len(r.IterFn.Params) - 1
	if live < 2 {
		t.Errorf("live-ins = %d, want >= 2 (scale + base)", live)
	}
	if got := len(r.RegionFn.Params); got != 2+live {
		t.Errorf("region params = %d, want %d", got, 2+live)
	}
	if v := run(t, m); v != 63*21 {
		t.Errorf("result %d, want %d", v, 63*21)
	}
}

// buildIVAfterLoop builds main(n): for i in [n, 10): g = i; return i. The
// induction variable is read after the loop.
func buildIVAfterLoop() *ir.Module {
	m := ir.NewModule("ivout")
	g := m.NewGlobal("g", 8)
	f := m.NewFunc("main", ir.I64)
	n := f.NewParam("n", ir.I64)
	b := ir.NewBuilder(f)
	var counter *ir.Instr
	b.For("i", n, b.I(10), func(iv *ir.Instr) {
		counter = iv
		b.Store(b.Ld(iv), b.Global(g), 8)
	})
	b.Ret(b.Ld(counter))
	ir.PromoteAllocas(f)
	return m
}

// TestOutlineReplacesIVUsesAfterLoop: a use of the induction variable after
// the loop reads its exit value, max(init, limit): the limit when the loop
// ran, the initial value when it ran no iteration.
func TestOutlineReplacesIVUsesAfterLoop(t *testing.T) {
	m := buildIVAfterLoop()
	if _, err := Outline(m, firstLoop(t, m)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint64{0, 9, 10, 25} {
		want := max(n, 10)
		if v := run(t, m, n); v != want {
			t.Errorf("n=%d: post-loop IV use = %d, want %d", n, v, want)
		}
	}
}

// TestOutlineRejectsLiveOut: a loop-computed non-IV value used after the
// loop cannot be outlined, and the rejected loop is left as it was.
func TestOutlineRejectsLiveOut(t *testing.T) {
	m := ir.NewModule("lo")
	g := m.NewGlobal("g", 8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	var last ir.Value
	b.For("i", b.I(0), b.I(5), func(iv *ir.Instr) {
		last = b.Mul(b.Ld(iv), b.I(2))
		b.Store(last, b.Global(g), 8)
	})
	b.Ret(last) // live-out!
	ir.PromoteAllocas(f)
	before := ir.FormatModule(m)
	if _, err := Outline(m, firstLoop(t, m)); err == nil {
		t.Error("live-out accepted")
	}
	if after := ir.FormatModule(m); after != before {
		t.Errorf("a rejected outline changed the module:\n%s\nwant:\n%s", after, before)
	}
}

// outlineAll outlines every top-level loop of m's main in block order and
// returns the region names.
func outlineAll(t *testing.T, m *ir.Module) []string {
	t.Helper()
	var names []string
	for _, l := range topLoops(t, m) {
		r, err := Outline(m, l)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, r.RegionFn.Name, r.IterFn.Name)
	}
	return names
}

// TestRegionNamesUniqueInModule: a module that already holds outline-shaped
// names (textual IR may) outlines around them, and every name is new.
func TestRegionNamesUniqueInModule(t *testing.T) {
	const n = 8
	want := run(t, buildTwoStores(n))
	m := buildTwoStores(n)
	for _, name := range []string{"__region_main_1", "__iter_main_3"} {
		b := ir.NewBuilder(m.NewFunc(name, ir.I64))
		b.Ret(b.I(0))
	}
	names := outlineAll(t, m)
	seen := map[string]bool{"__region_main_1": true, "__iter_main_3": true}
	for _, name := range names {
		if seen[name] {
			t.Errorf("outlined name %s is not unique in the module (names %v)", name, names)
		}
		seen[name] = true
	}
	if got := run(t, m); got != want {
		t.Errorf("outlined result %d, want %d", got, want)
	}
}

// TestRegionNamesRepeatAcrossBuilds: two builds of one module outline to
// the same names, whatever was outlined before in this process.
func TestRegionNamesRepeatAcrossBuilds(t *testing.T) {
	first := outlineAll(t, buildTwoStores(8))
	second := outlineAll(t, buildTwoStores(8))
	if !slices.Equal(first, second) {
		t.Errorf("two builds of one module outlined to %v and %v", first, second)
	}
	if want := []string{"__region_main_1", "__iter_main_1", "__region_main_2", "__iter_main_2"}; !slices.Equal(first, want) {
		t.Errorf("names %v, want %v", first, want)
	}
}
