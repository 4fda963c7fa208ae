package interp

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"privateer/internal/ir"
	"privateer/internal/vm"
)

// run builds a module with build, verifies it, promotes allocas, and
// executes main, returning the result, the interpreter and any error.
func run(t *testing.T, build func(m *ir.Module, b *ir.Builder)) (uint64, *Interp, error) {
	t.Helper()
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	build(m, b)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("post-mem2reg Verify: %v", err)
	}
	it := New(m, vm.NewAddressSpace())
	v, err := it.Run()
	return v, it, err
}

func TestArithmetic(t *testing.T) {
	v, _, err := run(t, func(m *ir.Module, b *ir.Builder) {
		x := b.Mul(b.Add(b.I(3), b.I(4)), b.I(5)) // 35
		y := b.SDiv(x, b.I(2))                    // 17
		z := b.Sub(y, b.SRem(b.I(7), b.I(3)))     // 16
		b.Ret(z)
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 16 {
		t.Errorf("got %d want 16", v)
	}
}

func TestSignedOps(t *testing.T) {
	v, _, err := run(t, func(m *ir.Module, b *ir.Builder) {
		neg := b.Sub(b.I(0), b.I(10)) // -10
		q := b.SDiv(neg, b.I(3))      // -3
		lt := b.SLt(neg, b.I(0))      // 1
		sh := b.AShr(neg, b.I(1))     // -5
		b.Ret(b.Add(b.Add(q, lt), sh))
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(v) != -3+1-5 {
		t.Errorf("got %d want -7", int64(v))
	}
}

func TestFloatOps(t *testing.T) {
	v, _, err := run(t, func(m *ir.Module, b *ir.Builder) {
		x := b.FMul(b.Flt(1.5), b.Flt(4.0))            // 6.0
		y := b.FDiv(b.FAdd(x, b.Flt(2.0)), b.Flt(2.0)) // 4.0
		r := b.Builtin("sqrt", ir.F64, y)              // 2.0
		b.Ret(b.FPToSI(r))
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("got %d want 2", v)
	}
}

func TestLoopSum(t *testing.T) {
	v, _, err := run(t, func(m *ir.Module, b *ir.Builder) {
		acc := b.Local("acc")
		b.St(b.I(0), acc)
		b.For("i", b.I(0), b.I(101), func(iv *ir.Instr) {
			b.St(b.Add(b.Ld(acc), b.Ld(iv)), acc)
		})
		b.Ret(b.Ld(acc))
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 5050 {
		t.Errorf("got %d want 5050", v)
	}
}

func TestGlobalsAndMemory(t *testing.T) {
	v, _, err := run(t, func(m *ir.Module, b *ir.Builder) {
		g := m.NewGlobal("table", 80)
		b.For("i", b.I(0), b.I(10), func(iv *ir.Instr) {
			slot := b.Add(b.Global(g), b.Mul(b.Ld(iv), b.I(8)))
			b.Store(b.Mul(b.Ld(iv), b.Ld(iv)), slot, 8)
		})
		// Sum the table.
		acc := b.Local("acc")
		b.St(b.I(0), acc)
		b.For("j", b.I(0), b.I(10), func(iv *ir.Instr) {
			slot := b.Add(b.Global(g), b.Mul(b.Ld(iv), b.I(8)))
			b.St(b.Add(b.Ld(acc), b.Load(slot, 8)), acc)
		})
		b.Ret(b.Ld(acc))
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 285 { // sum of squares 0..9
		t.Errorf("got %d want 285", v)
	}
}

func TestGlobalInitialContents(t *testing.T) {
	v, _, err := run(t, func(m *ir.Module, b *ir.Builder) {
		g := m.NewGlobal("data", 16)
		g.Init = []byte{42} // byte 0 = 42, rest zero
		b.Ret(b.Load(b.Global(g), 1))
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("got %d want 42", v)
	}
}

func TestMallocFreeLinkedList(t *testing.T) {
	// Build a 5-node list, sum its payloads, free it.
	v, it, err := run(t, func(m *ir.Module, b *ir.Builder) {
		head := b.Local("head")
		b.St(b.P(0), head)
		b.For("i", b.I(1), b.I(6), func(iv *ir.Instr) {
			n := b.Malloc("node", b.I(16))
			b.Store(b.Ld(iv), n, 8)                   // payload
			b.Store(b.LdP(head), b.Add(n, b.I(8)), 8) // next
			b.St(n, head)
		})
		acc := b.Local("acc")
		b.St(b.I(0), acc)
		cur := b.Local("cur")
		b.St(b.LdP(head), cur)
		b.While(func() ir.Value { return b.Ne(b.LdP(cur), b.P(0)) }, func() {
			b.St(b.Add(b.Ld(acc), b.Load(b.LdP(cur), 8)), acc)
			next := b.LoadPtr(b.Add(b.LdP(cur), b.I(8)))
			b.Free(b.LdP(cur))
			b.St(next, cur)
		})
		b.Ret(b.Ld(acc))
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 15 {
		t.Errorf("got %d want 15", v)
	}
	if live := it.AS.LiveObjects(ir.HeapSystem); live != 0 {
		t.Errorf("leaked %d objects", live)
	}
}

func TestCallsAndRecursion(t *testing.T) {
	m := ir.NewModule("t")
	fib := m.NewFunc("fib", ir.I64)
	n := fib.NewParam("n", ir.I64)
	{
		b := ir.NewBuilder(fib)
		rec := b.NewBlock("rec")
		base := b.NewBlock("base")
		b.CondBr(b.SLt(n, b.I(2)), base, rec)
		b.SetBlock(base)
		b.Ret(n)
		b.SetBlock(rec)
		a := b.Call(fib, b.Sub(n, b.I(1)))
		c := b.Call(fib, b.Sub(n, b.I(2)))
		b.Ret(b.Add(a, c))
	}
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.Ret(b.Call(fib, b.I(15)))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	it := New(m, vm.NewAddressSpace())
	v, err := it.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != 610 {
		t.Errorf("fib(15) = %d, want 610", v)
	}
}

func TestAllocaFreedOnReturn(t *testing.T) {
	m := ir.NewModule("t")
	helper := m.NewFunc("helper", ir.I64)
	{
		b := ir.NewBuilder(helper)
		buf := b.Alloca("buf", 256)
		b.Store(b.I(7), buf, 8)
		b.Ret(b.Load(buf, 8))
	}
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	acc := b.Local("acc")
	b.St(b.I(0), acc)
	b.For("i", b.I(0), b.I(10), func(_ *ir.Instr) {
		b.St(b.Add(b.Ld(acc), b.Call(helper)), acc)
	})
	b.Ret(b.Ld(acc))
	ir.PromoteAllocas(f)
	it := New(m, vm.NewAddressSpace())
	v, err := it.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != 70 {
		t.Errorf("got %d want 70", v)
	}
	if live := it.AS.LiveObjects(ir.HeapSystem); live != 0 {
		t.Errorf("stack allocations leaked: %d", live)
	}
}

func TestPrintFormatting(t *testing.T) {
	_, it, err := run(t, func(m *ir.Module, b *ir.Builder) {
		b.Print("i=%d f=%g pct=%%\n", b.I(-3), b.Flt(2.5))
		b.Ret(b.I(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	got := it.Out.String()
	want := "i=-3 f=2.5 pct=%\n"
	if got != want {
		t.Errorf("print output %q, want %q", got, want)
	}
}

// TestPrintMatchesFmt: every print verb renders its argument as fmt renders
// the verb it stands for, at the values where float and integer formatting
// differ most, and a hook that declines the text still leaves it in Out.
func TestPrintMatchesFmt(t *testing.T) {
	words := []uint64{0, math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)), math.Float64bits(math.NaN()), math.MaxInt64,
		1 << 63, math.Float64bits(1e21), math.Float64bits(1e-7), 'A', math.MaxUint64}
	verbs := map[string]func(w uint64) string{
		"%d": func(w uint64) string { return fmt.Sprintf("%d", int64(w)) },
		"%u": func(w uint64) string { return fmt.Sprintf("%d", w) },
		"%x": func(w uint64) string { return fmt.Sprintf("%x", w) },
		"%f": func(w uint64) string { return fmt.Sprintf("%.6f", math.Float64frombits(w)) },
		"%g": func(w uint64) string { return fmt.Sprintf("%g", math.Float64frombits(w)) },
		"%c": func(w uint64) string { return string([]byte{byte(w)}) },
	}
	var want []string
	m := ir.NewModule("t")
	b := ir.NewBuilder(m.NewFunc("main", ir.I64))
	for verb, render := range verbs {
		for _, w := range words {
			b.Print("<"+verb+"|%%|%q|", b.I(int64(w)))
			want = append(want, "<"+render(w)+"|%|%q|")
		}
	}
	b.Print("%d and none %d%", b.I(7))
	want = append(want, "7 and none 0%")
	b.Ret(b.I(0))
	it := New(m, vm.NewAddressSpace())
	var got []string
	it.Hooks.OnPrint = func(in *ir.Instr, text string) bool {
		got = append(got, text)
		return false
	}
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("prints %q, fmt renders %q", got, want)
	}
	if out := it.Out.String(); out != strings.Join(want, "") {
		t.Errorf("Out holds %q, want every declined print %q", out, strings.Join(want, ""))
	}
}

func TestPrintHookIntercepts(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.Print("hello %d\n", b.I(1))
	b.Ret(b.I(0))
	it := New(m, vm.NewAddressSpace())
	var captured []string
	it.Hooks.OnPrint = func(in *ir.Instr, text string) bool {
		captured = append(captured, text)
		return true
	}
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	if len(captured) != 1 || captured[0] != "hello 1\n" {
		t.Errorf("captured %v", captured)
	}
	if it.Out.Len() != 0 {
		t.Errorf("handled print still reached Out: %q", it.Out.String())
	}
}

func TestHAllocRoutesToHeap(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Ptr)
	b := ir.NewBuilder(f)
	p := b.HAlloc("obj", b.I(64), ir.HeapShortLived)
	b.Store(b.I(9), p, 8)
	b.HDealloc(p, ir.HeapShortLived)
	b.Ret(p)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	it := New(m, vm.NewAddressSpace())
	addr, err := it.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ir.HeapOf(addr) != ir.HeapShortLived {
		t.Errorf("h_alloc returned %s address", ir.HeapOf(addr))
	}
	if it.AS.LiveObjects(ir.HeapShortLived) != 0 {
		t.Error("h_dealloc did not free")
	}
}

func TestDivisionByZeroTraps(t *testing.T) {
	_, _, err := run(t, func(m *ir.Module, b *ir.Builder) {
		b.Ret(b.SDiv(b.I(1), b.I(0)))
	})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v, want division by zero", err)
	}
}

func TestStepLimit(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	loop := b.NewBlock("loop")
	b.Br(loop)
	b.SetBlock(loop)
	b.Br(loop)
	it := New(m, vm.NewAddressSpace())
	it.StepLimit = 1000
	if _, err := it.Run(); err == nil {
		t.Error("infinite loop not stopped by step limit")
	}
}

func TestMisspecErrorClassification(t *testing.T) {
	err := error(&MisspecError{Reason: "test"})
	if !IsMisspec(err) {
		t.Error("IsMisspec failed on MisspecError")
	}
	wrapped := fmt.Errorf("outer: %w", err)
	if !IsMisspec(wrapped) {
		t.Error("IsMisspec failed on wrapped MisspecError")
	}
	if IsMisspec(nil) || IsMisspec(fmt.Errorf("plain")) {
		t.Error("IsMisspec false positive")
	}
}

func TestCheckHeapDefaultValidatesTag(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	good := b.HAlloc("g", b.I(8), ir.HeapPrivate)
	b.CheckHeap(good, ir.HeapPrivate) // passes
	bad := b.HAlloc("b", b.I(8), ir.HeapReadOnly)
	b.CheckHeap(bad, ir.HeapPrivate) // must misspeculate
	b.Ret()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	it := New(m, vm.NewAddressSpace())
	_, err := it.Run()
	if !IsMisspec(err) {
		t.Errorf("err = %v, want misspeculation", err)
	}
}

func TestPredictDefault(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	b.Predict(b.I(5), b.I(5)) // passes
	b.Predict(b.I(5), b.I(6)) // fails
	b.Ret()
	it := New(m, vm.NewAddressSpace())
	_, err := it.Run()
	if !IsMisspec(err) {
		t.Errorf("err = %v, want misspeculation", err)
	}
}

func TestMemSetAndMemCopy(t *testing.T) {
	v, _, err := run(t, func(m *ir.Module, b *ir.Builder) {
		src := b.Alloca("src", 32)
		dst := b.Alloca("dst", 32)
		b.MemSet(src, b.I(32), b.I(0x5a))
		b.MemCopy(dst, src, b.I(32))
		b.Ret(b.Load(b.Add(dst, b.I(31)), 1))
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x5a {
		t.Errorf("got %#x want 0x5a", v)
	}
}

func TestHookObservesLoadsAndStores(t *testing.T) {
	m := ir.NewModule("t")
	g := m.NewGlobal("g", 8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	addr := b.Global(g)
	b.Store(b.I(1), addr, 8)
	b.Ret(b.Load(addr, 8))
	it := New(m, vm.NewAddressSpace())
	loads, stores := 0, 0
	it.Hooks.OnLoad = func(fr *Frame, in *ir.Instr, a uint64, s int64) { loads++ }
	it.Hooks.OnStore = func(fr *Frame, in *ir.Instr, a uint64, s int64) { stores++ }
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	if loads != 1 || stores != 1 {
		t.Errorf("loads=%d stores=%d, want 1/1", loads, stores)
	}
}
