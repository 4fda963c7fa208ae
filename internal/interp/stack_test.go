package interp

import (
	"testing"

	"privateer/internal/ir"
	"privateer/internal/vm"
)

// buildFib returns a module whose fib(n) is the doubly recursive Fibonacci:
// two calls per activation, arguments and a partial sum live across them.
func buildFib() (*ir.Module, *ir.Function) {
	m := ir.NewModule("fib")
	fib := m.NewFunc("fib", ir.I64)
	n := fib.NewParam("n", ir.I64)
	b := ir.NewBuilder(fib)
	rec, base := b.NewBlock("rec"), b.NewBlock("base")
	b.CondBr(b.SLt(n, b.I(2)), base, rec)
	b.SetBlock(base)
	b.Ret(n)
	b.SetBlock(rec)
	a := b.Call(fib, b.Sub(n, b.I(1)))
	c := b.Call(fib, b.Sub(n, b.I(2)))
	b.Ret(b.Add(a, c))
	main := m.NewFunc("main", ir.I64)
	mb := ir.NewBuilder(main)
	mb.Ret(mb.Call(fib, mb.I(15)))
	return m, fib
}

// A warmed call allocates nothing: frames and value arrays come from the
// interpreter's frame stack, the argument staging included.
func TestWarmedCallAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, treeWalk := range []bool{false, true} {
		m, fib := buildFib()
		it := NewExecutor(treeWalk, m, vm.NewAddressSpace())
		args := []uint64{12}
		call := func() {
			if v, err := it.Call(fib, args...); err != nil || v != 144 {
				t.Fatalf("fib(12) = %d, %v", v, err)
			}
		}
		call() // warm: decode, frames, slabs
		if allocs := testing.AllocsPerRun(10, call); allocs != 0 {
			t.Errorf("treeWalk=%v: %v allocs per warmed fib(12), want 0", treeWalk, allocs)
		}
	}
}

// buildDown returns a module whose down(n) recurses n deep with three
// values computed before the call and consumed after it, so every outer
// frame must still read its own memory once the callees below it (which
// grow the stack by whole slabs) have returned.
func buildDown(depth int64) *ir.Module {
	m := ir.NewModule("down")
	down := m.NewFunc("down", ir.I64)
	n := down.NewParam("n", ir.I64)
	b := ir.NewBuilder(down)
	rec, base := b.NewBlock("rec"), b.NewBlock("base")
	x := b.Add(b.Mul(n, b.I(3)), b.I(1))
	y := b.Xor(x, b.I(0x5a5a))
	z := b.Shl(n, b.I(7))
	b.CondBr(b.Eq(n, b.I(0)), base, rec)
	b.SetBlock(base)
	b.Ret(b.I(7))
	b.SetBlock(rec)
	r := b.Call(down, b.Sub(n, b.I(1)))
	b.Ret(b.Add(b.Mul(r, b.I(31)), b.Add(b.Xor(x, y), b.Add(z, n))))
	main := m.NewFunc("main", ir.I64)
	mb := ir.NewBuilder(main)
	mb.Ret(mb.Call(down, mb.I(depth)))
	return m
}

func downWant(n uint64) uint64 {
	if n == 0 {
		return 7
	}
	x := n*3 + 1
	return downWant(n-1)*31 + ((x ^ (x ^ 0x5a5a)) + (n<<7 + n))
}

func TestDeepRecursionAcrossSlabs(t *testing.T) {
	const depth = 1500
	fast := New(buildDown(depth), vm.NewAddressSpace())
	slow := NewReference(buildDown(depth), vm.NewAddressSpace())
	want := downWant(depth)
	for name, it := range map[string]*Interp{"decoded": fast, "tree-walk": slow} {
		// Twice: the second run carves from slabs the first one left behind.
		for run := 0; run < 2; run++ {
			v, err := it.Run()
			if err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			if v != want {
				t.Errorf("%s run %d: down(%d) = %#x, want %#x", name, run, depth, v, want)
			}
		}
		if n := len(it.stack.slabs); n < 3 {
			t.Errorf("%s: recursion used %d slabs; the test must cross slab boundaries", name, n)
		}
		if it.stack.live != 0 || it.stack.cur != 0 || it.stack.top != 0 {
			t.Errorf("%s: stack not empty after return: %+v", name, it.stack)
		}
	}
	if fast.Steps != slow.Steps {
		t.Errorf("step count: decoded=%d tree-walk=%d", fast.Steps, slow.Steps)
	}
}

func TestMaxDepthErrorText(t *testing.T) {
	for _, treeWalk := range []bool{false, true} {
		it := NewExecutor(treeWalk, buildDown(100), vm.NewAddressSpace())
		it.MaxDepth = 8
		_, err := it.Run()
		if err == nil || err.Error() != "interp: call depth 8 exceeded in down" {
			t.Errorf("treeWalk=%v: err = %v", treeWalk, err)
		}
		if it.stack.live != 0 {
			t.Errorf("treeWalk=%v: %d frames live after the error unwound", treeWalk, it.stack.live)
		}
	}
}

// buildTrap returns main(n) -> a(n) -> b(n) -> c(n), where c misspeculates
// when n is 1 and otherwise returns n*n+5 through sums at every level.
func buildTrap() *ir.Module {
	m := ir.NewModule("trap")
	c := m.NewFunc("c", ir.I64)
	{
		n := c.NewParam("n", ir.I64)
		b := ir.NewBuilder(c)
		b.If(b.Eq(n, b.I(1)), func() { b.Misspec() }, nil)
		b.Ret(b.Add(b.Mul(n, n), b.I(5)))
	}
	prev := c
	for _, name := range []string{"b", "a"} {
		f := m.NewFunc(name, ir.I64)
		n := f.NewParam("n", ir.I64)
		b := ir.NewBuilder(f)
		k := b.Add(n, b.I(100))
		b.Ret(b.Add(b.Call(prev, n), k))
		prev = f
	}
	main := m.NewFunc("main", ir.I64)
	n := main.NewParam("n", ir.I64)
	b := ir.NewBuilder(main)
	b.Print("in %d\n", n)
	b.Ret(b.Call(prev, n))
	return m
}

// A misspeculation three calls deep unwinds every frame; Recycle then
// leaves an empty stack, and the recycled interpreter's next run is
// bit-identical to a fresh interpreter's.
func TestRecycleAfterDeepMisspec(t *testing.T) {
	m := buildTrap()
	it := New(m, vm.NewAddressSpace())
	if _, err := it.Run(1); !IsMisspec(err) {
		t.Fatalf("Run(1): err = %v, want a misspeculation", err)
	}
	it.Recycle(vm.NewAddressSpace())
	if s := &it.stack; s.live != 0 || s.cur != 0 || s.top != 0 {
		t.Fatalf("stack after Recycle: live=%d cur=%d top=%d, want empty", s.live, s.cur, s.top)
	}
	got, err := it.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewShared(it.Program(), vm.NewAddressSpace())
	want, err := fresh.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || want != 6*6+5+2*106 {
		t.Errorf("recycled run = %d, fresh run = %d, want %d", got, want, 6*6+5+2*106)
	}
	if it.Steps != fresh.Steps || it.Out.String() != fresh.Out.String() {
		t.Errorf("recycled run diverged: steps %d/%d, out %q/%q",
			it.Steps, fresh.Steps, it.Out.String(), fresh.Out.String())
	}
}

// A decode that went stale between two invocations on one shared Program is
// caught: the per-interpreter cache trusts a decoded function for one
// outermost activation only.
func TestStaleDecodeCaughtBetweenRuns(t *testing.T) {
	m := ir.NewModule("stale")
	leaf := m.NewFunc("leaf", ir.I64)
	lb := ir.NewBuilder(leaf)
	lb.Ret(lb.I(1))
	main := m.NewFunc("main", ir.I64)
	mb := ir.NewBuilder(main)
	mb.Ret(mb.Add(mb.Call(leaf), mb.Call(leaf)))

	prog := SharedProgram(m)
	same := NewShared(prog, vm.NewAddressSpace())
	if v, err := same.Run(); err != nil || v != 2 {
		t.Fatalf("first run = %d, %v; want 2", v, err)
	}

	// Rewrite the callee's body; main, the outermost function, is untouched.
	leaf.Entry().Instrs = nil
	lb.Ret(lb.Add(lb.I(20), lb.I(1)))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}

	for name, it := range map[string]*Interp{
		"same interpreter":  same,
		"fresh interpreter": NewShared(prog, vm.NewAddressSpace()),
	} {
		if v, err := it.Run(); err != nil || v != 42 {
			t.Errorf("%s after mutation = %d, %v; want 42 (the new body)", name, v, err)
		}
	}
}
