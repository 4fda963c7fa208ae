package ir

import (
	"strings"
	"testing"
)

func TestHeapTagLayout(t *testing.T) {
	// Private (001) and shadow (101) must differ in exactly one bit.
	diff := HeapPrivate.Tag() ^ HeapShadow.Tag()
	if diff == 0 || diff&(diff-1) != 0 {
		t.Fatalf("private/shadow tags differ in %b bits, want one bit", diff)
	}
	if ShadowAddr(HeapPrivate.Base()) != HeapShadow.Base() {
		t.Fatalf("ShadowAddr(private base) = %#x, want shadow base %#x",
			ShadowAddr(HeapPrivate.Base()), HeapShadow.Base())
	}
	// Tags must be unique across heaps.
	seen := map[uint64]HeapKind{}
	for h := HeapKind(0); h < NumHeaps; h++ {
		if prev, dup := seen[h.Tag()]; dup {
			t.Fatalf("heaps %s and %s share tag %d", prev, h, h.Tag())
		}
		seen[h.Tag()] = h
	}
}

func TestHeapOfRoundTrip(t *testing.T) {
	for h := HeapKind(0); h < NumHeaps; h++ {
		addr := h.Base() + 12345
		if got := HeapOf(addr); got != h {
			t.Errorf("HeapOf(%s base + offset) = %s", h, got)
		}
		if got := TagOf(addr); got != h.Tag() {
			t.Errorf("TagOf(%s) = %d, want %d", h, got, h.Tag())
		}
	}
}

func TestBuilderProducesVerifiableModule(t *testing.T) {
	m := NewModule("test")
	g := m.NewGlobal("counter", 8)
	f := m.NewFunc("main", I64)
	b := NewBuilder(f)
	addr := b.Global(g)
	b.Store(b.I(5), addr, 8)
	v := b.Load(addr, 8)
	b.Ret(b.Add(v, b.I(2)))
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	b.I(1) // no terminator
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted block without terminator")
	}
}

func TestVerifyCatchesInteriorTerminator(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	b.Ret()
	b.I(1)
	b.Ret()
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted terminator in block interior")
	}
}

func TestVerifyCatchesCallArityMismatch(t *testing.T) {
	m := NewModule("bad")
	callee := m.NewFunc("callee", Void)
	callee.NewParam("x", I64)
	NewBuilder(callee).Ret()
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	b.Call(callee) // missing argument
	b.Ret()
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted arity mismatch")
	}
}

func TestVerifyCatchesVoidReturnWithValue(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	b.Ret(b.I(1))
	if err := Verify(m); err == nil {
		t.Fatal("Verify accepted value return from void function")
	}
}

// TestVerifyRejectsForeignOperand pins that an operand must belong to the
// function that uses it. Both executors index the frame by ValueID, so a
// value of another function — here other's 50th constant used in main, whose
// frame has three slots — read out of range and took the process down.
func TestVerifyRejectsForeignOperand(t *testing.T) {
	build := func(foreign func(other *Function, ob *Builder) Value) *Module {
		m := NewModule("bad")
		other := m.NewFunc("other", Void)
		ob := NewBuilder(other)
		v := foreign(other, ob)
		ob.Ret()
		b := NewBuilder(m.NewFunc("main", I64))
		b.Ret(b.Add(b.I(1), v))
		return m
	}
	err := Verify(build(func(_ *Function, ob *Builder) Value {
		var last Value
		for i := int64(0); i < 50; i++ {
			last = ob.I(i)
		}
		return last
	}))
	if err == nil || !strings.Contains(err.Error(), "defined in another function") {
		t.Errorf("instruction of another function: Verify = %v", err)
	}
	err = Verify(build(func(other *Function, _ *Builder) Value { return other.NewParam("p", I64) }))
	if err == nil || !strings.Contains(err.Error(), "parameter of another function") {
		t.Errorf("parameter of another function: Verify = %v", err)
	}
}

// buildDiamond builds entry -> {left,right} -> join and returns the blocks.
func buildDiamond(t *testing.T) (*Function, *Block, *Block, *Block, *Block) {
	t.Helper()
	m := NewModule("diamond")
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	left := b.NewBlock("left")
	right := b.NewBlock("right")
	join := b.NewBlock("join")
	cond := b.I(1)
	b.CondBr(cond, left, right)
	b.SetBlock(left)
	b.Br(join)
	b.SetBlock(right)
	b.Br(join)
	b.SetBlock(join)
	b.Ret()
	f.Recompute()
	return f, f.Entry(), left, right, join
}

func TestDomTreeDiamond(t *testing.T) {
	f, entry, left, right, join := buildDiamond(t)
	dt := BuildDomTree(f)
	if dt.IDom(entry) != nil {
		t.Errorf("entry idom = %v, want nil", dt.IDom(entry))
	}
	for _, b := range []*Block{left, right, join} {
		if dt.IDom(b) != entry {
			t.Errorf("idom(%s) = %v, want entry", b.Name, dt.IDom(b))
		}
	}
	if !dt.Dominates(entry, join) {
		t.Error("entry should dominate join")
	}
	if dt.Dominates(left, join) {
		t.Error("left must not dominate join")
	}
	if !dt.Dominates(join, join) {
		t.Error("dominance must be reflexive")
	}
}

func TestDominanceFrontierDiamond(t *testing.T) {
	f, _, left, right, join := buildDiamond(t)
	dt := BuildDomTree(f)
	df := dt.DominanceFrontiers()
	for _, b := range []*Block{left, right} {
		if len(df[b.Index]) != 1 || df[b.Index][0] != join {
			t.Errorf("DF(%s) = %v, want [join]", b.Name, df[b.Index])
		}
	}
	if len(df[join.Index]) != 0 {
		t.Errorf("DF(join) = %v, want empty", df[join.Index])
	}
}

// buildCountedLoop emits `for (i=0; i<n; i++) body` with the builder DSL and
// promotes allocas, returning the function.
func buildCountedLoop(t *testing.T, n int64) *Function {
	t.Helper()
	m := NewModule("loop")
	g := m.NewGlobal("sum", 8)
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	b.For("i", b.I(0), b.I(n), func(iv *Instr) {
		addr := b.Global(g)
		b.Store(b.Add(b.Load(addr, 8), b.Ld(iv)), addr, 8)
	})
	b.Ret()
	if err := Verify(m); err != nil {
		t.Fatalf("pre-mem2reg Verify: %v", err)
	}
	PromoteAllocas(f)
	if err := Verify(m); err != nil {
		t.Fatalf("post-mem2reg Verify: %v", err)
	}
	return f
}

func TestMem2RegRemovesScalarAllocas(t *testing.T) {
	f := buildCountedLoop(t, 10)
	f.Instrs(func(in *Instr) {
		if in.Op == OpAlloca {
			t.Errorf("alloca %s survived mem2reg", in.Name)
		}
	})
	// The loop counter must now be a phi in some block.
	phis := 0
	f.Instrs(func(in *Instr) {
		if in.Op == OpPhi {
			phis++
		}
	})
	if phis == 0 {
		t.Fatal("no phi created by mem2reg")
	}
}

func TestMem2RegKeepsEscapingAllocas(t *testing.T) {
	m := NewModule("escape")
	callee := m.NewFunc("use", Void)
	callee.NewParam("p", Ptr)
	NewBuilder(callee).Ret()
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	arr := b.Alloca("arr", 64) // array: not promotable (size != 8)
	esc := b.Local("esc")
	b.St(b.I(1), esc)
	b.Call(callee, esc) // address escapes
	b.Store(b.I(2), arr, 8)
	b.Ret()
	PromoteAllocas(f)
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	var kept []string
	f.Instrs(func(in *Instr) {
		if in.Op == OpAlloca {
			kept = append(kept, in.Name)
		}
	})
	if len(kept) != 2 {
		t.Fatalf("kept allocas %v, want [arr esc] in some order", kept)
	}
}

func TestFindLoopsAndInductionVar(t *testing.T) {
	f := buildCountedLoop(t, 100)
	f.Recompute()
	dt := BuildDomTree(f)
	loops := FindLoops(f, dt)
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Depth != 1 || l.Parent != nil {
		t.Errorf("loop depth=%d parent=%v, want depth 1 no parent", l.Depth, l.Parent)
	}
	iv := FindInductionVar(l)
	if iv == nil {
		t.Fatal("canonical induction variable not recognized")
	}
	if iv.Phi.Op != OpPhi {
		t.Errorf("IV is %s, want phi", iv.Phi.Op)
	}
	lim, isInstr := iv.Limit.(*Instr)
	if !isInstr || lim.Op != OpConst || lim.Const != 100 {
		t.Errorf("limit = %v, want const 100", iv.Limit)
	}
	init, isInstr := iv.Init.(*Instr)
	if !isInstr || init.Op != OpConst || init.Const != 0 {
		t.Errorf("init = %v, want const 0", iv.Init)
	}
}

func TestFindLoopsNested(t *testing.T) {
	m := NewModule("nest")
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	g := m.NewGlobal("acc", 8)
	b.For("i", b.I(0), b.I(4), func(_ *Instr) {
		b.For("j", b.I(0), b.I(4), func(_ *Instr) {
			addr := b.Global(g)
			b.Store(b.Add(b.Load(addr, 8), b.I(1)), addr, 8)
		})
	})
	b.Ret()
	PromoteAllocas(f)
	f.Recompute()
	dt := BuildDomTree(f)
	loops := FindLoops(f, dt)
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	var outer, inner *Loop
	for _, l := range loops {
		if l.Parent == nil {
			outer = l
		} else {
			inner = l
		}
	}
	if outer == nil || inner == nil {
		t.Fatal("nesting not resolved")
	}
	if inner.Parent != outer || inner.Depth != 2 {
		t.Errorf("inner parent/depth wrong: %v / %d", inner.Parent, inner.Depth)
	}
	if !outer.Contains(inner.Header) {
		t.Error("outer loop must contain inner header")
	}
	if len(outer.Children) != 1 || outer.Children[0] != inner {
		t.Errorf("outer children = %v", outer.Children)
	}
}

func TestWhileAndIfLowering(t *testing.T) {
	m := NewModule("ctl")
	g := m.NewGlobal("out", 8)
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	n := b.Local("n")
	b.St(b.I(10), n)
	b.While(func() Value { return b.SGt(b.Ld(n), b.I(0)) }, func() {
		b.If(b.Eq(b.SRem(b.Ld(n), b.I(2)), b.I(0)), func() {
			addr := b.Global(g)
			b.Store(b.Add(b.Load(addr, 8), b.Ld(n)), addr, 8)
		}, nil)
		b.St(b.Sub(b.Ld(n), b.I(1)), n)
	})
	b.Ret()
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	PromoteAllocas(f)
	if err := Verify(m); err != nil {
		t.Fatalf("post-mem2reg Verify: %v", err)
	}
	f.Recompute()
	dt := BuildDomTree(f)
	if n := len(FindLoops(f, dt)); n != 1 {
		t.Fatalf("found %d loops, want 1", n)
	}
}

func TestFormatModule(t *testing.T) {
	f := buildCountedLoop(t, 3)
	text := FormatModule(f.Mod)
	for _, want := range []string{"module loop", "global @sum", "func @main", "phi", "condbr"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted module missing %q:\n%s", want, text)
		}
	}
}

func TestOpStringAndTerminators(t *testing.T) {
	if OpAdd.String() != "add" || OpCheckHeap.String() != "check_heap" {
		t.Error("op names wrong")
	}
	for _, o := range []Op{OpRet, OpBr, OpCondBr} {
		if !o.IsTerminator() {
			t.Errorf("%s should be a terminator", o)
		}
	}
	if OpAdd.IsTerminator() {
		t.Error("add is not a terminator")
	}
	if !OpLoad.Reads() || !OpStore.Writes() || !OpMemCopy.Reads() || !OpMemCopy.Writes() {
		t.Error("read/write classification wrong")
	}
}

// verifyMain builds a module whose main emits body and returns 0, and
// returns what Verify says of it.
func verifyMain(prepare func(m *Module), body func(b *Builder)) error {
	m := NewModule("bad")
	prepare(m)
	b := NewBuilder(m.NewFunc("main", I64))
	body(b)
	b.Ret(b.I(0))
	return Verify(m)
}

// TestVerifyRejectsNegativeGlobalSize: the executors lay a global out with
// its size taken as unsigned, so -16 bytes would reserve 2^64 − 16.
func TestVerifyRejectsNegativeGlobalSize(t *testing.T) {
	err := verifyMain(func(m *Module) { m.NewGlobal("g", -16) }, func(*Builder) {})
	if err == nil || !strings.Contains(err.Error(), "global @g has negative size -16") {
		t.Errorf("Verify = %v", err)
	}
}

// TestVerifyRejectsNegativeAllocaSize: an alloca's size is unsigned to the
// executors too.
func TestVerifyRejectsNegativeAllocaSize(t *testing.T) {
	err := verifyMain(func(*Module) {}, func(b *Builder) { b.Alloca("a", -8) })
	if err == nil || !strings.Contains(err.Error(), "negative alloca size -8") {
		t.Errorf("Verify = %v", err)
	}
}

// TestVerifyRejectsNegativeConstantAllocation: a malloc or h_alloc whose
// size operand is a negative constant; a computed size is the executors'
// to refuse at run time.
func TestVerifyRejectsNegativeConstantAllocation(t *testing.T) {
	for name, alloc := range map[string]func(b *Builder){
		"malloc":  func(b *Builder) { b.Malloc("m", b.I(-64)) },
		"h_alloc": func(b *Builder) { b.HAlloc("h", b.I(-64), HeapPrivate) },
	} {
		err := verifyMain(func(*Module) {}, alloc)
		if err == nil || !strings.Contains(err.Error(), "negative allocation size -64") {
			t.Errorf("%s: Verify = %v", name, err)
		}
	}
	if err := verifyMain(func(*Module) {}, func(b *Builder) { b.Malloc("m", b.I(64)) }); err != nil {
		t.Errorf("malloc of 64 bytes: Verify = %v", err)
	}
}

// TestVerifyRejectsShortBuiltin: a builtin given fewer operands than its
// name reads (Builtins).
func TestVerifyRejectsShortBuiltin(t *testing.T) {
	err := verifyMain(func(*Module) {}, func(b *Builder) { b.Builtin("pow", F64, b.Flt(2)) })
	if err == nil || !strings.Contains(err.Error(), "builtin !pow wants 2 operands, has 1") {
		t.Errorf("Verify = %v", err)
	}
	if err := verifyMain(func(*Module) {}, func(b *Builder) { b.Builtin("pow", F64, b.Flt(2), b.Flt(3)) }); err != nil {
		t.Errorf("pow with two operands: Verify = %v", err)
	}
}
