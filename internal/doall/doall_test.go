package doall

import (
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

// firstLoop returns main's first depth-1 loop in block order.
func firstLoop(t *testing.T, m *ir.Module) (*ir.Loop, *ir.InductionVar) {
	t.Helper()
	f := m.Funcs["main"]
	f.Recompute()
	dt := ir.BuildDomTree(f)
	loops := ir.FindLoops(f, dt)
	var best *ir.Loop
	for _, l := range loops {
		if l.Depth != 1 {
			continue
		}
		if best == nil || l.Header.Index < best.Header.Index {
			best = l
		}
	}
	if best == nil {
		t.Fatal("no loop")
	}
	iv := ir.FindInductionVar(best)
	if iv == nil {
		t.Fatal("no canonical IV")
	}
	return best, iv
}

func TestOutlineSequentialEquivalence(t *testing.T) {
	const n = 32
	want, err := interp.New(buildSquares(n), vm.NewAddressSpace()).Run()
	if err != nil {
		t.Fatal(err)
	}
	m := buildSquares(n)
	l, iv := firstLoop(t, m)
	r, err := Outline(m, l, iv)
	if err != nil {
		t.Fatalf("Outline: %v", err)
	}
	if r.RegionFn == nil || r.IterFn == nil {
		t.Fatal("region incomplete")
	}
	got, err := interp.New(m, vm.NewAddressSpace()).Run()
	if err != nil {
		t.Fatalf("outlined run: %v", err)
	}
	if got != want {
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
	zero := b.I(0)
	one := b.I(1)
	limit := b.I(10)
	b.Br(header)
	b.SetBlock(header)
	phi := b.Phi(ir.I64)
	cmp := b.SLt(phi, limit)
	b.CondBr(cmp, body, exit)
	b.SetBlock(body)
	v := b.Load(b.Global(g), 8)
	b.CondBr(b.Eq(v, b.I(7)), brk, header)
	// missing increment on this path; add via brk
	b.SetBlock(brk)
	b.Br(exit)
	b.SetBlock(exit)
	b.Ret(zero)
	ir.AddIncoming(phi, zero, f.Entry())
	step := &ir.Instr{}
	_ = step
	// Re-route: body branches back to header without increment would spin;
	// for this structural test we only need FindLoops + Outline rejection.
	f.Recompute()
	dt := ir.BuildDomTree(f)
	loops := ir.FindLoops(f, dt)
	if len(loops) == 0 {
		t.Skip("loop shape not detected; structural test only")
	}
	l := loops[0]
	iv := ir.FindInductionVar(l)
	if iv == nil {
		// No canonical IV is also a rejection path.
		return
	}
	ir.AddIncoming(phi, b.Add(phi, one), body)
	if _, err := Outline(m, l, iv); err == nil {
		t.Error("Outline accepted a loop with an early exit")
	}
}
