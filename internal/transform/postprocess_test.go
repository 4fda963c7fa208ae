package transform

import (
	"testing"

	"privateer/internal/interp"
	"privateer/internal/ir"
	"privateer/internal/vm"
)

// buildElisionExercises builds a program whose body trips every postprocess
// rewrite category at least once:
//
//   - a unit-stride inner loop writing a privatized array (dense promotion),
//   - a stride-2 inner loop (sparse promotion),
//   - a scalar read of a privatized global invariant in the inner loop
//     (invariant hoist),
//   - a duplicate read of the same address (dominated-check elimination),
//   - reads of adjacent words through one base value (span join),
//   - a callee taking the array as a pointer parameter and writing two
//     adjacent words through it (write join, plus two dynamic separation
//     checks on the same underlying object — redundant-UO elimination;
//     parameters are not load-free, so those checks survive the static
//     elision that swallows global-addressed ones).
func buildElisionExercises(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.NewModule("elide")
	buf := m.NewGlobal("buf", 16*8)
	strided := m.NewGlobal("strided", 16*8)
	scale := m.NewGlobal("scale", 8)
	out := m.NewGlobal("out", 8)

	helper := m.NewFunc("fill_pair", ir.Void)
	hp := helper.NewParam("p", ir.Ptr)
	hb := ir.NewBuilder(helper)
	hb.Store(hb.I(7), hp, 8)
	hb.Store(hb.I(9), hb.Add(hp, hb.I(8)), 8)
	hb.Ret()

	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.For("i", b.I(0), b.I(24), func(iv *ir.Instr) {
		sc := b.Global(scale)
		b.Store(b.Add(b.Ld(iv), b.I(1)), sc, 8)
		b.For("j", b.I(0), b.I(16), func(jv *ir.Instr) {
			slot := b.Add(b.Global(buf), b.Mul(b.Ld(jv), b.I(8)))
			b.Store(b.Mul(b.Ld(jv), b.Load(sc, 8)), slot, 8)
		})
		b.For("k", b.I(0), b.I(8), func(kv *ir.Instr) {
			slot := b.Add(b.Global(strided), b.Mul(b.Ld(kv), b.I(16)))
			b.Store(b.Ld(iv), slot, 8)
		})
		b.Call(helper, b.Global(buf))
		g0 := b.Global(buf)
		v0 := b.Load(g0, 8)
		v0b := b.Load(g0, 8)
		v1 := b.Load(b.Add(g0, b.I(8)), 8)
		sum := b.Add(b.Add(v0, v0b), v1)
		b.Store(b.Add(sum, b.Load(b.Add(b.Global(strided), b.I(16)), 8)), b.Global(out), 8)
	})
	b.Ret(b.Load(b.Global(out), 8))
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}

// TestPostprocessCounters checks every rewrite category fires on the
// purpose-built program and that span checks materialize in the IR.
func TestPostprocessCounters(t *testing.T) {
	m := buildElisionExercises(t)
	res := pipeline(t, m)
	st := res.Stats
	for _, c := range []struct {
		name string
		n    int
	}{
		{"Joined", st.Joined},
		{"Eliminated", st.Eliminated},
		{"InvPromoted", st.InvPromoted},
		{"DensePromoted", st.DensePromoted},
		{"SparsePromoted", st.SparsePromoted},
		{"HeapRedundantUO", st.HeapRedundantUO},
	} {
		if c.n < 1 {
			t.Errorf("%s = %d, want >= 1 (stats: %+v)", c.name, c.n, *st)
		}
	}
	spans := 0
	for _, fn := range m.SortedFuncs() {
		fn.Instrs(func(in *ir.Instr) {
			if in.Op == ir.OpPrivateReadSpan || in.Op == ir.OpPrivateWriteSpan {
				spans++
			}
		})
	}
	if spans == 0 {
		t.Error("no span checks in the transformed IR")
	}
}

// TestPostprocessPreservesSequentialSemantics runs the fully postprocessed
// module sequentially (default hooks treat checks as no-ops that validate
// against real tags) and compares against the untransformed program.
func TestPostprocessPreservesSequentialSemantics(t *testing.T) {
	orig := buildElisionExercises(t)
	want, err := interp.New(orig, vm.NewAddressSpace()).Run()
	if err != nil {
		t.Fatal(err)
	}
	m := buildElisionExercises(t)
	pipeline(t, m)
	got, err := interp.New(m, vm.NewAddressSpace()).Run()
	if err != nil {
		t.Fatalf("transformed module: %v", err)
	}
	if got != want {
		t.Errorf("transformed result %d, want %d", got, want)
	}
}
