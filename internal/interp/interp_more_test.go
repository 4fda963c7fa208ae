package interp

import (
	"math"
	"strings"
	"testing"

	"privateer/internal/ir"
	"privateer/internal/vm"
)

func TestUnsignedOps(t *testing.T) {
	v, _, err := run(t, func(m *ir.Module, b *ir.Builder) {
		big := b.Sub(b.I(0), b.I(1)) // all ones
		q := b.UDiv(big, b.I(3))     // huge
		r := b.URem(big, b.I(10))    // 5 (2^64-1 mod 10)
		lt := b.ULt(b.I(1), big)     // 1
		ge := b.UGe(big, b.I(1))     // 1
		b.Ret(b.Add(b.Add(lt, ge), b.Add(b.SRem(q, b.I(1000)), r)))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(1 + 1 + ((^uint64(0))/3)%1000 + (^uint64(0))%10)
	if v != want {
		t.Errorf("got %d want %d", v, want)
	}
}

func TestShiftAndBitOps(t *testing.T) {
	v, _, err := run(t, func(m *ir.Module, b *ir.Builder) {
		x := b.Shl(b.I(1), b.I(40))
		y := b.LShr(x, b.I(8))
		z := b.Xor(b.Or(x, y), b.And(x, y))
		b.Ret(z)
	})
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(1) << 40
	y := x >> 8
	if v != (x|y)^(x&y) {
		t.Errorf("got %#x", v)
	}
}

func TestConversions(t *testing.T) {
	v, _, err := run(t, func(m *ir.Module, b *ir.Builder) {
		f := b.SIToFP(b.I(-7))
		i := b.FPToSI(b.FMul(f, b.Flt(2.5))) // -17.5 -> -17
		p := b.IntToPtrVal(b.I(12345))
		pi := b.PtrToInt(p)
		b.Ret(b.Add(i, pi))
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(v) != -17+12345 {
		t.Errorf("got %d", int64(v))
	}
}

func TestBuiltinsCoverage(t *testing.T) {
	cases := []struct {
		name string
		arg  float64
		want float64
	}{
		{"sqrt", 9, 3},
		{"exp", 0, 1},
		{"log", 1, 0},
		{"fabs", -2.5, 2.5},
		{"floor", 2.9, 2},
		{"sin", 0, 0},
		{"cos", 0, 1},
	}
	for _, c := range cases {
		m := ir.NewModule("t")
		f := m.NewFunc("main", ir.F64)
		b := ir.NewBuilder(f)
		b.Ret(b.Builtin(c.name, ir.F64, b.Flt(c.arg)))
		it := New(m, vm.NewAddressSpace())
		v, err := it.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Float64frombits(v) != c.want {
			t.Errorf("%s(%g) = %g, want %g", c.name, c.arg, math.Float64frombits(v), c.want)
		}
	}
	// pow takes two args.
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.F64)
	b := ir.NewBuilder(f)
	b.Ret(b.Builtin("pow", ir.F64, b.Flt(2), b.Flt(10)))
	v, err := New(m, vm.NewAddressSpace()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64frombits(v) != 1024 {
		t.Errorf("pow(2,10) = %g", math.Float64frombits(v))
	}
	// Unknown builtin errors.
	m2 := ir.NewModule("t")
	f2 := m2.NewFunc("main", ir.F64)
	b2 := ir.NewBuilder(f2)
	b2.Ret(b2.Builtin("frobnicate", ir.F64, b2.Flt(1)))
	if _, err := New(m2, vm.NewAddressSpace()).Run(); err == nil {
		t.Error("unknown builtin accepted")
	}
}

// TestBuiltinIndicesFollowTheTable: the executors' builtin indices are
// positions in ir.Builtins, and a builtin given fewer operands than the
// table says it reads, which ir.Verify rejects but an unverified module may
// hold, is an error on both executors.
func TestBuiltinIndicesFollowTheTable(t *testing.T) {
	if bUnknown != len(ir.Builtins) {
		t.Fatalf("bUnknown = %d, ir.Builtins has %d", bUnknown, len(ir.Builtins))
	}
	for k, name := range []string{bSqrt: "sqrt", bExp: "exp", bLog: "log", bPow: "pow",
		bFabs: "fabs", bFloor: "floor", bSin: "sin", bCos: "cos"} {
		if ir.Builtins[k].Name != name || ir.BuiltinIndex(name) != k {
			t.Errorf("index %d: ir.Builtins names %q, ir.BuiltinIndex(%q) = %d",
				k, ir.Builtins[k].Name, name, ir.BuiltinIndex(name))
		}
	}
	m := ir.NewModule("t")
	b := ir.NewBuilder(m.NewFunc("main", ir.F64))
	b.Ret(b.Builtin("pow", ir.F64, b.Flt(2)))
	for _, treeWalk := range []bool{false, true} {
		_, err := NewExecutor(treeWalk, m, vm.NewAddressSpace()).Run()
		if err == nil || !strings.Contains(err.Error(), `builtin "pow" wants 2 operands, has 1`) {
			t.Errorf("tree-walk %v: pow with one operand ran: %v", treeWalk, err)
		}
	}
}

func TestGlobalLayoutSharing(t *testing.T) {
	m := ir.NewModule("t")
	g := m.NewGlobal("shared", 8)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.Ret(b.Load(b.Global(g), 8))
	as := vm.NewAddressSpace()
	it1 := New(m, as)
	if err := it1.LayOutGlobals(); err != nil {
		t.Fatal(err)
	}
	addr := it1.GlobalAddr(g)
	if err := as.Write(addr, 8, 777); err != nil {
		t.Fatal(err)
	}
	// A second interpreter adopting the layout sees the same address.
	it2 := New(m, as)
	it2.AdoptLayout(it1.GlobalLayout())
	v, err := it2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != 777 {
		t.Errorf("adopted layout read %d, want 777", v)
	}
}

func TestCallOverride(t *testing.T) {
	m := ir.NewModule("t")
	callee := m.NewFunc("magic", ir.I64)
	cb := ir.NewBuilder(callee)
	cb.Ret(cb.I(1)) // real body returns 1
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.Ret(b.Call(callee))
	it := New(m, vm.NewAddressSpace())
	it.Hooks.CallOverride = func(fr *Frame, in *ir.Instr, cal *ir.Function, args []uint64) (uint64, bool, error) {
		if cal == callee {
			return 99, true, nil
		}
		return 0, false, nil
	}
	v, err := it.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Errorf("override not applied: %d", v)
	}
}

func TestStepsAccounting(t *testing.T) {
	_, it, err := run(t, func(m *ir.Module, b *ir.Builder) {
		b.For("i", b.I(0), b.I(100), func(_ *ir.Instr) {})
		b.Ret(b.I(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if it.Steps < 100 {
		t.Errorf("steps = %d, want >= 100", it.Steps)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	b.Ret(b.Call(f)) // infinite recursion
	it := New(m, vm.NewAddressSpace())
	it.MaxDepth = 64
	if _, err := it.Run(); err == nil {
		t.Error("infinite recursion not stopped")
	}
}
