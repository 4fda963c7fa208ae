package ir

import "testing"

// reduxFixture is one function holding an address p, an operand x, and
// whatever the case emits; the case returns the store under test.
type reduxFixture struct {
	b *Builder
	p *Instr
	x Value
}

func newReduxFixture(float bool) *reduxFixture {
	m := NewModule("redux")
	g := m.NewGlobal("acc", 8)
	f := m.NewFunc("f", Void)
	b := NewBuilder(f)
	fx := &reduxFixture{b: b, p: b.Global(g)}
	if float {
		fx.x = f.NewParam("x", F64)
	} else {
		fx.x = f.NewParam("x", I64)
	}
	return fx
}

func TestReduxUpdate(t *testing.T) {
	// minmax stores select(cmp(l, r), a, b) over v = load p, where the
	// letters pick v or x.
	minmax := func(cmp func(b *Builder, l, r Value) *Instr, lr, ab string) func(*reduxFixture) *Instr {
		return func(fx *reduxFixture) *Instr {
			b := fx.b
			var v *Instr
			if fx.x.Type() == F64 {
				v = b.LoadF(fx.p)
			} else {
				v = b.Load(fx.p, 8)
			}
			pick := func(c byte) Value {
				if c == 'v' {
					return v
				}
				return fx.x
			}
			return b.Store(b.Select(cmp(b, pick(lr[0]), pick(lr[1])), pick(ab[0]), pick(ab[1])), fx.p, 8)
		}
	}
	cases := []struct {
		name  string
		float bool
		emit  func(fx *reduxFixture) *Instr
		want  ReduxKind // ReduxNone: not a reduction update
		size  int64
	}{
		{"add", false, func(fx *reduxFixture) *Instr {
			return fx.b.Store(fx.b.Add(fx.b.Load(fx.p, 8), fx.x), fx.p, 8)
		}, ReduxAddI64, 8},
		{"add, operands swapped", false, func(fx *reduxFixture) *Instr {
			return fx.b.Store(fx.b.Add(fx.x, fx.b.Load(fx.p, 8)), fx.p, 8)
		}, ReduxAddI64, 8},
		{"add at 4 bytes", false, func(fx *reduxFixture) *Instr {
			return fx.b.Store(fx.b.Add(fx.b.Load(fx.p, 4), fx.x), fx.p, 4)
		}, ReduxAddI64, 4},
		{"fadd", true, func(fx *reduxFixture) *Instr {
			return fx.b.StoreF(fx.b.FAdd(fx.b.LoadF(fx.p), fx.x), fx.p)
		}, ReduxAddF64, 8},
		{"sub is not commutative", false, func(fx *reduxFixture) *Instr {
			return fx.b.Store(fx.b.Sub(fx.b.Load(fx.p, 8), fx.x), fx.p, 8)
		}, ReduxNone, 0},

		{"select(v<x, v, x)", false, minmax((*Builder).SLt, "vx", "vx"), ReduxMinI64, 8},
		{"select(v<x, x, v)", false, minmax((*Builder).SLt, "vx", "xv"), ReduxMaxI64, 8},
		{"select(x<=v, x, v)", false, minmax((*Builder).SLe, "xv", "xv"), ReduxMinI64, 8},
		{"select(v>x, v, x)", false, minmax((*Builder).SGt, "vx", "vx"), ReduxMaxI64, 8},
		{"select(v>=x, x, v)", false, minmax((*Builder).SGe, "vx", "xv"), ReduxMinI64, 8},
		{"select(v<x, v, x) float", true, minmax((*Builder).FLt, "vx", "vx"), ReduxMinF64, 8},
		{"select(x<=v, v, x) float", true, minmax((*Builder).FLe, "xv", "vx"), ReduxMaxF64, 8},
		{"select(v>x, v, x) float", true, minmax((*Builder).FGt, "vx", "vx"), ReduxMaxF64, 8},
		{"select(x>=v, v, x) float", true, minmax((*Builder).FGe, "xv", "vx"), ReduxMinF64, 8},
		{"select on an unordered compare", false, minmax((*Builder).Ne, "vx", "vx"), ReduxNone, 0},
		{"select(v<x, v, v)", false, minmax((*Builder).SLt, "vx", "vv"), ReduxNone, 0},
		{"arms are not the compare's operands", false, func(fx *reduxFixture) *Instr {
			b := fx.b
			v := b.Load(fx.p, 8)
			return b.Store(b.Select(b.SLt(v, b.I(7)), v, fx.x), fx.p, 8)
		}, ReduxNone, 0},
		{"min at 4 bytes", false, func(fx *reduxFixture) *Instr {
			b := fx.b
			v := b.Load(fx.p, 4)
			return b.Store(b.Select(b.SLt(v, fx.x), v, fx.x), fx.p, 4)
		}, ReduxNone, 0},

		{"load and store sizes differ", false, func(fx *reduxFixture) *Instr {
			return fx.b.Store(fx.b.Add(fx.b.Load(fx.p, 4), fx.x), fx.p, 8)
		}, ReduxNone, 0},
		{"stored through another address value", false, func(fx *reduxFixture) *Instr {
			b := fx.b
			return b.Store(b.Add(b.Load(fx.p, 8), fx.x), b.Add(fx.p, b.I(0)), 8)
		}, ReduxNone, 0},
		{"v + v", false, func(fx *reduxFixture) *Instr {
			v := fx.b.Load(fx.p, 8)
			return fx.b.Store(fx.b.Add(v, v), fx.p, 8)
		}, ReduxNone, 0},
		{"two loads of the accumulator", false, func(fx *reduxFixture) *Instr {
			return fx.b.Store(fx.b.Add(fx.b.Load(fx.p, 8), fx.b.Load(fx.p, 8)), fx.p, 8)
		}, ReduxNone, 0},
		{"plain store", false, func(fx *reduxFixture) *Instr {
			return fx.b.Store(fx.x, fx.p, 8)
		}, ReduxNone, 0},
		{"escaping load", false, func(fx *reduxFixture) *Instr {
			b := fx.b
			v := b.Load(fx.p, 8)
			st := b.Store(b.Add(v, fx.x), fx.p, 8)
			b.Print("%d\n", v)
			return st
		}, ReduxNone, 0},
		{"escaping update", false, func(fx *reduxFixture) *Instr {
			b := fx.b
			u := b.Add(b.Load(fx.p, 8), fx.x)
			st := b.Store(u, fx.p, 8)
			b.Print("%d\n", u)
			return st
		}, ReduxNone, 0},
		{"escaping compare", false, func(fx *reduxFixture) *Instr {
			b := fx.b
			v := b.Load(fx.p, 8)
			c := b.SLt(v, fx.x)
			st := b.Store(b.Select(c, v, fx.x), fx.p, 8)
			b.Print("%d\n", c)
			return st
		}, ReduxNone, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fx := newReduxFixture(c.float)
			st := c.emit(fx)
			fx.b.Ret()
			load, kind, size, ok := ReduxUpdate(st)
			if ok != (c.want != ReduxNone) || kind != c.want || size != c.size {
				t.Fatalf("ReduxUpdate = (%v, %v, %d, %v), want (%v, %d)", load, kind, size, ok, c.want, c.size)
			}
			if ok && (load == nil || load.Op != OpLoad || load.Args[0] != st.Args[1]) {
				t.Errorf("returned load %v is not a load through the store's address", load)
			}
		})
	}
}
