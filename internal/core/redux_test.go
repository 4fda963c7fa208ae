package core

import (
	"testing"

	"privateer/internal/ir"
	"privateer/internal/specrt"
)

// reduxProgram builds main around body, which emits the program's loops
// against the global accumulator @acc (initially 11) and a second global
// @aux; main prints and returns a mix of both.
func reduxProgram(body reduxBody) *ir.Module {
	m := ir.NewModule("redux-criterion")
	acc := m.NewGlobal("acc", 8)
	acc.Init = []byte{11, 0, 0, 0, 0, 0, 0, 0}
	aux := m.NewGlobal("aux", 16)
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	body(m, b, acc, aux)
	a := b.Load(b.Global(acc), 8)
	x0 := b.Load(b.Global(aux), 8)
	x1 := b.Load(b.Add(b.Global(aux), b.I(8)), 8)
	b.Print("acc %d aux %d %d\n", a, x0, x1)
	b.Ret(b.Add(a, b.Xor(x0, b.Mul(x1, b.I(31)))))
	for _, fn := range m.SortedFuncs() {
		ir.PromoteAllocas(fn)
	}
	return m
}

// scramble emits a value that is neither monotone in i nor small.
func scramble(b *ir.Builder, i ir.Value) *ir.Instr {
	return b.SRem(b.Mul(b.Add(i, b.I(3)), b.I(7919)), b.I(100003))
}

// update emits cur = load p; store f(cur), p through the one address value
// p, and returns cur.
func update(b *ir.Builder, p ir.Value, size int64, f func(cur *ir.Instr) ir.Value) *ir.Instr {
	cur := b.Load(p, size)
	b.Store(f(cur), p, size)
	return cur
}

const reduxTrips = 1200

type reduxBody = func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global)

// Eight programs that returned a wrong result with zero misspeculations
// under the pre-ReduxUpdate recognisers — five that are no reduction and
// were treated as one, three that are and were folded with the wrong
// operator, lane width or region's operator — and six sound twins, one of
// them a 12-byte object of 4-byte lanes that stays live, and must stay
// untouched, while a second region reduces something else.
var reduxCases = []struct {
	name string
	// reduces says whether some selected region must keep @acc in its
	// reduction heap.
	reduces bool
	// compiles is how many fresh compiles to run (the two-region case
	// depended on Go's map iteration order).
	compiles int
	body     reduxBody
}{
	{"max spelled select(cur<d, d, cur)", true, 1, func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global) {
		b.For("i", b.I(0), b.I(reduxTrips), func(iv *ir.Instr) {
			d := scramble(b, b.Ld(iv))
			update(b, b.Global(acc), 8, func(cur *ir.Instr) ir.Value { return b.Select(b.SLt(cur, d), d, cur) })
		})
	}},
	{"min spelled select(d<cur, d, cur)", true, 1, func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global) {
		b.For("i", b.I(0), b.I(reduxTrips), func(iv *ir.Instr) {
			d := b.Sub(scramble(b, b.Ld(iv)), b.I(50000))
			update(b, b.Global(acc), 8, func(cur *ir.Instr) ir.Value { return b.Select(b.SLt(d, cur), d, cur) })
		})
	}},
	{"select arms are not the compare's operands", false, 1, func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global) {
		b.For("i", b.I(0), b.I(reduxTrips), func(iv *ir.Instr) {
			d := scramble(b, b.Ld(iv))
			update(b, b.Global(acc), 8, func(cur *ir.Instr) ir.Value { return b.Select(b.SLt(cur, b.I(40000)), d, cur) })
		})
	}},
	{"add and min on one accumulator", false, 1, func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global) {
		b.For("j", b.I(0), b.I(reduxTrips), func(jv *ir.Instr) {
			p := b.Global(acc)
			update(b, p, 8, func(cur *ir.Instr) ir.Value { return b.Add(cur, b.Ld(jv)) })
			d := b.Mul(b.Ld(jv), b.I(3))
			update(b, p, 8, func(cur *ir.Instr) ir.Value { return b.Select(b.SLt(cur, d), cur, d) })
		})
	}},
	{"add and min on two accumulators", true, 1, func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global) {
		b.Store(b.I(1<<40), b.Global(aux), 8)
		b.For("j", b.I(0), b.I(reduxTrips), func(jv *ir.Instr) {
			update(b, b.Global(acc), 8, func(cur *ir.Instr) ir.Value { return b.Add(cur, b.Ld(jv)) })
			d := scramble(b, b.Ld(jv))
			update(b, b.Global(aux), 8, func(lo *ir.Instr) ir.Value { return b.Select(b.SLt(lo, d), lo, d) })
		})
	}},
	{"running value of the accumulator observed", false, 1, func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global) {
		b.For("i", b.I(0), b.I(reduxTrips), func(iv *ir.Instr) {
			cur := update(b, b.Global(acc), 8, func(cur *ir.Instr) ir.Value { return b.Add(cur, b.Ld(iv)) })
			update(b, b.Global(aux), 8, func(seen *ir.Instr) ir.Value { return b.Add(seen, cur) })
		})
	}},
	{"two accumulators, neither observed", true, 1, func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global) {
		b.For("i", b.I(0), b.I(reduxTrips), func(iv *ir.Instr) {
			update(b, b.Global(acc), 8, func(cur *ir.Instr) ir.Value { return b.Add(cur, b.Ld(iv)) })
			update(b, b.Global(aux), 8, func(seen *ir.Instr) ir.Value { return b.Add(seen, scramble(b, b.Ld(iv))) })
		})
	}},
	{"4-byte histogram updated in a callee", true, 1, func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global) {
		bump := m.NewFunc("bump", ir.Void)
		i := bump.NewParam("i", ir.I64)
		cb := ir.NewBuilder(bump)
		p := cb.Add(cb.Global(aux), cb.Mul(cb.SRem(i, cb.I(4)), cb.I(4)))
		update(cb, p, 4, func(cur *ir.Instr) ir.Value { return cb.Add(cur, cb.I(0x7fffffff)) })
		cb.Ret()
		b.For("i", b.I(0), b.I(reduxTrips), func(iv *ir.Instr) {
			b.Call(bump, b.Ld(iv))
			update(b, b.Global(acc), 8, func(cur *ir.Instr) ir.Value { return b.Add(cur, b.Ld(iv)) })
		})
	}},
	{"4-byte histogram updated in the loop body", true, 1, func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global) {
		b.For("i", b.I(0), b.I(reduxTrips), func(iv *ir.Instr) {
			p := b.Add(b.Global(aux), b.Mul(b.SRem(b.Ld(iv), b.I(4)), b.I(4)))
			update(b, p, 4, func(cur *ir.Instr) ir.Value { return b.Add(cur, b.I(0x7fffffff)) })
			update(b, b.Global(acc), 8, func(cur *ir.Instr) ir.Value { return b.Add(cur, b.Ld(iv)) })
		})
	}},
	{"4-byte min", false, 1, func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global) {
		b.For("i", b.I(0), b.I(reduxTrips), func(iv *ir.Instr) {
			d := b.Sub(scramble(b, b.Ld(iv)), b.I(50000))
			update(b, b.Global(acc), 4, func(cur *ir.Instr) ir.Value { return b.Select(b.SLt(d, cur), d, cur) })
		})
	}},
	{"accumulator loaded once, before the loop", false, 1, func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global) {
		p := b.Global(acc)
		cur := b.Load(p, 8)
		b.For("i", b.I(0), b.I(reduxTrips), func(iv *ir.Instr) {
			b.Store(b.Add(cur, scramble(b, b.Ld(iv))), p, 8)
		})
	}},
	{"one accumulator, add in one region and max in the next", true, 20, func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global) {
		b.For("i", b.I(0), b.I(reduxTrips), func(iv *ir.Instr) {
			update(b, b.Global(acc), 8, func(cur *ir.Instr) ir.Value { return b.Add(cur, b.Ld(iv)) })
		})
		b.For("k", b.I(0), b.I(reduxTrips), func(kv *ir.Instr) {
			d := b.Mul(scramble(b, b.Ld(kv)), b.I(17))
			update(b, b.Global(acc), 8, func(cur *ir.Instr) ir.Value { return b.Select(b.SGt(cur, d), cur, d) })
		})
	}},
	{"4-byte lanes in one region, an unrelated reduction in the next", true, 1, func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global) {
		hist := m.NewGlobal("hist", 12)
		b.For("i", b.I(0), b.I(reduxTrips), func(iv *ir.Instr) {
			p := b.Add(b.Global(hist), b.Mul(b.SRem(b.Ld(iv), b.I(3)), b.I(4)))
			update(b, p, 4, func(cur *ir.Instr) ir.Value { return b.Add(cur, b.I(0x7fffffff)) })
		})
		b.For("k", b.I(0), b.I(reduxTrips), func(kv *ir.Instr) {
			update(b, b.Global(acc), 8, func(cur *ir.Instr) ir.Value { return b.Add(cur, scramble(b, b.Ld(kv))) })
		})
		h0 := b.Load(b.Global(hist), 4)
		h1 := b.Load(b.Add(b.Global(hist), b.I(4)), 4)
		b.Store(b.Add(h0, b.Mul(h1, b.I(3))), b.Global(aux), 8)
		b.Store(b.Load(b.Add(b.Global(hist), b.I(8)), 4), b.Add(b.Global(aux), b.I(8)), 8)
	}},
	{"one accumulator, add in both regions", true, 1, func(m *ir.Module, b *ir.Builder, acc, aux *ir.Global) {
		for _, name := range []string{"i", "k"} {
			b.For(name, b.I(0), b.I(reduxTrips), func(iv *ir.Instr) {
				update(b, b.Global(acc), 8, func(cur *ir.Instr) ir.Value { return b.Add(cur, scramble(b, b.Ld(iv))) })
			})
		}
	}},
}

// TestReductionCriterionRepros: whatever the pipeline decides about each
// loop — reduce, privatize or reject — the parallelized program returns and
// prints what sequential execution does, at every worker count; and the
// sound twins are still recognised as reductions.
func TestReductionCriterionRepros(t *testing.T) {
	for _, c := range reduxCases {
		t.Run(c.name, func(t *testing.T) {
			seqVal, seqOut, err := RunSequential(reduxProgram(c.body))
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			for n := 0; n < c.compiles; n++ {
				for _, workers := range []int{1, 3, 4, 5} {
					par, err := Parallelize(reduxProgram(c.body), Options{})
					if err != nil {
						t.Fatal(err)
					}
					reduces := false
					for _, ri := range par.Regions {
						for o := range ri.Assign.Redux {
							reduces = reduces || o.String() == "@acc"
						}
					}
					if reduces != c.reduces {
						t.Fatalf("@acc reduced by a selected region: %v, want %v\n%s", reduces, c.reduces, par.Summary())
					}
					rt, val, err := Run(par, specrt.Config{Workers: workers})
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if val != seqVal || rt.Output() != seqOut {
						t.Errorf("compile %d, workers=%d: returned %d and printed %q, sequential %d and %q (%d misspeculations)\n%s",
							n, workers, val, rt.Output(), seqVal, seqOut, rt.Stats.Misspecs, par.Summary())
					}
				}
			}
		})
	}
}
