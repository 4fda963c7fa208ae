package ir

// The Reduction Criterion (section 3 of the paper), as one syntactic check.
// An accumulator may live in the reduction heap — identity-initialized per
// worker, partial results folded at the join — only if every access to it
// is an update by one associative-commutative operator and nothing else
// observes its running value. ReduxUpdate recognises one such update; the
// classifier, the static separation prover and the transformation all ask
// it, so the three cannot disagree about what a reduction is.

// ReduxUpdate reports whether st is the store of a reduction update
//
//	v = load p; u = v op x; store u, p
//
// and returns the load v, the operator and the access size. The update u is
// an add or fadd with exactly one operand v, or a min/max select
//
//	c = cmp l, r; u = select c, a, b
//
// whose two arms are the compare's two operands (one of them v); the
// compare and which operand the true arm takes decide min or max. The store
// goes back through the very address value v was loaded from, with v's
// size. v may feed only u and c, u only st, and c only u: a second reader
// of any of them observes the accumulator's running value, which differs
// between sequential and parallel execution.
//
// An integer add wraps at the access width, so it folds lane by lane at any
// size; every other operator is recognised at 8 bytes only, because
// truncating its result does not commute with applying it.
//
// ReduxUpdate counts the operands of st's function afresh on every call; a
// consumer asking about many stores asks a UseIndex instead.
func ReduxUpdate(st *Instr) (load *Instr, kind ReduxKind, size int64, ok bool) {
	return reduxUpdate(st, UseIndex{})
}

// UseIndex counts, per function, the operand slots naming each value, so
// ReduxUpdate's "nothing else observes it" test reads three counts instead
// of scanning the store's function. A function is counted when a query
// first needs it. The counts are exact only while no instruction of a
// counted function gains or loses an operand: a consumer makes its index
// where it reads and does not keep it across a rewrite of the IR.
type UseIndex map[*Function][]int32

// indexedRedux, when set, sees every answer a UseIndex gives, so a test can
// hold each to a fresh ReduxUpdate at the moment its consumer reads it.
var indexedRedux func(st, load *Instr, kind ReduxKind, size int64, ok bool)

// ReduxUpdate is ir.ReduxUpdate answered from the index.
func (u UseIndex) ReduxUpdate(st *Instr) (load *Instr, kind ReduxKind, size int64, ok bool) {
	load, kind, size, ok = reduxUpdate(st, u)
	if indexedRedux != nil {
		indexedRedux(st, load, kind, size, ok)
	}
	return load, kind, size, ok
}

// uses returns the number of operand slots in f that name v.
func (u UseIndex) uses(f *Function, v *Instr) int32 {
	counts, ok := u[f]
	if !ok {
		counts = make([]int32, f.NumValues())
		f.Instrs(func(in *Instr) {
			for _, a := range in.Args {
				if id := a.ValueID(); id < len(counts) {
					counts[id]++
				}
			}
		})
		u[f] = counts
	}
	if id := v.ValueID(); id < len(counts) {
		return counts[id]
	}
	return -1 // not f's value: matches no operand count
}

// operandSlots returns the number of operand slots of in that name v.
func operandSlots(v Value, in *Instr) (n int32) {
	for _, a := range in.Args {
		if a == v {
			n++
		}
	}
	return n
}

func reduxUpdate(st *Instr, u UseIndex) (load *Instr, kind ReduxKind, size int64, ok bool) {
	if st.Op != OpStore {
		return nil, ReduxNone, 0, false
	}
	upd, isInstr := st.Args[0].(*Instr)
	if !isInstr {
		return nil, ReduxNone, 0, false
	}
	var a, b Value // the update's two operands: the loaded value and x
	var cmp *Instr
	switch upd.Op {
	case OpAdd:
		kind, a, b = ReduxAddI64, upd.Args[0], upd.Args[1]
	case OpFAdd:
		kind, a, b = ReduxAddF64, upd.Args[0], upd.Args[1]
	case OpSelect:
		if cmp, isInstr = upd.Args[0].(*Instr); !isInstr {
			return nil, ReduxNone, 0, false
		}
		var less, float bool
		switch cmp.Op {
		case OpSLt, OpSLe:
			less = true
		case OpSGt, OpSGe:
		case OpFLt, OpFLe:
			less, float = true, true
		case OpFGt, OpFGe:
			float = true
		default:
			return nil, ReduxNone, 0, false
		}
		a, b = upd.Args[1], upd.Args[2]
		l, r := cmp.Args[0], cmp.Args[1]
		takesLeft := a == l && b == r
		if !takesLeft && !(a == r && b == l) {
			return nil, ReduxNone, 0, false
		}
		// select(l < r, l, r) and select(l > r, r, l) keep the smaller
		// operand; the other two orientations keep the larger.
		switch smaller := less == takesLeft; {
		case smaller && !float:
			kind = ReduxMinI64
		case smaller:
			kind = ReduxMinF64
		case !float:
			kind = ReduxMaxI64
		default:
			kind = ReduxMaxF64
		}
	default:
		return nil, ReduxNone, 0, false
	}
	if kind != ReduxAddI64 && st.Size != 8 {
		return nil, ReduxNone, 0, false
	}
	// Exactly one operand is the accumulator's value: in v op v the operand
	// x would itself depend on the accumulator.
	isAcc := func(v Value) bool {
		ld, isInstr := v.(*Instr)
		return isInstr && ld.Op == OpLoad && ld.Args[0] == st.Args[1] && ld.Size == st.Size
	}
	if isAcc(a) == isAcc(b) {
		return nil, ReduxNone, 0, false
	}
	if !isAcc(a) {
		a = b
	}
	load = a.(*Instr)
	// Nothing else may observe the loaded value, the update or the compare:
	// every operand slot naming one of them is one of the slots counted here.
	f, loadSlots := st.Blk.Fn, operandSlots(load, upd)
	if cmp != nil {
		loadSlots += operandSlots(load, cmp)
		if u.uses(f, cmp) != operandSlots(cmp, upd) {
			return nil, ReduxNone, 0, false
		}
	}
	if u.uses(f, load) != loadSlots || u.uses(f, upd) != operandSlots(upd, st) {
		return nil, ReduxNone, 0, false
	}
	return load, kind, st.Size, true
}
