package ir

// PromoteAllocas rewrites promotable stack slots into SSA registers
// (the classic mem2reg pass): it places phi nodes at iterated dominance
// frontiers of the slots' stores and renames loads to the reaching
// definition. Front-end-style code that keeps every scalar local in an
// alloca (as Builder's structured helpers emit) becomes pruned SSA, so loop
// analyses see register dependences instead of spurious memory traffic and
// the canonical induction variable of counted loops becomes a header phi.
//
// An alloca is promotable when it is 8 bytes and is used only as the address
// of whole-slot loads and stores. Slots whose address escapes (passed to a
// call, stored to memory, offset arithmetic) keep their memory form.
func PromoteAllocas(f *Function) {
	f.Recompute()
	dt := BuildDomTree(f)

	// Identify promotable allocas.
	type slotInfo struct {
		alloca   *Instr
		defBlks  []*Block
		typ      Type
		anyStore bool
	}
	// order lists the slots in instruction order: phis are placed in that
	// order, so header phi order and value numbering are the same on every
	// build (ranging over slots would not be).
	slots := map[*Instr]*slotInfo{}
	var order []*slotInfo
	f.Instrs(func(in *Instr) {
		if in.Op == OpAlloca && in.Size == 8 && dt.Reachable(in.Blk) {
			info := &slotInfo{alloca: in, typ: I64}
			slots[in] = info
			order = append(order, info)
		}
	})
	if len(slots) == 0 {
		return
	}
	// Disqualify escaping slots; record defining blocks and a value type.
	f.Instrs(func(in *Instr) {
		for i, a := range in.Args {
			s, isSlot := a.(*Instr)
			if !isSlot {
				continue
			}
			info := slots[s]
			if info == nil {
				continue
			}
			ok := (in.Op == OpLoad && i == 0 && in.Size == 8) ||
				(in.Op == OpStore && i == 1 && in.Size == 8)
			if !ok {
				delete(slots, s)
				continue
			}
			if in.Op == OpStore {
				info.anyStore = true
				info.defBlks = append(info.defBlks, in.Blk)
				if in.Args[0].Type() != I64 {
					info.typ = in.Args[0].Type()
				}
			} else if in.Typ != I64 {
				info.typ = in.Typ
			}
		}
	})
	if len(slots) == 0 {
		return
	}

	df := dt.DominanceFrontiers()

	// Phi placement at iterated dominance frontiers.
	// phiFor[block][slot] is the phi carrying the slot in that block.
	phiFor := make([]map[*Instr]*Instr, len(f.Blocks))
	for _, info := range order {
		if slots[info.alloca] == nil {
			continue // its address escapes
		}
		hasPhi := make([]bool, len(f.Blocks))
		work := append([]*Block(nil), info.defBlks...)
		inWork := make([]bool, len(f.Blocks))
		for _, b := range work {
			inWork[b.Index] = true
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, d := range df[b.Index] {
				if hasPhi[d.Index] {
					continue
				}
				hasPhi[d.Index] = true
				phi := f.newInstr(OpPhi, info.typ)
				phi.Blk = d
				phi.Name = info.alloca.Name + ".phi"
				d.Instrs = append([]*Instr{phi}, d.Instrs...)
				if phiFor[d.Index] == nil {
					phiFor[d.Index] = map[*Instr]*Instr{}
				}
				phiFor[d.Index][info.alloca] = phi
				if !inWork[d.Index] {
					inWork[d.Index] = true
					work = append(work, d)
				}
			}
		}
	}

	// Undef value for slots read before any store on some path.
	undef := f.newInstr(OpConst, I64)
	undef.Const = 0
	undef.Name = "undef"
	undef.Blk = f.Entry()
	f.Entry().Instrs = append([]*Instr{undef}, f.Entry().Instrs...)

	// Renaming walk over the dominator tree.
	children := make([][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		if id := dt.IDom(b); id != nil {
			children[id.Index] = append(children[id.Index], b)
		}
	}
	replaced := map[*Instr]Value{} // deleted load -> reaching value
	dead := map[*Instr]bool{}      // instructions to remove

	var rename func(b *Block, reaching map[*Instr]Value)
	rename = func(b *Block, reaching map[*Instr]Value) {
		// Child blocks get a copy; mutate our own map freely.
		local := make(map[*Instr]Value, len(reaching))
		for k, v := range reaching {
			local[k] = v
		}
		for slot, phi := range phiFor[b.Index] {
			local[slot] = phi
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case OpLoad:
				if s, okSlot := in.Args[0].(*Instr); okSlot {
					if _, promoted := slots[s]; promoted {
						v := local[s]
						if v == nil {
							v = undef
						}
						replaced[in] = v
						dead[in] = true
					}
				}
			case OpStore:
				if s, okSlot := in.Args[1].(*Instr); okSlot {
					if _, promoted := slots[s]; promoted {
						local[s] = in.Args[0]
						dead[in] = true
					}
				}
			}
		}
		for _, succ := range b.Succs() {
			for slot, phi := range phiFor[succ.Index] {
				v := local[slot]
				if v == nil {
					v = undef
				}
				AddIncoming(phi, v, b)
			}
		}
		for _, c := range children[b.Index] {
			rename(c, local)
		}
	}
	rename(f.Entry(), map[*Instr]Value{})

	// Resolve replacement chains (a store operand may itself be a deleted
	// load of another slot).
	var resolve func(v Value) Value
	resolve = func(v Value) Value {
		in, isInstr := v.(*Instr)
		if !isInstr {
			return v
		}
		if r, isReplaced := replaced[in]; isReplaced {
			r = resolve(r)
			replaced[in] = r
			return r
		}
		return v
	}

	// Rewrite operands and drop dead loads/stores and promoted allocas.
	for slot := range slots {
		dead[slot] = true
	}
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if dead[in] {
				continue
			}
			for i, a := range in.Args {
				in.Args[i] = resolve(a)
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	prunePhis(f)
	f.Recompute()
}

// prunePhis removes phi nodes that are dead or only feed cycles of other
// dead phis; semi-pruned phi placement routinely creates such cycles for
// slots that are fully re-initialized before use (an inner loop counter seen
// from an outer loop header, for example), and a dead phi in a loop header
// would otherwise masquerade as a loop-carried scalar dependence.
func prunePhis(f *Function) {
	// A phi is live if reachable (through phi operands) from a use by any
	// non-phi instruction.
	live := map[*Instr]bool{}
	var markLive func(v Value)
	markLive = func(v Value) {
		in, isInstr := v.(*Instr)
		if !isInstr || in.Op != OpPhi || live[in] {
			return
		}
		live[in] = true
		for _, a := range in.Args {
			markLive(a)
		}
	}
	f.Instrs(func(in *Instr) {
		if in.Op == OpPhi {
			return
		}
		for _, a := range in.Args {
			markLive(a)
		}
	})
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op == OpPhi && !live[in] {
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
}
