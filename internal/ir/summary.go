package ir

// Region summaries: a parallel region is a loop body plus everything
// transitively callable from it. Several stages need this view — the
// transformer instruments region instructions, and the static separation
// prover reasons about the region's complete set of memory effects,
// including callee write sets.

// RegionFuncs returns l's enclosing function followed by every function
// transitively callable from inside l's body, in deterministic discovery
// order. reenters reports that the body can call back into l's own
// function: that function's code outside the loop then runs inside the
// region too, and the loop may be active more than once at a time.
func RegionFuncs(l *Loop) (funcs []*Function, reenters bool) {
	seen := map[*Function]bool{}
	funcs = []*Function{l.Header.Fn}
	var scan func(f *Function)
	scan = func(f *Function) {
		if seen[f] {
			return
		}
		seen[f] = true
		if f == l.Header.Fn {
			reenters = true
		} else {
			funcs = append(funcs, f)
		}
		f.Instrs(func(in *Instr) {
			if in.Op == OpCall {
				scan(in.Callee)
			}
		})
	}
	for _, b := range l.Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpCall {
				scan(in.Callee)
			}
		}
	}
	return funcs, reenters
}

// RegionMemOps collects the memory-touching instructions that can execute
// inside l's region: writes (store, memset, memcopy, free, h_dealloc) and
// reads (load, memcopy source). Instructions in l's own function count only
// when inside the loop body, unless the body can re-enter that function;
// instructions in callees count entirely — a callee reachable from the loop
// may run any of its blocks. Deallocations count as writes: freeing an
// object inside a region is a mutation any read-only or privacy proof must
// observe.
func RegionMemOps(l *Loop) (writes, reads []*Instr) {
	collect := func(in *Instr) {
		switch in.Op {
		case OpStore, OpMemSet, OpFree, OpHDealloc:
			writes = append(writes, in)
		case OpLoad:
			reads = append(reads, in)
		case OpMemCopy:
			writes = append(writes, in)
			reads = append(reads, in)
		}
	}
	funcs, reenters := RegionFuncs(l)
	if reenters {
		funcs[0].Instrs(collect)
	} else {
		for _, b := range l.Blocks {
			for _, in := range b.Instrs {
				collect(in)
			}
		}
	}
	for _, f := range funcs[1:] {
		f.Instrs(collect)
	}
	return writes, reads
}

// FuncsMayRead reports, for each function in the module, whether it (or a
// transitive callee) contains an instruction that may read memory. The
// separation prover uses it to decide which call sites are read points for
// an object without re-walking call graphs per query.
func FuncsMayRead(m *Module) map[*Function]bool {
	out := map[*Function]bool{}
	var visit func(f *Function, stack map[*Function]bool) bool
	visit = func(f *Function, stack map[*Function]bool) bool {
		if v, ok := out[f]; ok {
			return v
		}
		if stack[f] {
			return false // cycle: resolved by another path or stays false
		}
		stack[f] = true
		defer delete(stack, f)
		reads := false
		f.Instrs(func(in *Instr) {
			if reads {
				return
			}
			switch in.Op {
			case OpLoad, OpMemCopy:
				reads = true
			case OpCall:
				if visit(in.Callee, stack) {
					reads = true
				}
			}
		})
		out[f] = reads
		return reads
	}
	for _, f := range m.SortedFuncs() {
		visit(f, map[*Function]bool{})
	}
	return out
}
