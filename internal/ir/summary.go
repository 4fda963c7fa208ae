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
